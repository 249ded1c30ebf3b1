"""Round-trip tests for every file schema."""

import json
import math
import os
import re
import sys
import tempfile
import zipfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CODEC_DOCUMENT,
    ENCODER_DOCUMENT,
    GRAPH_DOCUMENT,
    LEAF_REPLACEMENTS,
    MISTYPED_NUMBER_LEAVES,
    WORST_CASE_DEFECTS,
    assert_same_bits,
    damaged_corpus_fields,
    damaged_documents,
    damaged_instance_documents,
    joint_estimate,
    max_entry_difference,
    savez_corpus,
    worst_case_defect_text,
)
from translab import cli, io
from translab.distributions import DeterministicTranslator, FiniteDistribution, Sentence
from translab.errors import SchemaError
from translab.generative import (
    PARALLEL_ROWS,
    ROW_BLOCK,
    AlignedCorpus,
    FunctionClassSpec,
    LatentSampler,
    RandomizedCodec,
    TranslationGraph,
    corpus_rows,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
)
from translab.impossibility import (
    ManyToManyInstance,
    Tasks,
    make_worst_case,
    random_many_to_many_instance,
    random_two_to_one_instance,
)
from translab.trainer import EncoderEstimate
from test_trainer import chain_setup


def round_trip_instances(family: str) -> list[ManyToManyInstance]:
    if family == "worst_case":
        return [make_worst_case(delta) for delta in np.linspace(0.0, 1.0, 41)]
    if family == "many_to_many":
        return [random_many_to_many_instance(np.random.default_rng(s)) for s in range(200)]
    rng = np.random.default_rng(2)
    return [random_two_to_one_instance(rng) for _ in range(200)]


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("family", ["worst_case", "many_to_many", "two_to_one"])
    def test_tasks_read_back_bit_for_bit(self, tmp_path, family):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        for instance in round_trip_instances(family):
            io.save_instance(instance, first)
            loaded = io.load_instance(first)
            for name, got, want in zip(Tasks._fields, loaded.tasks, instance.tasks):
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
                else:
                    assert got == want, name
            io.save_instance(loaded, second)
            assert second.read_bytes() == first.read_bytes()

    def test_many_to_many_weights_must_sum_to_one(self):
        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(1)))
        for row in payload["pairs"]["L0->L1"]:
            row[1] /= 2
        with pytest.raises(SchemaError, match="pair 'L0->L1' weights sum to"):
            io.instance_from_dict(payload)

    def test_missing_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"languages": ["A"]}))
        with pytest.raises(SchemaError):
            io.load_instance(path)

    def test_not_json_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError):
            io.load_instance(path)

    def test_not_utf8_or_a_directory_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"languages": []}')
        with pytest.raises(SchemaError, match="not valid JSON"):
            io.load_instance(path)
        with pytest.raises(SchemaError, match="is a directory"):
            io.load_instance(tmp_path)


def one_pair_instance(source: str, pool) -> ManyToManyInstance:
    """``source`` -> ``c`` with one source sentence, translated to the first of ``pool``."""
    x = Sentence(source, "s", target_tag="c")
    return ManyToManyInstance(
        (source, "c"),
        {(source, "c"): FiniteDistribution((x,), np.array([1.0]))},
        {(source, "c"): DeterministicTranslator({x: pool[0]})},
        {"c": pool},
    )


class TestInstanceDefects:
    @pytest.mark.parametrize("defect", sorted(WORST_CASE_DEFECTS))
    def test_defect_is_schema_error_naming_the_file(self, tmp_path, defect):
        message = WORST_CASE_DEFECTS[defect][1]
        path = tmp_path / "bad.json"
        path.write_text(worst_case_defect_text(defect))
        with pytest.raises(SchemaError, match=re.escape(message)) as exc:
            io.load_instance(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_many_to_many_raw_weight_names_pair_and_row(self, tmp_path, bad):
        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(1)))
        payload["pairs"]["L0->L1"][0][1] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="pair 'L0->L1' row 0: weight") as exc:
            io.load_instance(path)
        assert str(exc.value).startswith(f"{path}: ")

    @settings(max_examples=300, deadline=None)
    @given(damaged_instance_documents())
    def test_damaged_document_loads_or_is_schema_error(self, payload):
        try:
            instance = io.instance_from_dict(payload)
        except SchemaError:
            return
        # a document that loads is one the writer writes back: nothing was dropped
        assert io.instance_to_dict(instance) == payload

    @pytest.mark.parametrize(
        "source, pool, message",
        [
            # its pair key 'a->b->c' would read back as the pair ('a', 'b->c')
            ("a->b", (Sentence("c", "y"),), "language id 'a->b' holds '->'"),
            # a pool lists bare ids, so the tag would be lost
            ("a", (Sentence("c", "y", target_tag="a"),), "pool sentence <a><c>y of 'c' carries a"),
            ("a", (Sentence("c", "y"), Sentence("c", "y")), "pool of 'c' lists a sentence twice"),
        ],
    )
    def test_what_the_reader_could_not_read_back_is_not_written(
        self, tmp_path, source, pool, message
    ):
        path = tmp_path / "instance.json"
        with pytest.raises(ValueError, match=re.escape(message)):
            io.save_instance(one_pair_instance(source, pool), path)
        assert not path.exists()


class TestGraphAndCodecFiles:
    def test_graph_round_trip(self, tmp_path):
        for n_ab, n_bc in ((10, 20), (7, 9)):
            graph = TranslationGraph(("A", "B", "C"), (("A", "B", n_ab), ("B", "C", n_bc)))
            path = tmp_path / "graph.json"
            io.save_graph(graph, path)
            again = io.load_graph(path)
            assert again.languages == graph.languages
            assert again.edges == graph.edges

    def test_deterministic_codecs_round_trip(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        path = tmp_path / "codecs.json"
        io.save_codecs(codecs, spec, path)
        spec2, codecs2 = io.load_codecs(path)
        assert spec2 == spec
        for lang in codecs:
            assert codecs2[lang].sigma == 0.0 and codecs2[lang].nuisance_dim == 0
            assert np.allclose(codecs2[lang].decoder.linear, codecs[lang].decoder.linear)
            assert np.allclose(codecs2[lang].decoder.offset, codecs[lang].decoder.offset)

    def test_randomized_codecs_round_trip(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, 0.1, seed=0)))
        path = tmp_path / "codecs.json"
        io.save_codecs(codecs, spec, path)
        _spec2, codecs2 = io.load_codecs(path)
        assert isinstance(codecs2["A"], RandomizedCodec)
        assert codecs2["A"].sigma == 0.1 and codecs2["A"].nuisance_dim == 2
        assert np.allclose(codecs2["A"].decoder.linear, codecs["A"].decoder.linear)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        graph, codecs, corpora, _ = chain_setup(n_langs=4, sigma=0.1, nuisance=2)
        estimate = joint_estimate(corpora)
        first, second = tmp_path / "first.json", tmp_path / "second.json"

        io.save_graph(six_language_demo_graph(), first)
        io.save_graph(io.load_graph(first), second)
        assert second.read_bytes() == first.read_bytes()

        io.save_codecs(codecs, spec, first)
        loaded_spec, loaded_codecs = io.load_codecs(first)
        io.save_codecs(loaded_codecs, loaded_spec, second)
        assert second.read_bytes() == first.read_bytes()

        io.save_encoders(estimate, first, spec)
        loaded_estimate, loaded_spec = io.load_encoders(first)
        io.save_encoders(loaded_estimate, second, loaded_spec)
        assert second.read_bytes() == first.read_bytes()

    def test_codecs_with_mixed_noise_settings_are_rejected(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        noisy = sample_randomized_codecs(spec, 1, 2, 0.1, seed=0)[0]
        plain = sample_randomized_codecs(spec, 1, 0, 0.0, seed=0)[0]
        with pytest.raises(ValueError, match="share one sigma"):
            io.save_codecs({"A": noisy, "B": plain}, spec, tmp_path / "codecs.json")
        # The codec stack states the rule: a sigma or a nuisance_dim alone breaks it.
        louder = RandomizedCodec(noisy.decoder, 2, 0.2)
        wider = sample_randomized_codecs(FunctionClassSpec(dim=2), 1, 3, 0.1, seed=0)[0]
        for other in (louder, wider):
            with pytest.raises(ValueError, match="share one sigma"):
                RandomizedCodec.stack([noisy, other])

    def test_load_checks_every_codec_with_one_svd(self, tmp_path, monkeypatch):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("ABCDEF", sample_randomized_codecs(spec, 6, 1, 0.1, seed=0)))
        path = tmp_path / "codecs.json"
        io.save_codecs(codecs, spec, path)
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        _spec, again = io.load_codecs(path)
        assert shapes == [(6, 4, 4)]
        for lang, codec in codecs.items():
            assert np.array_equal(again[lang].decoder.linear, codec.decoder.linear)
            assert np.array_equal(again[lang].decoder.offset, codec.decoder.offset)
            assert again[lang].decoder.nonsingular

    @pytest.mark.parametrize("d, nuisance", [(4, 0), (3, 1)])
    def test_codec_latent_dimension_must_match_spec(self, tmp_path, d, nuisance):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        path = tmp_path / "codecs.json"
        io.save_codecs(codecs, spec, path)
        payload = json.loads(path.read_text())
        payload["spec"]["d"] = d
        payload["nuisance_dim"] = nuisance
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        message = str(info.value)
        assert str(path) in message and "'A'" in message and "latent dimension" in message


#: Graphs whose language ids cannot name corpus files, or cannot be told apart
#: in ``src->dst`` keys and paths, and the defect each reports.
UNSAFE_ID_GRAPHS = {
    "escaping-id": (
        ["A", "x/../../../esc"],
        [("A", "x/../../../esc")],
        "language id 'x/../../../esc' holds a path separator or NUL",
    ),
    "null-byte-id": (
        ["A", "x\x00y"],
        [("A", "x\x00y")],
        "language id 'x\\x00y' holds a path separator or NUL",
    ),
    "arrow-id": (
        ["a->b", "c"],
        [("a->b", "c")],
        "language id 'a->b' holds '->', which 'src->dst' keys reserve",
    ),
    "shared-corpus-file": (
        ["A", "C", "A__B", "B__C"],
        [("A__B", "C"), ("A", "B__C")],
        "edges ('A__B', 'C') and ('A', 'B__C') both store their corpus in corpus_A__B__C.npz",
    ),
}


def write_unsafe_id_graph(path, case):
    languages, edges, _expected = UNSAFE_ID_GRAPHS[case]
    edges = [{"a": a, "b": b, "n": 4} for a, b in edges]
    path.write_text(json.dumps({"languages": languages, "edges": edges}))


class TestGraphDefects:
    @pytest.mark.parametrize("case", UNSAFE_ID_GRAPHS)
    def test_id_that_cannot_name_a_corpus_file_names_file_and_id(self, tmp_path, case):
        path = tmp_path / "graph.json"
        write_unsafe_id_graph(path, case)
        with pytest.raises(SchemaError) as info:
            io.load_graph(path)
        assert str(info.value) == f"{path}: {UNSAFE_ID_GRAPHS[case][2]}"

    @pytest.mark.parametrize("mode", ["generate", "train", "eval"])
    @pytest.mark.parametrize("case", UNSAFE_ID_GRAPHS)
    def test_id_that_cannot_name_a_corpus_file_exits_2_writing_nothing(
        self, tmp_path, capsys, case, mode
    ):
        path = tmp_path / "inputs" / "graph.json"
        path.parent.mkdir()
        write_unsafe_id_graph(path, case)
        inputs = {
            "generate": [],
            "train": ["--corpus-dir", str(path.parent)],
            "eval": ["--codecs", str(path), "--encoders", str(path)],
        }[mode]
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "runs" / "out"
        code = cli.main([mode, "--graph", str(path), *inputs, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: {UNSAFE_ID_GRAPHS[case][2]}\n"
        assert sorted(tmp_path.rglob("*")) == before
    @pytest.mark.parametrize(
        "edge, expected",
        [
            ({"a": "L0", "b": "L1", "n": "x"}, "edge L0->L1 has n='x'"),
            ({"a": "L0", "b": "L1", "n": math.nan}, "edge L0->L1 has n=nan"),
            ({"a": "L0", "b": "L1", "n": 1.5}, "edge L0->L1 has n=1.5"),
            ({"a": "L0", "b": "L1", "n": True}, "edge L0->L1 has n=True"),
            ({"a": "L0", "b": "L1", "n": -1}, "edge L0->L1 has n=-1"),
            ({"a": "L0", "b": 1, "n": 4}, "edge 0 needs language ids"),
            (["L0", "L1", 4], "edge 0 document must be a JSON object"),
            # a missing or misspelt count is no longer read as 0
            ({"a": "L0", "b": "L1"}, "edge 0 document missing key 'n'"),
            ({"a": "L0", "b": "L1", "N": 500}, "edge 0 document missing key 'n'"),
            ({"a": "L0", "b": "L1", "n": 500, "N": 500}, "edge 0 document has unknown key 'N'"),
            ({"a": "L0", "b": "L1", "n": 5, "weight": 1}, "edge 0 document has unknown key"),
        ],
    )
    def test_bad_edge_names_file_and_edge(self, tmp_path, edge, expected):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"languages": ["L0", "L1"], "edges": [edge]}))
        with pytest.raises(SchemaError) as info:
            io.load_graph(path)
        assert str(info.value).startswith(f"{path}: {expected}")

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ({"languages": ["L0", 1], "edges": []}, "language id 1 is not a string"),
            ({"languages": ["L0"]}, "graph document missing key 'edges'"),
            ({"languages": ["L0"], "edges": {}}, "'edges' list"),
            ({"languages": "L0", "edges": []}, "'languages' list"),
            ([], "graph document must be a JSON object"),
            (
                {"languages": ["A", "B"], "edges": [{"a": "A", "b": "B", "N": 500}], "note": 1},
                "graph document has unknown key 'note'",
            ),
            ({"languages": ["L0", "L0"], "edges": []}, "duplicate language ids"),
            ({"languages": [], "edges": []}, "graph document lists no languages"),
        ],
    )
    def test_bad_document_names_the_file(self, tmp_path, payload, expected):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_graph(path)
        assert str(info.value).startswith(f"{path}: ")
        assert expected in str(info.value)

    @settings(max_examples=80, deadline=None)
    @given(damaged_documents(GRAPH_DOCUMENT))
    def test_damaged_graph_loads_or_is_schema_error_and_generate_exits_2(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_text(json.dumps(payload))
            try:
                io.load_graph(path)
            except SchemaError as exc:
                message = str(exc)
            else:
                return
            assert message.startswith(f"{path}: "), message
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli.main(
                    ["generate", "--graph", str(path), "--out", str(Path(tmp) / "run")]
                )
            assert code == 2
            assert err.getvalue() == f"error: {message}\n"


def assert_json_typed_spec(document):
    """A spec document that loaded has a JSON integer 'd' and JSON numbers elsewhere."""
    assert type(document["d"]) is int
    assert all(type(document[key]) in (int, float) for key in ("B", "rho", "offset_bound"))


class TestCodecDefects:
    def test_singular_codec_names_file_and_codec(self, tmp_path):
        payload = json.loads(json.dumps(CODEC_DOCUMENT))
        payload["codecs"]["L1"]["W"] = [[0.0] * 3] * 3
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        assert str(info.value) == (
            f"{path}: malformed codec 'L1': codec matrix is numerically singular"
        )

    def test_codec_of_another_size_names_file_and_codec(self, tmp_path):
        payload = json.loads(json.dumps(CODEC_DOCUMENT))
        payload["codecs"]["L1"].update(W=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0])
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        assert str(info.value).startswith(
            f"{path}: codec 'L1' has latent dimension 1 ('W' rows minus nuisance_dim)"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("W", math.inf), ("W", math.nan), ("b", math.inf), ("b", -math.inf),
            # JSON true and "1.5" would convert to 1.0 and 1.5
            ("W", True), ("W", "1.5"), ("b", True), ("b", "1.5"), ("W", None), ("b", [1.0]),
        ],
    )
    def test_bad_entry_names_file_codec_and_field(self, tmp_path, field, value):
        payload = json.loads(json.dumps(CODEC_DOCUMENT))
        entry = payload["codecs"]["L1"]
        if field == "W":
            entry["W"][1][0] = value
        else:
            entry["b"][2] = value
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        if isinstance(value, float):
            expected = f"codec 'L1' field '{field}' has a non-finite entry"
        elif isinstance(value, list):
            expected = f"codec 'L1' field '{field}' is not a numeric array"
        else:
            expected = f"codec 'L1' field '{field}' holds {value!r}, not a JSON number"
        assert str(info.value).startswith(f"{path}: {expected}")

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_names_file_and_field(self, tmp_path, sigma):
        payload = dict(CODEC_DOCUMENT, sigma=sigma)
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        assert str(info.value).startswith(f"{path}: codec field 'sigma' is not finite")

    @pytest.mark.parametrize(
        "owner, field, value",
        [
            ("spec", "d", 3.7), ("spec", "d", 2.0), ("spec", "d", True),
            ("spec", "B", "1"), ("spec", "rho", "2"), ("spec", "offset_bound", False),
            (None, "sigma", "0.1"), (None, "sigma", True),
            (None, "nuisance_dim", 1.9), (None, "nuisance_dim", True),
        ],
    )
    def test_mistyped_number_names_file_and_field(self, tmp_path, owner, field, value):
        payload = json.loads(json.dumps(CODEC_DOCUMENT))
        (payload[owner] if owner else payload)[field] = value
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        kind = "integer" if field in ("d", "nuisance_dim") else "number"
        prefix = f"{path}: malformed 'spec': " if owner else f"{path}: codec "
        assert str(info.value) == (
            f"{prefix}field {field!r} must be a JSON {kind}, got {value!r}"
        )

    @pytest.mark.parametrize(
        "key", ["spec", "sigma", "nuisance_dim", "codecs", "as pairs", "unknown"]
    )
    def test_missing_unknown_or_listed_key_names_file_and_key(self, tmp_path, key):
        # the writer writes every key and no other, so none has a default and none is dropped
        payload = json.loads(json.dumps(CODEC_DOCUMENT))
        expected = f"codec document missing key {key!r}"
        if key == "as pairs":
            payload["codecs"] = list(payload["codecs"].items())
            expected = "codec field 'codecs' must map language ids to codecs"
        elif key == "unknown":
            payload["encoders"] = {}
            expected = "codec document has unknown key 'encoders'"
        else:
            del payload[key]
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        assert str(info.value) == f"{path}: {expected}"

    @settings(max_examples=80, deadline=None)
    @given(damaged_documents(CODEC_DOCUMENT, LEAF_REPLACEMENTS + MISTYPED_NUMBER_LEAVES))
    def test_damaged_document_loads_or_is_schema_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "codecs.json"
            path.write_text(json.dumps(payload))
            try:
                spec, codecs = io.load_codecs(path)
            except SchemaError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)
                return
            for codec in codecs.values():
                assert np.isfinite(codec.sigma) and np.all(np.isfinite(codec.decoder.linear))
            assert all(np.isfinite([spec.radius, spec.rho, spec.offset_bound]))
            assert_json_typed_spec(payload["spec"])
            assert type(payload["nuisance_dim"]) is int
            assert type(payload["sigma"]) in (int, float)
            assert isinstance(payload["codecs"], dict)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        corpus = randomized_generate(("A", "B"), codecs, 32, LatentSampler(3, 1.0, 0), seed=1)
        path = tmp_path / io.corpus_filename(("A", "B"))
        io.save_corpus(corpus, path)
        again = io.load_corpus(path)
        assert again.edge == corpus.edge
        assert np.array_equal(again.rows, corpus.rows)
        assert again.meta == corpus.meta

    #: (latent dim, nuisance dim, sigma) of each codec setting.
    SETTINGS = {"noiseless": (3, 0, 0.0), "noisy": (2, 1, 0.05)}

    @pytest.mark.parametrize("setting", SETTINGS.values(), ids=SETTINGS.keys())
    @pytest.mark.parametrize(
        "n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]
    )
    def test_generate_writes_what_np_savez_writes(self, tmp_path, setting, n):
        # Two edges; past one row block the second is drawn on the worker
        # thread while the first is written. Each file is compared with
        # np.savez of the in-memory corpus, byte for byte, and loaded back.
        dim, nuisance_dim, sigma = setting
        graph = TranslationGraph(("L0", "L1", "L2"), (("L0", "L1", n), ("L1", "L2", n)))
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        argv = ["generate", "--graph", str(graph_path), "--dim", str(dim), "--seed", "4",
                "--sigma", str(sigma), "--nuisance-dim", str(nuisance_dim), "--out", str(out)]
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0
        spec = FunctionClassSpec(dim=dim)
        codec_list = sample_randomized_codecs(spec, 3, nuisance_dim, sigma, seed=4)
        codecs = dict(zip(graph.languages, codec_list))
        sampler = LatentSampler(dim, spec.radius, seed=4)
        reference = tmp_path / "reference.npz"
        for edge in graph.edge_pairs():
            corpus = randomized_generate(edge, codecs, n, sampler, seed=4)
            savez_corpus(corpus, reference)
            path = out / io.corpus_filename(edge)
            assert path.read_bytes() == reference.read_bytes()
            again = io.load_corpus(path)
            assert again.edge == edge and again.meta == corpus.meta
            assert_same_bits(again.rows, corpus.rows)

    def _saved(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        corpus = randomized_generate(("A", "B"), codecs, 8, LatentSampler(3, 1.0, 0), seed=1)
        path = tmp_path / io.corpus_filename(("A", "B"))
        io.save_corpus(corpus, path)
        with np.load(path) as npz:
            fields = {name: npz[name] for name in npz.files}
        return path, fields

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("pairs", "nan", "non-finite"),
            ("pairs", "inf", "non-finite"),
            ("pairs", "flat", "(n, 2, dim)"),
            ("pairs", "text", "(n, 2, dim)"),
            ("meta", "not json {", "not JSON"),
            ("meta", "[1, 2]", "JSON object"),
            ("edge", "one", "two languages"),
        ],
    )
    def test_bad_field_names_file_and_field(self, tmp_path, field, value, expected):
        path, fields = self._saved(tmp_path)
        if value in ("nan", "inf"):
            pairs = fields["pairs"].copy()
            pairs[3, 1, 2] = float(value)
            fields["pairs"] = pairs
        elif value == "flat":
            fields["pairs"] = fields["pairs"][:, 0, :]
        elif value == "text":
            fields["pairs"] = np.array([[["x"] * 3] * 2])
        elif value == "one":
            fields["edge"] = np.array(["A"])
        else:
            fields[field] = np.array(value)
        np.savez(path, **fields)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        message = str(info.value)
        assert str(path) in message and f"'{field}'" in message and expected in message

    @pytest.mark.parametrize("layout", ["compressed", "fortran", "int64", "float32", ">f8"])
    def test_layout_the_writer_does_not_write_is_schema_error(self, tmp_path, layout):
        path, fields = self._saved(tmp_path)
        pairs, save = fields["pairs"], np.savez
        if layout == "compressed":
            save = np.savez_compressed
        elif layout == "fortran":
            fields["pairs"] = np.asfortranarray(pairs)
        else:
            fields["pairs"] = pairs.astype(layout)
        save(path, **fields)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(info.value).startswith(f"{path}: corpus field 'pairs'")

    @pytest.mark.parametrize("field", ["pairs", "edge", "meta"])
    def test_member_flagged_encrypted_is_schema_error(self, tmp_path, field):
        path, _fields = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # The last copy of the name is in the central directory, 46 bytes
        # into its entry; bit 0 of the flags at byte 8 marks encryption.
        entry = raw.rindex(f"{field}.npy".encode()) - 46
        assert raw[entry : entry + 4] == b"PK\x01\x02"
        raw[entry + 8] |= 1
        path.write_bytes(raw)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(info.value).startswith(f"{path}: corpus field '{field}'")

    @pytest.mark.parametrize("n", [10, 10**6, 10**13])
    def test_header_claiming_more_pairs_than_stored_is_schema_error(self, tmp_path, n):
        # A 4-pair member whose header claims n pairs is rejected before
        # anything is allocated: 10**13 pairs would need 437 TiB.
        path = tmp_path / io.corpus_filename(("A", "B"))
        header = {"descr": "<f8", "fortran_order": False, "shape": (n, 2, 3)}
        with zipfile.ZipFile(path, "w") as npz:
            with npz.open("pairs.npy", "w") as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(np.zeros((4, 2, 3)).tobytes())
            for name, value in (("edge", np.array(["A", "B"])), ("meta", np.array("{}"))):
                with npz.open(f"{name}.npy", "w") as member:
                    np.lib.format.write_array(member, value)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(info.value).startswith(f"{path}: corpus field 'pairs'")

    def test_flipped_bit_in_the_pairs_fails_the_crc_check(self, tmp_path):
        path, fields = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # The lowest mantissa bit of one entry: the value stays finite.
        raw[raw.index(fields["pairs"].tobytes()) + 8 * 5] ^= 1
        path.write_bytes(raw)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        message = str(info.value)
        assert str(path) in message and "'pairs'" in message and "CRC-32" in message

    @pytest.mark.parametrize("where", ["npy header", "pairs data", "central directory"])
    def test_file_cut_short_is_schema_error(self, tmp_path, where):
        path, fields = self._saved(tmp_path)
        raw = path.read_bytes()
        data = raw.index(fields["pairs"].tobytes())
        cut = {
            "npy header": data - 20,
            "pairs data": data + 100,
            "central directory": raw.index(b"PK\x01\x02") + 10,
        }[where]
        path.write_bytes(raw[:cut])
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(path) in str(info.value)

    def test_missing_field_is_schema_error(self, tmp_path):
        path, fields = self._saved(tmp_path)
        del fields["meta"]
        np.savez(path, **fields)
        with pytest.raises(SchemaError, match="'meta'"):
            io.load_corpus(path)

    @pytest.mark.parametrize("content", [b"", b"not an npz file", b"PK\x03\x04broken"])
    def test_file_that_is_not_npz_is_schema_error(self, tmp_path, content):
        path = tmp_path / "corpus_A__B.npz"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match="not an NPZ corpus file") as info:
            io.load_corpus(path)
        assert str(path) in str(info.value)

    def test_npy_array_is_not_a_corpus(self, tmp_path):
        path = tmp_path / "corpus_A__B.npy"
        np.save(path, np.zeros((4, 2, 3)))
        with pytest.raises(SchemaError, match="not an NPZ corpus file"):
            io.load_corpus(path)

    @settings(max_examples=80, deadline=None)
    @given(damaged_corpus_fields())
    def test_damaged_file_is_schema_error_and_train_exits_2(self, damaged):
        fields, field = damaged
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            graph_path = tmp / "graph.json"
            io.save_graph(TranslationGraph(("L1", "L2"), (("L1", "L2", 8),)), graph_path)
            path = tmp / io.corpus_filename(("L1", "L2"))
            np.savez(path, **fields)
            with pytest.raises(SchemaError) as info:
                io.load_corpus(path)
            message = str(info.value)
            assert message.startswith(f"{path}: corpus field '{field}'"), message
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli.main(
                    ["train", "--graph", str(graph_path), "--corpus-dir", str(tmp),
                     "--out", str(tmp / "run")]
                )
            assert code == 2
            assert err.getvalue() == f"error: {message}\n"


class TestCrc32Combine:
    """``io._crc32_combine`` joins the CRC-32s of two byte strings into that of both."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=3000), st.data())
    def test_joins_the_crcs_of_any_split(self, data, draw):
        cut = draw.draw(st.integers(0, len(data)))
        a, b = data[:cut], data[cut:]
        assert io._crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(data)

    @pytest.mark.parametrize("a, b", [(b"", b""), (b"", b"corpus"), (b"corpus", b"")])
    def test_an_empty_part(self, a, b):
        assert io._crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @pytest.mark.parametrize(
        "length", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097, 2**16, 2**20 + 1]
    )
    def test_lengths_across_powers_of_two(self, length):
        rng = np.random.default_rng(length)
        a, b = rng.bytes(length + 3), rng.bytes(length)
        assert io._crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)
        assert io._crc32_combine(zlib.crc32(b), zlib.crc32(a), len(a)) == zlib.crc32(b + a)


class TestTwoPartRead:
    """Corpora of ``PARALLEL_ROWS`` pairs or more are read as two halves on two threads.

    Each corpus here is about 6 MB, just past the threshold, so its second
    half is read on the worker thread.
    """

    DIM = 6

    def _save(self, path, pairs):
        np.savez(path, pairs=pairs, edge=np.array(["A", "B"]), meta=np.array("{}"))

    def _pairs(self, n):
        return np.random.default_rng(n).standard_normal((n, 2, self.DIM))

    @pytest.mark.parametrize(
        "n", [PARALLEL_ROWS - 1, PARALLEL_ROWS, PARALLEL_ROWS + 1, PARALLEL_ROWS + ROW_BLOCK + 1]
    )
    def test_rows_match_np_load_bitwise(self, tmp_path, n):
        path = tmp_path / "corpus_A__B.npz"
        self._save(path, self._pairs(n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the halves' threads interleave often
        try:
            rows = io.load_corpus(path).rows
        finally:
            sys.setswitchinterval(interval)
        with np.load(path) as npz:
            reference = npz["pairs"]
        assert rows.shape == (n, 2 * self.DIM + 1)
        assert np.all(rows[:, self.DIM] == 1.0)
        assert_same_bits(rows[:, : self.DIM], reference[:, 0])
        assert_same_bits(rows[:, self.DIM + 1 :], reference[:, 1])

    def test_flipped_bit_in_the_second_half_fails_the_crc_check(self, tmp_path):
        path = tmp_path / "corpus_A__B.npz"
        pairs = self._pairs(PARALLEL_ROWS + 1)
        self._save(path, pairs)
        raw = bytearray(path.read_bytes())
        # The lowest mantissa bit of one entry near the end: it stays finite.
        raw[raw.index(pairs[:1].tobytes()) + pairs[:-3].nbytes] ^= 1
        path.write_bytes(raw)
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(info.value) == (
            f"{path}: corpus field 'pairs' fails its CRC-32 check: the file is damaged"
        )

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_entry_in_the_second_half_with_a_matching_crc(self, tmp_path, value):
        path = tmp_path / "corpus_A__B.npz"
        pairs = self._pairs(PARALLEL_ROWS + 1)
        pairs[-2, 1, 3] = value
        self._save(path, pairs)  # np.savez writes the CRC of the damaged data
        with pytest.raises(SchemaError) as info:
            io.load_corpus(path)
        assert str(info.value) == f"{path}: corpus field 'pairs' has a non-finite entry"

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_file_truncated_after_it_was_opened_ends_before_its_data(self, tmp_path, half):
        # Cut after the central directory was read, so the read itself comes up short.
        n = PARALLEL_ROWS + 1
        path = tmp_path / "corpus_A__B.npz"
        pairs = self._pairs(n)
        self._save(path, pairs)
        data = path.read_bytes().index(pairs[:1].tobytes())
        cut_row = {"first": ROW_BLOCK + 5, "second": n - 7}[half]
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as npz:
            os.truncate(path, data + pairs[:cut_row].nbytes)
            with pytest.raises(SchemaError) as info:
                io._read_rows(fh, npz)
        assert str(info.value) == "corpus field 'pairs' ends before its data does"


class TestAtomicWrites:
    """A write that fails partway keeps the earlier file and leaves no temporary file."""

    class Boom(Exception):
        pass

    def _assert_unchanged(self, path, before):
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_json(self, tmp_path):
        path = tmp_path / "summary.json"
        io.write_summary_json({"a": 1}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            io.write_summary_json({"a": 2, "b": object()}, path)
        self._assert_unchanged(path, before)

    def test_csv(self, tmp_path):
        from translab.evaluation import SweepRow

        class Unprintable:
            def __str__(self):
                raise TestAtomicWrites.Boom

        path = tmp_path / "sweep.csv"
        io.write_sweep_csv([SweepRow(8, 0, 0.1, 0.2, 0.1)], path)
        before = path.read_bytes()
        rows = [SweepRow(8, 0, 0.3, 0.4, 0.1), SweepRow(Unprintable(), 0, 0.3, 0.4, 0.1)]
        with pytest.raises(self.Boom):
            io.write_sweep_csv(rows, path)
        self._assert_unchanged(path, before)

    @staticmethod
    def _corpus():
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        return randomized_generate(("A", "B"), codecs, 8, LatentSampler(3, 1.0, 0), seed=1)

    def test_corpus(self, tmp_path):
        corpus = self._corpus()
        path = tmp_path / io.corpus_filename(("A", "B"))
        io.save_corpus(corpus, path)
        before = path.read_bytes()

        def failing_fill(rows, x, y):
            x[...] = corpus.source_points[rows]
            y[...] = corpus.target_points[rows]
            raise self.Boom

        with pytest.raises(self.Boom):
            io.write_corpus(path, corpus.edge, corpus.meta, corpus.n, corpus.dim, failing_fill)
        self._assert_unchanged(path, before)

    @pytest.mark.parametrize("n, dim", [(0, 3), (8, 0)])
    def test_corpus_the_loader_rejects_is_not_written(self, tmp_path, n, dim):
        # load_corpus rejects n or dim below 1, so write_corpus refuses them
        # before it opens anything, and fill is never called.
        def fill(rows, x, y):
            raise AssertionError("fill was called")

        with pytest.raises(ValueError, match=re.escape(f"n, dim >= 1, got n={n} and dim={dim}")):
            io.write_corpus(tmp_path / "corpus.npz", ("A", "B"), {}, n, dim, fill)
        assert list(tmp_path.iterdir()) == []

    def test_empty_corpus_is_not_saved(self, tmp_path):
        corpus = AlignedCorpus(("A", "B"), corpus_rows((0,), 3), {})
        with pytest.raises(ValueError, match=re.escape("n, dim >= 1, got n=0 and dim=3")):
            io.save_corpus(corpus, tmp_path / "corpus.npz")
        assert list(tmp_path.iterdir()) == []

    def test_corpus_keeps_the_given_name(self, tmp_path):
        corpus = self._corpus()
        path = tmp_path / "corpus.bin"
        io.save_corpus(corpus, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.bin"]
        assert np.array_equal(io.load_corpus(path).rows, corpus.rows)


class TestEncoderFiles:
    @staticmethod
    def _estimate(n_langs=3):
        _graph, _codecs, corpora, _ = chain_setup(n_langs=n_langs, sigma=0.05, nuisance=1, n=60)
        return joint_estimate(corpora)

    def test_round_trip(self, tmp_path):
        estimate = self._estimate()
        path = tmp_path / "encoders.json"
        io.save_encoders(estimate, path, spec=FunctionClassSpec(dim=3))
        again, spec = io.load_encoders(path)
        assert isinstance(again, EncoderEstimate)
        assert spec == FunctionClassSpec(dim=3)
        for lang in sorted(estimate.encoders):
            assert again.encoder(lang).linear.shape == (3, 4)
            assert max_entry_difference(again.encoder(lang), estimate.encoder(lang)) == 0.0
            assert max_entry_difference(again.decoder(lang), estimate.decoder(lang)) == 0.0

    def _saved(self, tmp_path):
        path = tmp_path / "encoders.json"
        io.save_encoders(self._estimate(), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("table", ["encoders", "decoders"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("W", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),  # ragged
            ("W", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]),
            ("W", [[1.0, True, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("W", [[1.0, "1.5", 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("W", [1.0, 0.0, 0.0]),  # not a matrix
            ("b", [0.0, float("inf"), 0.0]),
            ("b", [True, 0.0, 0.0]),
            ("b", ["1.5", 0.0, 0.0]),
            ("b", [0.0]),  # does not match W
            ("b", "zero"),
        ],
    )
    def test_bad_field_names_file_language_and_field(self, tmp_path, table, field, value):
        path, payload = self._saved(tmp_path)
        payload[table]["L2"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert f"{table[:-1]} 'L2'" in message
        assert f"'{field}'" in message or "offset dimension" in message

    @pytest.mark.parametrize("table", ["encoders", "decoders"])
    def test_map_of_another_shape_names_file_and_language(self, tmp_path, table):
        path, payload = self._saved(tmp_path)
        entry = payload[table]["L2"]
        entry["W"] = np.transpose(entry["W"]).tolist()
        entry["b"] = [0.0] * len(entry["W"])
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(info.value).startswith(f"{path}: 'L2' has a ")
        assert "every encoder must be d x D and every decoder D x d" in str(info.value)

    @pytest.mark.parametrize(
        "key", ["encoders", "decoders", "spec", "as pairs", "anchor", "unknown"]
    )
    def test_missing_unknown_or_listed_key_names_file_and_key(self, tmp_path, key):
        # the writer writes every key, a null 'spec' too, and no other, so none
        # has a default and none is dropped; the former square-encoder 'anchor' is unknown
        path, payload = self._saved(tmp_path)
        expected = f"encoder document missing key {key!r}"
        if key == "as pairs":
            payload["decoders"] = list(payload["decoders"].items())
            expected = "encoder field 'decoders' must map language ids to maps"
        elif key == "anchor":
            payload["anchor"] = "L0"
            expected = "encoder document has unknown key 'anchor'"
        elif key == "unknown":
            payload["sigma"] = 0.0
            expected = "encoder document has unknown key 'sigma'"
        else:
            del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(info.value) == f"{path}: {expected}"

    def test_tables_of_different_languages_are_schema_error(self, tmp_path):
        path, payload = self._saved(tmp_path)
        del payload["decoders"]["L2"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(info.value) == (
            f"{path}: encoders cover ['L0', 'L1', 'L2'], but decoders cover ['L0', 'L1']"
        )

    @pytest.mark.parametrize(
        "table, field", [("encoders", "W"), ("decoders", "W"), ("decoders", "b")]
    )
    def test_encoder_that_does_not_undo_its_decoder_names_file_and_language(
        self, tmp_path, table, field
    ):
        path, payload = self._saved(tmp_path)
        entry = payload[table]["L2"]
        if field == "W":
            entry["W"][0][0] += 1e-3
        else:
            entry["b"][0] += 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(info.value).startswith(f"{path}: encoder of 'L2' undoes its decoder only")

    @pytest.mark.parametrize("spec", [{}, {"d": "x"}, 5, {"d": 3, "B": math.nan, "rho": 2.0,
                                                         "offset_bound": 1.0}])
    def test_malformed_spec_is_schema_error(self, tmp_path, spec):
        path, payload = self._saved(tmp_path)
        payload["spec"] = spec
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(info.value).startswith(f"{path}: malformed 'spec'")

    @settings(max_examples=80, deadline=None)
    @given(damaged_documents(ENCODER_DOCUMENT, LEAF_REPLACEMENTS + MISTYPED_NUMBER_LEAVES))
    def test_damaged_document_loads_or_is_schema_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "encoders.json"
            path.write_text(json.dumps(payload))
            try:
                _estimate, spec = io.load_encoders(path)
            except SchemaError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)
                return
            assert payload.keys() == {"encoders", "decoders", "spec"}
            assert isinstance(payload["encoders"], dict)
            assert isinstance(payload["decoders"], dict)
            for entry in (*payload["encoders"].values(), *payload["decoders"].values()):
                # only JSON numbers load; 2.0 for 2 or 2 for 2.0 keeps the map
                assert all(
                    type(x) in (int, float)
                    for x in (*np.ravel(entry["W"]).tolist(), *entry["b"])
                )
            if spec is not None:
                assert_json_typed_spec(payload["spec"])


class TestCsvEmission:
    def test_pair_eval_and_sweep_headers(self, tmp_path):
        from translab.evaluation import PairEvalRecord, SweepRow

        record = PairEvalRecord(
            path=("A", "B"), measured_loss=0.5, edge_losses=(0.5,), coefficients=(1.0,)
        )
        pair_path = tmp_path / "pair.csv"
        io.write_pair_eval_csv([record], pair_path)
        lines = pair_path.read_text().splitlines()
        assert lines[0] == "src,dst,path_len,path,measured_loss,rho_hat,bound,holds"
        assert lines[1].startswith("A,B,1,A->B,0.5,")
        assert lines[1].endswith("true")

        sweep_path = tmp_path / "sweep.csv"
        io.write_sweep_csv([SweepRow(32, 0, 0.1, 0.2, 0.1)], sweep_path)
        lines = sweep_path.read_text().splitlines()
        assert lines[0] == "n,trial,empirical_loss,population_loss,gap"

    def test_floats_survive_round_trip(self, tmp_path):
        from translab.evaluation import SweepRow

        value = 0.1234567890123456789
        path = tmp_path / "sweep.csv"
        io.write_sweep_csv([SweepRow(8, 0, value, value, 0.0)], path)
        cell = path.read_text().splitlines()[1].split(",")[2]
        assert float(cell) == float(value)
