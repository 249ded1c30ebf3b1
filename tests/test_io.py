"""Round-trip tests for every file schema."""

import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    CODEC_DOCUMENT,
    ENCODER_DOCUMENT,
    GRAPH_DOCUMENT,
    WORST_CASE_DEFECTS,
    damaged_corpus_fields,
    damaged_documents,
    damaged_instance_documents,
)
from translab import cli, io
from translab.distributions import tv_distance
from translab.errors import SchemaError
from translab.generative import (
    FunctionClassSpec,
    LatentSampler,
    RandomizedCodec,
    TranslationGraph,
    randomized_generate,
    sample_randomized_codecs,
)
from translab.impossibility import (
    make_worst_case,
    random_many_to_many_instance,
    random_two_to_one_instance,
)
from translab.trainer import EncoderEstimate, anchor_spanning_tree, fit_edge
from test_trainer import chain_setup


class TestInstanceRoundTrip:
    def test_two_to_one(self, tmp_path):
        instance = make_worst_case(0.8)
        path = tmp_path / "worst.json"
        io.save_instance(instance, path)
        again = io.load_instance(path)
        assert again.source_languages == instance.source_languages
        assert again.target_language == instance.target_language
        for i in range(2):
            assert tv_distance(again.marginals[i], instance.marginals[i]) <= 1e-12
            for atom in instance.marginals[i].support:
                assert again.translators[i](atom) == instance.translators[i](atom)

    def test_random_two_to_one(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            instance = random_two_to_one_instance(rng)
            path = tmp_path / f"i{i}.json"
            io.save_instance(instance, path)
            again = io.load_instance(path)
            assert tv_distance(again.target_marginal(0), instance.target_marginal(0)) <= 1e-12
            assert tv_distance(again.target_marginal(1), instance.target_marginal(1)) <= 1e-12

    def test_many_to_many(self, tmp_path):
        rng = np.random.default_rng(1)
        instance = random_many_to_many_instance(rng)
        path = tmp_path / "mm.json"
        io.save_instance(instance, path)
        again = io.load_instance(path)
        assert set(again.pairs()) == set(instance.pairs())
        for pair in instance.pairs():
            a = instance.source_marginal(*pair)
            b = again.source_marginal(*pair)
            assert tv_distance(a, b) <= 1e-9
            for atom in a.support:
                assert again.translators[pair](atom) == instance.translators[pair](atom)
        assert again.sentence_pool == instance.sentence_pool

    def test_distributions_key_alias(self, tmp_path):
        instance = make_worst_case(0.5)
        payload = io.instance_to_dict(instance)
        payload["distributions"] = payload.pop("marginals")
        path = tmp_path / "alias.json"
        path.write_text(json.dumps(payload))
        again = io.load_instance(path)
        assert tv_distance(again.marginals[0], instance.marginals[0]) <= 1e-12

    def test_missing_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"languages": ["A"]}))
        with pytest.raises(SchemaError):
            io.load_instance(path)

    def test_dangling_translator_image_is_schema_error(self, tmp_path):
        payload = io.instance_to_dict(make_worst_case(0.5))
        payload["translators"]["L0->L"]["a0"] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
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


class TestInstanceDefects:
    @pytest.mark.parametrize("defect", sorted(WORST_CASE_DEFECTS))
    def test_defect_is_schema_error_naming_the_file(self, tmp_path, defect):
        damage, message = WORST_CASE_DEFECTS[defect]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(damage(io.instance_to_dict(make_worst_case(0.5)))))
        with pytest.raises(SchemaError, match=re.escape(message)) as exc:
            io.load_instance(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_many_to_many_raw_weight_names_language_and_index(self, tmp_path, bad):
        # each pair conditions the raw weights on its target, so a single-atom
        # pair would turn any raw weight into 1.0 (or NaN/NaN) unchecked
        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(1)))
        lang = payload["languages"][0]
        payload["marginals"][lang][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"marginal for '{lang}' weight 0"):
            io.load_instance(path)

    @pytest.mark.parametrize("tag", [None, ["L2"], "L9"])
    def test_bad_target_tag_names_the_sentence(self, tmp_path, tag):
        # str() used to turn a null or list tag into a new language's name, so
        # the sentence left its pair and the pair's marginal changed silently
        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(12)))
        assert payload["sentences"]["L0"][2] == ["L2", "s1"]
        payload["sentences"]["L0"][2][0] = tag
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="'L0'"):
            io.load_instance(path)

    @settings(max_examples=300, deadline=None)
    @given(damaged_instance_documents())
    def test_damaged_document_loads_or_is_schema_error(self, payload):
        try:
            io.instance_from_dict(payload)
        except SchemaError:
            pass

class TestGraphAndCodecFiles:
    def test_graph_round_trip(self, tmp_path):
        graph = TranslationGraph(("A", "B", "C"), (("A", "B", 10), ("B", "C", 20)))
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
            assert np.allclose(codecs2[lang].W, codecs[lang].W)
            assert np.allclose(codecs2[lang].b, codecs[lang].b)

    def test_randomized_codecs_round_trip(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 2, 0.1, seed=0)))
        path = tmp_path / "codecs.json"
        io.save_codecs(codecs, spec, path)
        _spec2, codecs2 = io.load_codecs(path)
        assert isinstance(codecs2["A"], RandomizedCodec)
        assert codecs2["A"].sigma == 0.1 and codecs2["A"].nuisance_dim == 2
        assert np.allclose(codecs2["A"].W, codecs["A"].W)

    def test_codecs_with_mixed_noise_settings_are_rejected(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        noisy = sample_randomized_codecs(spec, 1, 2, 0.1, seed=0)[0]
        plain = sample_randomized_codecs(spec, 1, 0, 0.0, seed=0)[0]
        with pytest.raises(ValueError, match="share one sigma"):
            io.save_codecs({"A": noisy, "B": plain}, spec, tmp_path / "codecs.json")

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


class TestGraphDefects:
    @pytest.mark.parametrize(
        "edge, expected",
        [
            ({"a": "L0", "b": "L1", "n": "x"}, "edge L0->L1 has n='x'"),
            ({"a": "L0", "b": "L1", "n": math.nan}, "edge L0->L1 has n=nan"),
            ({"a": "L0", "b": "L1", "n": 1.5}, "edge L0->L1 has n=1.5"),
            ({"a": "L0", "b": "L1", "n": True}, "edge L0->L1 has n=True"),
            ({"a": "L0", "b": "L1", "n": -1}, "edge L0->L1 has n=-1"),
            ({"a": "L0", "b": 1, "n": 4}, "edge 0 needs language ids"),
            (["L0", "L1", 4], "edge 0 is not an object"),
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
            ({"languages": ["L0"]}, "'edges' list"),
            ([], "'languages' list"),
            ({"languages": ["L0", "L0"], "edges": []}, "duplicate language ids"),
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


class TestCodecDefects:
    @pytest.mark.parametrize(
        "field, value",
        [("W", math.inf), ("W", math.nan), ("b", math.inf), ("b", -math.inf)],
    )
    def test_non_finite_entry_names_file_codec_and_field(self, tmp_path, field, value):
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
        assert str(info.value) == f"{path}: codec 'L1' field '{field}' has a non-finite entry"

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_names_file_and_field(self, tmp_path, sigma):
        payload = dict(CODEC_DOCUMENT, sigma=sigma)
        path = tmp_path / "codecs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_codecs(path)
        assert str(info.value).startswith(f"{path}: codec field 'sigma' is not finite")

    @settings(max_examples=80, deadline=None)
    @given(damaged_documents(CODEC_DOCUMENT))
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
                assert np.isfinite(codec.sigma) and np.all(np.isfinite(codec.W))
            assert all(np.isfinite([spec.radius, spec.rho, spec.offset_bound]))


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        spec = FunctionClassSpec(dim=3)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, 0, 0.0, seed=0)))
        corpus = randomized_generate(("A", "B"), codecs, 32, LatentSampler(3, 1.0, 0), seed=1)
        path = tmp_path / io.corpus_filename(("A", "B"))
        io.save_corpus(corpus, path)
        again = io.load_corpus(path)
        assert again.edge == corpus.edge
        assert np.array_equal(again.pairs, corpus.pairs)
        assert again.meta == corpus.meta

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

    def test_corpus(self, tmp_path, monkeypatch):
        corpus = self._corpus()
        path = tmp_path / io.corpus_filename(("A", "B"))
        io.save_corpus(corpus, path)
        before = path.read_bytes()

        def failing_savez(fh, **arrays):
            fh.write(b"PK partial")
            raise self.Boom

        monkeypatch.setattr(io.np, "savez", failing_savez)
        with pytest.raises(self.Boom):
            io.save_corpus(corpus, path)
        self._assert_unchanged(path, before)

    def test_corpus_keeps_the_given_name(self, tmp_path):
        corpus = self._corpus()
        path = tmp_path / "corpus.bin"
        io.save_corpus(corpus, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.bin"]
        assert np.array_equal(io.load_corpus(path).pairs, corpus.pairs)


class TestEncoderFiles:
    def test_round_trip(self, tmp_path):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L0")
        path = tmp_path / "encoders.json"
        io.save_encoders(estimate, path, spec=FunctionClassSpec(dim=3))
        again, spec = io.load_encoders(path)
        assert isinstance(again, EncoderEstimate)
        assert again.anchor == "L0"
        assert spec == FunctionClassSpec(dim=3)
        for lang in estimate.languages:
            assert again.encoder(lang).max_entry_difference(estimate.encoder(lang)) == 0.0

    def _saved(self, tmp_path):
        graph, _codecs, corpora, _ = chain_setup(n_langs=3)
        estimate = anchor_spanning_tree(graph, [fit_edge(c) for c in corpora], "L0")
        path = tmp_path / "encoders.json"
        io.save_encoders(estimate, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("W", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # not square
            ("W", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),  # ragged
            ("W", [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]),
            ("b", [0.0, float("inf"), 0.0]),
            ("b", [0.0, 0.0]),  # does not match W
            ("b", "zero"),
        ],
    )
    def test_bad_field_names_file_language_and_field(self, tmp_path, field, value):
        path, payload = self._saved(tmp_path)
        payload["encoders"]["L2"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        message = str(info.value)
        assert str(path) in message
        assert "'L2'" in message
        assert f"'{field}'" in message or "'W' and a matching 'b'" in message

    def test_missing_encoders_key_is_schema_error(self, tmp_path):
        path = tmp_path / "encoders.json"
        path.write_text(json.dumps({"anchor": "L0"}))
        with pytest.raises(SchemaError, match="malformed encoder document"):
            io.load_encoders(path)

    def test_encoders_of_different_dimension_are_schema_error(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["encoders"]["L2"] = {"W": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="disagree on dimension"):
            io.load_encoders(path)

    def test_singular_encoder_names_file_and_language(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["encoders"]["L2"]["W"] = [[0.0] * 3] * 3
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            io.load_encoders(path)
        assert str(path) in str(info.value) and "'L2'" in str(info.value)

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
    @given(damaged_documents(ENCODER_DOCUMENT))
    def test_damaged_document_loads_or_is_schema_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "encoders.json"
            path.write_text(json.dumps(payload))
            try:
                io.load_encoders(path)
            except SchemaError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)

    def test_anchor_not_identity_is_schema_error(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["encoders"]["L0"]["b"] = [0.5, 0.0, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="identity"):
            io.load_encoders(path)


class TestCsvEmission:
    def test_pair_eval_and_sweep_headers(self, tmp_path):
        from translab.evaluation import PairEvalRecord, SweepRow

        record = PairEvalRecord(
            src="A", dst="B", path=("A", "B"), path_len=1,
            measured_loss=0.5, edge_losses=(0.5,),
            rho_hat=1.0, bound=1.0, holds=True,
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
