"""CLI behavior: validation, subcommands, exit codes, reproducibility."""

import json
import math
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import WORST_CASE_DEFECTS, damaged_instance_documents
from translab import cli, io
from translab.evaluation import shortest_path_and_diameter
from translab.generative import AlignedCorpus, TranslationGraph, six_language_demo_graph
from translab.impossibility import MAX_Z_SIZE, make_worst_case


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAndValidate:
    def test_minimal_bound_config(self, tmp_path):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        config = cli.parse_and_validate(["bound", "--instance", str(instance)])
        assert config.mode == "bound"
        assert config.epsilon == 0.0

    def test_negative_epsilon_names_the_field(self, tmp_path):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(
                ["bound", "--instance", str(instance), "--epsilon", "-0.1"]
            )
        assert any("epsilon" in v for v in exc.value.violations)

    def test_unsorted_n_list_names_the_field(self, tmp_path):
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(
                ["sweep", "--n-list", "64,32", "--out", str(tmp_path)]
            )
        assert any("n_list" in v for v in exc.value.violations)

    def test_all_violations_are_collected(self, tmp_path):
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(
                ["sweep", "--n-list", "64,32", "--trials", "2", "--out", str(tmp_path)]
            )
        fields = " ".join(exc.value.violations)
        assert "n_list" in fields and "trials" in fields

    @pytest.mark.parametrize("z_size", [0, MAX_Z_SIZE + 1])
    def test_z_size_outside_the_search_budget_is_a_violation(self, tmp_path, z_size):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(
                ["brute", "--instance", str(instance), "--z-size", str(z_size)]
            )
        assert f"z_size: must lie in [1, {MAX_Z_SIZE}], got {z_size}" in exc.value.violations

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "mode, flag",
        [
            ("bound", "--epsilon"),
            ("brute", "--epsilon"),
            ("demo-worst-case", "--delta"),
            ("generate", "--radius"),
            ("generate", "--rho"),
            ("generate", "--offset-bound"),
            ("generate", "--sigma"),
            ("train", "--ridge"),
            ("eval", "--holds-allowance"),
            ("sweep", "--sigma"),
        ],
    )
    def test_non_finite_float_flag_exits_2(self, tmp_path, capsys, mode, flag, value):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        graph = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 10),)), graph)
        inputs = {
            "bound": ["--instance", str(instance)],
            "brute": ["--instance", str(instance)],
            "demo-worst-case": [] if flag == "--delta" else ["--delta", "0.5"],
            "generate": ["--graph", str(graph)],
            "train": ["--graph", str(graph), "--corpus-dir", str(tmp_path)],
            "eval": ["--graph", str(graph), "--codecs", str(graph),
                     "--encoders", str(graph)],
            "sweep": [],
        }[mode]
        out = tmp_path / "run"
        code, _, err = run_cli(
            [mode, *inputs, f"{flag}={value}", "--out", str(out)], capsys
        )
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert f"invalid: {name}: must be finite, got {float(value)}" in err
        assert not out.exists()

    def test_missing_file_is_a_violation(self):
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(["bound", "--instance", "/nonexistent.json"])
        assert any("instance" in v for v in exc.value.violations)


class TestBoundAndBrute:
    def test_bound_on_worst_case_instance(self, tmp_path, capsys):
        instance = tmp_path / "worst08.json"
        io.save_instance(make_worst_case(0.8), instance)
        code, out, _ = run_cli(
            ["bound", "--instance", str(instance), "--epsilon", "0"], capsys
        )
        assert code == 0
        assert "bound_sum=0.8" in out

    def test_brute_verifies_and_writes_reports(self, tmp_path, capsys):
        instance = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.6), instance)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            [
                "brute", "--instance", str(instance), "--epsilon", "0",
                "--z-size", "2", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        assert "holds=true" in out
        report = json.loads((out_dir / "brute_report.json").read_text())
        assert report["report"]["holds"] is True
        assert (out_dir / "brute_report.csv").exists()

    def test_invalid_flag_exits_2(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        code, _, err = run_cli(
            ["bound", "--instance", str(instance), "--epsilon", "-1"], capsys
        )
        assert code == 2
        assert "epsilon" in err

    def test_many_to_many_bound_and_brute(self, tmp_path, capsys):
        import numpy as np

        from translab.impossibility import random_many_to_many_instance

        instance = random_many_to_many_instance(np.random.default_rng(12))
        path = tmp_path / "mm.json"
        io.save_instance(instance, path)
        code, out, _ = run_cli(["bound", "--instance", str(path)], capsys)
        assert code == 0
        assert "bound_max=" in out and "bound_avg=" in out
        code, out, _ = run_cli(
            ["brute", "--instance", str(path), "--z-size", "3", "--objective", "max"],
            capsys,
        )
        assert code == 0
        assert "holds=true" in out

    @pytest.mark.parametrize("objective", ["max", "avg"])
    def test_brute_two_to_one_other_objective_exits_2(self, tmp_path, capsys, objective):
        path = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.5), path)
        code, _, err = run_cli(
            ["brute", "--instance", str(path), "--objective", objective], capsys
        )
        assert code == 2
        assert err.startswith("error:") and f"'{objective}'" in err

    def test_brute_without_pairs_exits_2(self, tmp_path, capsys):
        import numpy as np

        from translab.impossibility import random_many_to_many_instance

        path = tmp_path / "mm.json"
        io.save_instance(random_many_to_many_instance(np.random.default_rng(12)), path)
        payload = json.loads(path.read_text())
        payload["translators"] = {}
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["brute", "--instance", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "no translation pairs" in err


class TestMalformedInstanceFiles:
    @pytest.mark.parametrize("mode", ["bound", "brute"])
    @pytest.mark.parametrize("defect", sorted(WORST_CASE_DEFECTS))
    def test_defect_exits_2_naming_the_file(self, tmp_path, capsys, mode, defect):
        damage, message = WORST_CASE_DEFECTS[defect]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(damage(io.instance_to_dict(make_worst_case(0.5)))))
        code, out, err = run_cli([mode, "--instance", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and message in err

    def test_many_to_many_nan_weight_exits_2(self, tmp_path, capsys):
        from translab.impossibility import random_many_to_many_instance

        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(12)))
        payload["marginals"]["L0"][0] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["bound", "--instance", str(path)], capsys)
        assert code == 2
        assert "bound_max" not in out
        assert "marginal for 'L0' weight 0" in err

    @settings(max_examples=40, deadline=None)
    @given(damaged_instance_documents())
    def test_bound_and_brute_exit_0_or_2_on_damaged_files(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            path.write_text(json.dumps(payload))
            for mode in ("bound", "brute"):
                with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                    assert cli.main([mode, "--instance", str(path)]) in (0, 2)


class TestDemoWorstCase:
    def test_delta_08(self, capsys):
        code, out, _ = run_cli(
            ["demo-worst-case", "--delta", "0.8", "--epsilon", "0"], capsys
        )
        assert code == 0
        assert "bound_sum=0.8" in out

    def test_delta_zero(self, capsys):
        code, out, _ = run_cli(
            ["demo-worst-case", "--delta", "0", "--epsilon", "0"], capsys
        )
        assert code == 0
        assert "bound_sum=0" in out


class TestPipeline:
    def _write_graph(self, path, n=40):
        graph = TranslationGraph(
            ("L0", "L1", "L2"), (("L0", "L1", n), ("L1", "L2", n))
        )
        io.save_graph(graph, path)

    def test_generate_train_eval(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        code, _, _ = run_cli(
            [
                "generate", "--graph", str(graph_path), "--out", str(out),
                "--dim", "2", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            [
                "train", "--graph", str(graph_path), "--corpus-dir", str(out),
                "--out", str(out), "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        code, out_text, _ = run_cli(
            [
                "eval", "--graph", str(graph_path),
                "--codecs", str(out / "codecs.json"),
                "--encoders", str(out / "encoders.json"),
                "--out", str(out), "--samples", "2000", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert "holds=true" in out_text
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["holds_false"] == 0
        assert summary["seed"] == 5

    def test_eval_on_disconnected_graph_exits_2(self, tmp_path, capsys):
        graph = TranslationGraph(("L0", "L1", "L2"), (("L0", "L1", 10),))
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
            capsys,
        )
        code, _, err = run_cli(
            [
                "eval", "--graph", str(graph_path),
                "--codecs", str(out / "codecs.json"),
                "--encoders", str(out / "encoders.json"),
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 2
        assert "connected" in err

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                ["generate", "--graph", str(graph_path), "--out", str(out),
                 "--dim", "2", "--sigma", "0.05", "--nuisance-dim", "1",
                 "--seed", "11"],
                capsys,
            )
            run_cli(
                ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
                 "--out", str(out), "--seed", "11"],
                capsys,
            )
            run_cli(
                ["eval", "--graph", str(graph_path),
                 "--codecs", str(out / "codecs.json"),
                 "--encoders", str(out / "encoders.json"),
                 "--out", str(out), "--samples", "2000", "--seed", "11"],
                capsys,
            )
            outputs.append(out)
        for filename in ("edge_losses.csv", "pair_eval.csv"):
            a = (outputs[0] / filename).read_bytes()
            b = (outputs[1] / filename).read_bytes()
            assert a == b


    def _generate_and_train(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        code, _, _ = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        return graph_path, out

    def _eval(self, graph_path, out, capsys):
        return run_cli(
            ["eval", "--graph", str(graph_path),
             "--codecs", str(out / "codecs.json"),
             "--encoders", str(out / "encoders.json"),
             "--out", str(out), "--samples", "1000"],
            capsys,
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("W", [[1.0, 0.0]]),
            ("W", [[1.0, 0.0], [0.0]]),
            ("W", [[1.0, 0.0], [0.0, float("nan")]]),
            ("b", [float("inf"), 0.0]),
        ],
    )
    def test_eval_with_bad_encoder_exits_2(self, tmp_path, capsys, field, value):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        encoders_path = out / "encoders.json"
        payload = json.loads(encoders_path.read_text())
        payload["encoders"]["L1"][field] = value
        encoders_path.write_text(json.dumps(payload))
        code, _, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert str(encoders_path) in err
        assert "'L1'" in err and f"'{field}'" in err

    def test_generate_with_an_empty_edge_exits_2_before_writing(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        io.save_graph(
            TranslationGraph(
                ("L0", "L1", "L2"), (("L0", "L1", 40), ("L1", "L2", 0))
            ),
            graph_path,
        )
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {graph_path}: edge L1->L2 has n=0")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["x", math.nan, 1.5])
    def test_generate_with_a_malformed_edge_count_exits_2(self, tmp_path, capsys, n):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(
            json.dumps({"languages": ["L0", "L1"], "edges": [{"a": "L0", "b": "L1", "n": n}]})
        )
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {graph_path}: edge L0->L1 has n={n!r}; n must be a non-negative integer\n"
        )
        assert not out.exists()

    def test_train_on_overflowing_entries_exits_2_naming_file_and_edge(self, tmp_path, capfd):
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 20),)), graph_path)
        path = tmp_path / io.corpus_filename(("L0", "L1"))
        pairs = np.random.default_rng(0).random((20, 2, 2)) * 1e200
        io.save_corpus(AlignedCorpus(("L0", "L1"), pairs, {}), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(
                ["train", "--graph", str(graph_path), "--corpus-dir", str(tmp_path),
                 "--out", str(tmp_path / "run")]
            )
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: edge L0->L1: normal equations overflow:"
            f" the largest entry magnitude is {pairs.max():.3g}\n"
        )

    def test_train_rejects_corpus_for_another_edge(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        copied = out / io.corpus_filename(("L1", "L2"))
        copied.write_bytes((out / io.corpus_filename(("L0", "L1"))).read_bytes())
        code, _, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert str(copied) in err
        assert "('L0', 'L1')" in err and "('L1', 'L2')" in err

    @pytest.mark.parametrize(
        "defect, field",
        [("nan", "pairs"), ("shape", "pairs"), ("meta", "meta"), ("not_npz", None)],
    )
    def test_train_with_bad_corpus_exits_2(self, tmp_path, capsys, defect, field):
        import numpy as np

        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        path = out / io.corpus_filename(("L0", "L1"))
        if defect == "not_npz":
            path.write_text("not an npz file")
        else:
            with np.load(path) as npz:
                fields = {name: npz[name] for name in npz.files}
            if defect == "nan":
                fields["pairs"] = fields["pairs"].copy()
                fields["pairs"][0, 0, 0] = np.nan
            elif defect == "shape":
                fields["pairs"] = fields["pairs"][:, 0, :]
            else:
                fields["meta"] = np.array("{not json")
            np.savez(path, **fields)
        code, _, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert str(path) in err
        assert field is None or f"'{field}'" in err

    def test_eval_with_codecs_of_wrong_latent_dimension_exits_2(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        payload["spec"]["d"] = 3
        codecs_path.write_text(json.dumps(payload))
        code, _, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert str(codecs_path) in err and "'L0'" in err and "latent dimension" in err

    @pytest.mark.parametrize(
        "field, value",
        [("b", math.inf), ("W", math.nan), ("sigma", math.nan), ("sigma", math.inf)],
    )
    def test_eval_with_non_finite_codecs_exits_2(self, tmp_path, capsys, field, value):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        if field == "sigma":
            payload["sigma"] = value
        else:
            payload["codecs"]["L1"][field][0] = value if field == "b" else [value, 0.0]
        codecs_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {codecs_path}: codec ")
        assert f"'{field}'" in err and (field == "sigma" or "'L1'" in err)
        assert not (out / "pair_eval.csv").exists()

    @pytest.mark.parametrize("spec", [{}, {"d": "x"}, 5])
    def test_eval_with_malformed_encoder_spec_exits_2(self, tmp_path, capsys, spec):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        encoders_path = out / "encoders.json"
        payload = json.loads(encoders_path.read_text())
        payload["spec"] = spec
        encoders_path.write_text(json.dumps(payload))
        code, _, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert err.startswith(f"error: {encoders_path}: malformed 'spec'")

    def test_eval_summary_reports_the_graph_diameter(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        code, _, _ = self._eval(graph_path, out, capsys)
        assert code == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        _paths, diameter = shortest_path_and_diameter(io.load_graph(graph_path))
        assert summary["diameter"] == diameter == 2

    def test_eval_pair_table_does_not_depend_on_seed_or_samples(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2",
             "--sigma", "0.05", "--nuisance-dim", "1", "--seed", "4"],
            capsys,
        )
        run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out), "--seed", "4"],
            capsys,
        )
        tables = []
        for seed, samples in (("1", "2000"), ("2", "10")):
            eval_out = tmp_path / f"eval-{seed}"
            code, _, _ = run_cli(
                ["eval", "--graph", str(graph_path),
                 "--codecs", str(out / "codecs.json"),
                 "--encoders", str(out / "encoders.json"),
                 "--out", str(eval_out), "--seed", seed, "--samples", samples],
                capsys,
            )
            assert code == 0
            tables.append((eval_out / "pair_eval.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_mc_slack_flag_exits_2(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["eval", "--graph", str(graph_path),
                 "--codecs", str(out / "codecs.json"),
                 "--encoders", str(out / "encoders.json"),
                 "--out", str(out), "--mc-slack", "0.05"]
            )
        assert exc.value.code == 2
        assert "--mc-slack" in capsys.readouterr().err


class TestStreamingMemory:
    """``generate`` and ``train`` hold about one edge's corpus at a time.

    Peaks are traced numpy and Python allocations, in units of one corpus's
    ``pairs`` array. Holding every corpus of the six edges at once reads
    about 3.1 for ``generate`` and 7.1 for ``train``.
    """

    N = 20_000
    DIM = 6

    def _peak(self, argv) -> float:
        tracemalloc.start()
        try:
            with redirect_stdout(StringIO()):
                assert cli.main(argv) == 0
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (self.N * 2 * self.DIM * 8)

    def test_generate_and_train_peaks(self, tmp_path):
        graph_path = tmp_path / "graph.json"
        io.save_graph(six_language_demo_graph(self.N), graph_path)
        out = tmp_path / "run"
        generate_peak = self._peak(
            ["generate", "--graph", str(graph_path), "--dim", str(self.DIM),
             "--out", str(out)]
        )
        train_peak = self._peak(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)]
        )
        assert generate_peak < 2.5
        assert train_peak < 2.0


class TestSweepCommand:
    def test_small_sweep_writes_slope(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, out_text, _ = run_cli(
            [
                "sweep", "--n-list", "16,32,64", "--trials", "5",
                "--dim", "1", "--nuisance-dim", "1", "--sigma", "0.1",
                "--seed", "3", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "slope=" in out_text
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["degenerate"] is False
        assert (out / "sweep.csv").exists()
