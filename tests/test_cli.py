"""CLI behavior: validation, subcommands, exit codes, reproducibility."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    WORST_CASE_DEFECTS,
    assert_gram_of_rows,
    assert_same_bits,
    corpus_pairs,
    damaged_instance_documents,
    empirical_edge_loss,
    read_pairs,
    rows_of_pairs,
    savez_corpus,
    whole_array_pairs,
    worst_case_defect_text,
    write_pairs,
)
from translab import cli, io, trainer
from translab.evaluation import sample_complexity_sweep, shortest_path_and_diameter
from translab.errors import DomainError
from translab.generative import (
    ROW_BLOCK,
    EdgeDraws,
    FunctionClassSpec,
    LatentSampler,
    TranslationGraph,
    randomized_generate,
    sample_randomized_codecs,
    six_language_demo_graph,
)
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

    def test_train_has_no_ridge_flag(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 10),)), graph)
        with pytest.raises(SystemExit) as exc:
            cli.parse_and_validate(
                ["train", "--graph", str(graph), "--corpus-dir", str(tmp_path),
                 "--out", str(tmp_path / "run"), "--ridge", "1e-10"]
            )
        assert exc.value.code == 2
        assert "--ridge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flag",
        [("train", "--anchor"), ("bound", "--instance-id"), ("brute", "--instance-id")],
    )
    def test_removed_flags_exit_2(self, tmp_path, capsys, mode, flag):
        graph = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 10),)), graph)
        instance = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.5), instance)
        inputs = {
            "train": ["--graph", str(graph), "--corpus-dir", str(tmp_path),
                      "--out", str(tmp_path / "run")],
            "bound": ["--instance", str(instance)],
            "brute": ["--instance", str(instance)],
        }
        with pytest.raises(SystemExit) as exc:
            cli.parse_and_validate([mode, *inputs[mode], flag, "L1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_generate_without_out_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 10),)), graph)
        code, out, err = run_cli(["generate", "--graph", str(graph)], capsys)
        assert code == 2
        assert out == ""
        assert err == "invalid: out: required for this mode\n"

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "file-sub"])
    @pytest.mark.parametrize("mode", cli._RUNNERS)
    def test_out_through_a_file_exits_2_naming_it(self, tmp_path, capsys, mode, under_file):
        instance = tmp_path / "i.json"
        io.save_instance(make_worst_case(0.5), instance)
        graph = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 10),)), graph)
        inputs = {
            "bound": ["--instance", str(instance)],
            "brute": ["--instance", str(instance)],
            "demo-worst-case": ["--delta", "0.5"],
            "generate": ["--graph", str(graph)],
            "train": ["--graph", str(graph), "--corpus-dir", str(tmp_path)],
            "eval": ["--graph", str(graph), "--codecs", str(graph),
                     "--encoders", str(graph)],
            "sweep": [],
        }[mode]
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        out = blocker / "sub" if under_file else blocker
        code, stdout, err = run_cli([mode, *inputs, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"invalid: out: not a directory: {blocker}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a directory\n"

    def test_non_integer_n_list_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["sweep", "--n-list", "32,abc", "--out", str(tmp_path / "sweep")], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "invalid: n_list: entries must be integers\n"
        assert not (tmp_path / "sweep").exists()

    def test_missing_file_is_a_violation(self):
        with pytest.raises(cli.ValidationFailure) as exc:
            cli.parse_and_validate(["bound", "--instance", "/nonexistent.json"])
        assert any("instance" in v for v in exc.value.violations)


class TestParserReuse:
    """One parser serves every ``cli.main`` call in a process and keeps no call's state."""

    @staticmethod
    def _call(argv, capsys, out=None):
        """Exit code, stdout, stderr and the bytes of each file written under ``out``."""
        try:
            code = cli.main(argv if out is None else [*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out else {}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize(
        "first, second, setting",
        [
            (["brute", "--objective", "max"], ["brute"], ("objective", "sum")),
            (["bound", "--epsilon", "0.3"], ["bound"], ("epsilon", 0.0)),
            (["brute", "--z-size", "0"], ["brute"], ("z_size", 2)),
            (["brute", "--z-size", "x"], ["brute"], ("z_size", 2)),
        ],
    )
    def test_a_call_leaves_no_state_for_the_next(
        self, tmp_path, capsys, first, second, setting
    ):
        instance = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.6), instance)

        def argv(words):
            return [words[0], "--instance", str(instance), *words[1:]]

        cli._build_parser.cache_clear()
        fresh = self._call(argv(second), capsys, tmp_path / "fresh")
        cli._build_parser.cache_clear()
        before = self._call(argv(first), capsys, tmp_path / "first")
        after = self._call(argv(second), capsys, tmp_path / "reused")
        assert before[:2] != fresh[:2]
        if "--z-size" in first:
            assert before[0] == 2 and before[3] == {}
        assert fresh[0] == 0 and fresh[3]
        assert after == fresh
        name, default = setting
        assert getattr(cli.parse_and_validate(argv(second)), name) == default

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            (["--help"], 0, "usage: translab [-h]"),
            (["brute", "--help"], 0, "usage: translab brute [-h]"),
            (["brute", "--z-size", "x"], 2, "argument --z-size: invalid int value: 'x'"),
        ],
    )
    def test_help_and_parse_errors_repeat_exactly(self, capsys, argv, code, text):
        cli._build_parser.cache_clear()
        first = self._call(argv, capsys)
        assert first[0] == code and text in first[1] + first[2]
        assert self._call(argv, capsys) == first

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        instance = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.6), instance)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        for argv in (
            ["bound", "--instance", str(instance)],
            ["brute", "--instance", str(instance), "--objective", "max"],
            ["brute", "--instance", str(instance), "--z-size", "0"],
            ["bound", "--instance", str(instance), "--epsilon", "0.3"],
        ):
            run_cli(argv, capsys)
        # The top-level parser and one per mode, all from the first call.
        assert len(built) == 1 + len(cli._RUNNERS)


class TestBoundAndBrute:
    def test_bound_on_worst_case_instance(self, tmp_path, capsys):
        instance = tmp_path / "worst08.json"
        io.save_instance(make_worst_case(0.8), instance)
        code, out, _ = run_cli(
            ["bound", "--instance", str(instance), "--epsilon", "0"], capsys
        )
        assert code == 0
        assert out == "bound_sum=0.8 bound_max=0.4 bound_avg=0.0444444\n"

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
        assert "bound_sum=" in out and "bound_max=" in out and "bound_avg=" in out
        code, out, _ = run_cli(
            ["brute", "--instance", str(path), "--z-size", "3", "--objective", "max"],
            capsys,
        )
        assert code == 0
        assert "holds=true" in out

    def test_brute_with_one_representation_is_infeasible(self, tmp_path, capsys):
        from translab.impossibility import random_many_to_many_instance

        instance = random_many_to_many_instance(np.random.default_rng(12))
        assert instance.K == 3
        path = tmp_path / "mm.json"
        io.save_instance(instance, path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["brute", "--instance", str(path), "--z-size", "1", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert out == "objective=sum infeasible=true z_size=1\n"
        report = json.loads((out_dir / "brute_report.json").read_text())["report"]
        assert report["instance_id"] == "mm"

    @pytest.mark.parametrize("objective", ["max", "avg"])
    def test_brute_two_to_one_other_objective_holds(self, tmp_path, capsys, objective):
        path = tmp_path / "worst.json"
        io.save_instance(make_worst_case(0.5), path)
        code, out, _ = run_cli(
            ["brute", "--instance", str(path), "--objective", objective], capsys
        )
        assert code == 0
        assert out.startswith(f"objective={objective} ") and "holds=true" in out

    def test_bound_reads_a_handwritten_two_source_document(self, tmp_path, capsys):
        path = tmp_path / "two_source.json"
        path.write_text(
            """{
  "languages": ["L0", "L1", "L"],
  "pools": {"L0": [], "L1": [], "L": ["y0", "y1"]},
  "pairs": {"L0->L": [["a0", 0.75, "y0"], ["a1", 0.25, "y1"]],
            "L1->L": [["b0", 0.25, "y0"], ["b1", 0.75, "y1"]]}
}
"""
        )
        code, out, _ = run_cli(["bound", "--instance", str(path)], capsys)
        assert code == 0
        assert out.startswith("bound_sum=0.5 ")

    def test_brute_without_pairs_exits_2(self, tmp_path, capsys):
        import numpy as np

        from translab.impossibility import random_many_to_many_instance

        path = tmp_path / "mm.json"
        io.save_instance(random_many_to_many_instance(np.random.default_rng(12)), path)
        payload = json.loads(path.read_text())
        payload["pairs"] = {}
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["brute", "--instance", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "no translation pairs" in err


class TestMalformedInstanceFiles:
    @pytest.mark.parametrize("mode", ["bound", "brute"])
    @pytest.mark.parametrize("defect", sorted(WORST_CASE_DEFECTS))
    def test_defect_exits_2_naming_the_file(self, tmp_path, capsys, mode, defect):
        message = WORST_CASE_DEFECTS[defect][1]
        path = tmp_path / "bad.json"
        path.write_text(worst_case_defect_text(defect))
        code, out, err = run_cli([mode, "--instance", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and message in err

    def test_many_to_many_nan_weight_exits_2(self, tmp_path, capsys):
        from translab.impossibility import random_many_to_many_instance

        payload = io.instance_to_dict(random_many_to_many_instance(np.random.default_rng(12)))
        payload["pairs"]["L0->L2"][0][1] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["bound", "--instance", str(path)], capsys)
        assert code == 2
        assert "bound_max" not in out
        assert "pair 'L0->L2' row 0: weight" in err

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

    @pytest.mark.parametrize("mode", ["train", "train-without-corpora", "eval"])
    def test_disconnected_graph_exits_2_before_reading_inputs(self, tmp_path, capsys, mode):
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1", "L2"), (("L0", "L1", 10),)), graph_path)
        run, empty = tmp_path / "run", tmp_path / "empty"
        empty.mkdir()
        code, _, _ = run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(run), "--dim", "2"], capsys
        )
        assert code == 0
        # eval gets codec and encoder files that are not JSON: reading one would fail
        for name in ("codecs.json", "encoders.json"):
            (tmp_path / name).write_text("{nope")
        inputs = {
            "train": ["--corpus-dir", str(run)],
            "train-without-corpora": ["--corpus-dir", str(empty)],
            "eval": ["--codecs", str(tmp_path / "codecs.json"),
                     "--encoders", str(tmp_path / "encoders.json")],
        }[mode]
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            [mode.split("-")[0], "--graph", str(graph_path), *inputs, "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: {graph_path}: translation graph is not connected\n"
        assert not out.exists()

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
            ("W", [[1.0, True], [0.0, 1.0]]),
            ("W", [[1.0, 0.0], [0.0]]),
            ("W", [[1.0, 0.0], [0.0, float("nan")]]),
            ("b", [float("inf"), 0.0]),
            ("b", ["1.5", 0.0]),
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

    @pytest.mark.parametrize("mode", ["generate", "train", "eval"])
    def test_graph_without_languages_exits_2_naming_the_file(self, tmp_path, capsys, mode):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps({"languages": [], "edges": []}))
        inputs = {
            "generate": [],
            "train": ["--corpus-dir", str(tmp_path)],
            "eval": ["--codecs", str(graph_path), "--encoders", str(graph_path)],
        }[mode]
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            [mode, "--graph", str(graph_path), *inputs, "--out", str(out)], capsys
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: {graph_path}: graph document lists no languages\n"
        assert not out.exists()

    def test_train_on_a_graph_without_edges_exits_2_naming_the_file(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0",), ()), graph_path)
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        assert code == 0
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(tmp_path / "trained")],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: {graph_path}: graph has no edges; train needs at least one\n"
        assert not (tmp_path / "trained").exists()

    def test_eval_on_a_single_language_graph_exits_2_naming_the_file(self, tmp_path, capsys):
        pair_graph = tmp_path / "pair.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 20),)), pair_graph)
        run = tmp_path / "run"
        for argv in (
            ["generate", "--graph", str(pair_graph), "--out", str(run), "--dim", "2"],
            ["train", "--graph", str(pair_graph), "--corpus-dir", str(run), "--out", str(run)],
        ):
            assert run_cli(argv, capsys)[0] == 0
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0",), ()), graph_path)
        out = tmp_path / "evaluated"
        code, stdout, err = run_cli(
            ["eval", "--graph", str(graph_path), "--codecs", str(run / "codecs.json"),
             "--encoders", str(run / "encoders.json"), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {graph_path}: graph has fewer than two languages; eval needs at least two\n"
        )
        assert not out.exists()

    def test_train_on_overflowing_entries_exits_2_naming_file_and_edge(self, tmp_path, capfd):
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 20),)), graph_path)
        path = tmp_path / io.corpus_filename(("L0", "L1"))
        pairs = np.random.default_rng(0).random((20, 2, 2)) * 1e200
        write_pairs(path, ("L0", "L1"), pairs, {"nuisance_dim": 0})
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

    def test_train_with_a_missing_corpus_exits_2(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2"],
            capsys,
        )
        path = out / io.corpus_filename(("L1", "L2"))
        path.unlink()
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("missing file:") and str(path) in err
        assert not (out / "encoders.json").exists()

    def test_train_summary_records_the_joint_fit(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out = tmp_path / "run"
        for argv in (
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "2",
             "--sigma", "0.05", "--nuisance-dim", "1", "--seed", "3"],
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out), "--out", str(out),
             "--seed", "3", "--sweeps", "4"],
        ):
            assert run_cli(argv, capsys)[0] == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert sorted(summary) == ["edges", "eigenvalues", "gap", "latent_dim", "objective", "seed"]
        assert summary["latent_dim"] == 2 and summary["seed"] == 3
        assert len(summary["eigenvalues"]) == 3
        assert summary["gap"] >= trainer.GAP_RATIO
        estimate = io.load_encoders(out / "encoders.json")
        for name, loss in summary["edges"].items():
            edge = tuple(name.split("->"))
            pairs = read_pairs(out / io.corpus_filename(edge))
            assert loss == pytest.approx(empirical_edge_loss(estimate, edge, pairs), rel=1e-9)
        assert summary["objective"] == sum(summary["edges"].values())
        assert sorted(summary["edges"]) == ["L0->L1", "L1->L2"]

    @pytest.mark.parametrize(
        "meta, problem",
        [
            ({}, "must be an integer in [0, 2), got None"),
            ({"nuisance_dim": 2}, "must be an integer in [0, 2), got 2"),
            ({"nuisance_dim": -1}, "must be an integer in [0, 2), got -1"),
            ({"nuisance_dim": 1.0}, "must be an integer in [0, 2), got 1.0"),
            ({"nuisance_dim": True}, "must be an integer in [0, 2), got True"),
            ({"nuisance_dim": "1"}, "must be an integer in [0, 2), got '1'"),
            ({"nuisance_dim": 1}, "is 1, but the first corpus's is 0"),
        ],
    )
    def test_train_on_a_bad_nuisance_dim_exits_2_naming_file_and_field(
        self, tmp_path, capsys, meta, problem
    ):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        rng = np.random.default_rng(0)
        first, second = (tmp_path / io.corpus_filename(e) for e in (("L0", "L1"), ("L1", "L2")))
        write_pairs(first, ("L0", "L1"), rng.random((9, 2, 2)), {"nuisance_dim": 0})
        write_pairs(second, ("L1", "L2"), rng.random((9, 2, 2)), meta)
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(tmp_path),
             "--out", str(tmp_path / "run")],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {second}: corpus field 'meta' key 'nuisance_dim' {problem}\n"
        assert not (tmp_path / "run").exists()

    def test_train_without_an_eigenvalue_gap_exits_2_naming_the_graph(self, tmp_path, capsys):
        # Noise in every coordinate: nothing singles out a latent subspace.
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        rng = np.random.default_rng(1)
        for edge in (("L0", "L1"), ("L1", "L2")):
            write_pairs(
                tmp_path / io.corpus_filename(edge), edge, rng.standard_normal((200, 2, 2)),
                {"nuisance_dim": 1},
            )
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(tmp_path),
             "--out", str(tmp_path / "run")],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(
            f"error: {graph_path}: joint fit has no eigenvalue gap after 1 latent directions"
        )
        assert not (tmp_path / "run").exists()

    def test_train_on_singular_normal_equations_exits_2_naming_file_and_edge(
        self, tmp_path, capsys
    ):
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 50),)), graph_path)
        path = tmp_path / io.corpus_filename(("L0", "L1"))
        # A duplicated source coordinate at scale 1e3, as in the trainer tests.
        rng = np.random.default_rng(0)
        x = rng.integers(-5, 6, (50, 3)) * 1e3
        x[:, 1] = x[:, 0]
        pairs = np.stack([x, rng.standard_normal((50, 3))], axis=1)
        write_pairs(path, ("L0", "L1"), pairs, {"nuisance_dim": 0})
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(tmp_path),
             "--out", str(tmp_path / "run")],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {path}: edge L0->L1: normal equations singular even with ridge\n"
        )

    def test_eval_with_a_language_missing_from_the_codecs_exits_2(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        del payload["codecs"]["L2"]
        codecs_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {codecs_path}: no codec for graph language 'L2'\n"
        assert not (out / "pair_eval.csv").exists()

    def test_eval_with_an_empty_codec_table_exits_2(self, tmp_path, capsys):
        # An empty table loads as no codecs: no stack of zero decoders is checked.
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        payload["codecs"] = {}
        codecs_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {codecs_path}: no codec for graph language 'L0'\n"
        assert not (out / "pair_eval.csv").exists()

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

    @pytest.mark.parametrize("sweeps", ["0", "2"])
    def test_train_on_corpora_of_different_dimensions_exits_2(self, tmp_path, capsys, sweeps):
        graph_path = tmp_path / "graph.json"
        self._write_graph(graph_path)
        out, other = tmp_path / "run", tmp_path / "run3"
        for run, dim in ((out, "2"), (other, "3")):
            code, _, _ = run_cli(
                ["generate", "--graph", str(graph_path), "--out", str(run), "--dim", dim],
                capsys,
            )
            assert code == 0
        mixed = out / io.corpus_filename(("L1", "L2"))
        mixed.write_bytes((other / io.corpus_filename(("L1", "L2"))).read_bytes())
        code, stdout, err = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out), "--sweeps", sweeps],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {mixed}: corpus has dimension 3, but the first corpus has dimension 2\n"
        )
        assert not (out / "encoders.json").exists()

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

    def test_eval_with_encoders_of_another_dimension_exits_2(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        wider = tmp_path / "wider"
        run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(wider), "--dim", "2",
             "--nuisance-dim", "1"],
            capsys,
        )
        code, stdout, err = run_cli(
            ["eval", "--graph", str(graph_path),
             "--codecs", str(wider / "codecs.json"),
             "--encoders", str(out / "encoders.json"), "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {out / 'encoders.json'}: encoder 'L0' has dimension 2,"
            f" but its codec in {wider / 'codecs.json'} has dimension 3\n"
        )
        assert not (out / "pair_eval.csv").exists()

    def test_eval_with_a_language_missing_from_the_encoders_exits_2(
        self, tmp_path, capsys
    ):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        encoders_path = out / "encoders.json"
        payload = json.loads(encoders_path.read_text())
        del payload["encoders"]["L2"], payload["decoders"]["L2"]
        encoders_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {encoders_path}: no encoder for graph language 'L2'\n"
        assert not (out / "pair_eval.csv").exists()

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

    def test_eval_with_a_singular_codec_exits_2(self, tmp_path, capsys):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        payload["codecs"]["L1"]["W"] = [[0.0, 0.0], [0.0, 0.0]]
        codecs_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err == (
            f"error: {codecs_path}: malformed codec 'L1': codec matrix is numerically"
            " singular\n"
        )
        assert not (out / "pair_eval.csv").exists()

    @pytest.mark.parametrize(
        "owner, field, value",
        [("spec", "d", 3.7), ("spec", "B", "1"), (None, "nuisance_dim", True),
         (None, "sigma", "0.1")],
    )
    def test_eval_with_mistyped_codec_number_exits_2(
        self, tmp_path, capsys, owner, field, value
    ):
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        codecs_path = out / "codecs.json"
        payload = json.loads(codecs_path.read_text())
        (payload[owner] if owner else payload)[field] = value
        codecs_path.write_text(json.dumps(payload))
        code, stdout, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {codecs_path}: ")
        assert f"field {field!r} must be a JSON" in err
        assert not (out / "pair_eval.csv").exists()

    @pytest.mark.parametrize("spec", [None, {}, {"d": "x"}, 5])
    def test_eval_with_an_encoder_spec_exits_2(self, tmp_path, capsys, spec):
        # Encoder files hold no spec; one written with a null 'spec' is refused too.
        graph_path, out = self._generate_and_train(tmp_path, capsys)
        encoders_path = out / "encoders.json"
        payload = json.loads(encoders_path.read_text())
        payload["spec"] = spec
        encoders_path.write_text(json.dumps(payload))
        code, _, err = self._eval(graph_path, out, capsys)
        assert code == 2
        assert err == f"error: {encoders_path}: encoder document has unknown key 'spec'\n"

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


class TestFitWork:
    def test_train_takes_one_spectrum_and_no_svd(self, tmp_path, capsys, monkeypatch):
        # the joint fit: one stacked whitening of every language, one spectrum
        # of the 16-dimensional pencil and one d x d Rayleigh-Ritz step
        langs = ("L0", "L1", "L2", "L3")
        graph = TranslationGraph(
            langs, tuple((a, b, 60) for a, b in (("L0", "L1"), ("L1", "L2"),
                                                 ("L2", "L3"), ("L0", "L3")))
        )
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "3",
             "--sigma", "0.08", "--nuisance-dim", "1", "--seed", "5"],
            capsys,
        )
        assert code == 0
        shapes = {"eigh": [], "eigvalsh": [], "svd": [], "inv": []}
        for name, calls in shapes.items():
            def counted(a, *args, _calls=calls, _original=getattr(np.linalg, name), **kwargs):
                _calls.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, _, _ = run_cli(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert shapes == {"eigh": [(4, 4, 4), (3, 3)], "eigvalsh": [(16, 16)], "svd": [], "inv": []}

    def test_eval_on_forty_languages_takes_two_svds(self, tmp_path, capsys, monkeypatch):
        langs = tuple(f"L{i:02d}" for i in range(40))
        edges = [(a, b, 30) for a, b in zip(langs, langs[1:])]
        edges += [(langs[i], langs[i + 7], 30) for i in range(0, 30, 6)]
        graph_path = tmp_path / "graph.json"
        io.save_graph(TranslationGraph(langs, tuple(edges)), graph_path)
        out = tmp_path / "run"
        for argv in (
            ["generate", "--graph", str(graph_path), "--out", str(out), "--dim", "3",
             "--sigma", "0.05", "--nuisance-dim", "1", "--seed", "2"],
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)],
        ):
            assert run_cli(argv, capsys)[0] == 0
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code, _, _ = run_cli(
            ["eval", "--graph", str(graph_path), "--codecs", str(out / "codecs.json"),
             "--encoders", str(out / "encoders.json"), "--out", str(out)],
            capsys,
        )
        assert code in (0, 1)
        assert (out / "pair_eval.csv").exists()
        # One stacked check of the codecs, and one of the translators that
        # carry an edge's error to a pair's destination.
        assert len(shapes) == 2 and shapes[0] == (40, 4, 4) and shapes[1][1:] == (4, 4)


class TestStreamingMemory:
    """``generate`` holds about one edge's corpus at a time, and ``train`` none.

    Peaks are traced numpy and Python allocations, in units of one corpus's
    ``pairs`` array, after one small ``generate`` and ``train``
    in the same process, so the first call's imports are not counted (they
    add about 0.8 to a cold ``generate``). ``generate`` reads about 1.7 at
    20,000 pairs and 1.2 at 70,000: the latents of the edge being written
    and of the edge drawn beside it, their normalizing buffers, the file's
    staging block and the decode's temporaries. Holding every corpus of the
    six edges at once reads about 3.1 for a cold ``generate``. ``train``
    reads each corpus straight into its Gram and holds no rows: about
    1.25 MB whatever the corpus size, the bytes of one row block as
    ``zipfile`` reads them, once more where the first block joins what the
    header's read left over, and the [x, 1, y] staging block. That is 0.66
    corpora at 20,000 pairs and 0.19 at 70,000; holding one corpus's rows
    [x, 1, y] read 1.3. ``train --sweeps 1`` is the same run, since
    ``--sweeps`` is ignored. Holding one more whole corpus on any of the
    three paths fails its bound.
    """

    DIM = 6

    def _peak(self, argv, n) -> float:
        tracemalloc.start()
        try:
            with redirect_stdout(StringIO()):
                assert cli.main(argv) == 0
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (n * 2 * self.DIM * 8)

    @pytest.mark.parametrize("n, train_bound", [(20_000, 0.8), (70_000, 0.3)])
    def test_generate_and_train_peaks(self, tmp_path, n, train_bound):
        warm = tmp_path / "warm"
        io.save_graph(six_language_demo_graph(8), tmp_path / "small.json")
        with redirect_stdout(StringIO()):  # imports outside the traces
            assert cli.main(["generate", "--graph", str(tmp_path / "small.json"),
                             "--out", str(warm)]) == 0
            assert cli.main(["train", "--graph", str(tmp_path / "small.json"),
                             "--corpus-dir", str(warm), "--out", str(warm), "--sweeps", "1"]) == 0
        graph_path = tmp_path / "graph.json"
        io.save_graph(six_language_demo_graph(n), graph_path)
        out = tmp_path / "run"
        generate_peak = self._peak(
            ["generate", "--graph", str(graph_path), "--dim", str(self.DIM),
             "--out", str(out)], n
        )
        train_peak = self._peak(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out)], n
        )
        assert generate_peak < 1.9, f"traced generate peak is {generate_peak:.3f} corpora"
        assert train_peak < train_bound, f"traced train peak is {train_peak:.3f} corpora"
        ignored_sweeps_peak = self._peak(
            ["train", "--graph", str(graph_path), "--corpus-dir", str(out),
             "--out", str(out), "--sweeps", "1"], n
        )
        assert ignored_sweeps_peak < train_bound, (
            f"traced peak is {ignored_sweeps_peak:.3f} corpora"
        )


class TestSweepMemory:
    """One ``sample_complexity_sweep`` holds one size's draws and its trials' Grams at a time.

    The peak is traced numpy and Python allocations, in MiB. Each trial
    streams its pairs into its Gram (``stream_gram``), so the peak is one
    size's ``EdgeDraws`` (latents and noise seeds), one staging block of
    rows [x, 1, y], the decode's temporaries and the trials' Grams: 0.63
    MiB at the benchmark's setting and 2.36 MiB at d = 4, k = 2, 20,000
    pairs. Holding every trial's rows [x, 1, y] of a size as one stack read
    3.60 and 41.6 MiB.
    """

    @pytest.mark.parametrize(
        "dim, nuisance, sizes, bound_mib",
        [
            (1, 1, (32, 64, 128, 256, 512, 1024, 2048, 4096), 1.2),  # the benchmark's
            (4, 2, (5_000, 10_000, 20_000), 4.0),
        ],
    )
    def test_sweep_peak(self, dim, nuisance, sizes, bound_mib):
        spec = FunctionClassSpec(dim=dim)
        codecs = dict(zip("AB", sample_randomized_codecs(spec, 2, nuisance, 0.05, seed=3)))
        sampler = LatentSampler(dim, spec.radius, seed=3)
        sample_complexity_sweep(("A", "B"), codecs, [16, 32], 5, sampler, 3)  # imports
        tracemalloc.start()
        try:
            sample_complexity_sweep(("A", "B"), codecs, sizes, 20, sampler, 3)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mib, f"traced sweep peak is {peak / 2**20:.2f} MiB"


class TestOneGramPath:
    """``randomized_generate`` sums the pairs ``generate`` writes into the Gram ``train`` reads."""

    @pytest.mark.parametrize(
        "nuisance_dim, sigma", [(0, 0.0), (1, 0.05)], ids=["noiseless", "noisy"]
    )
    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
    def test_generated_gram_is_the_gram_of_the_file(self, tmp_path, n, nuisance_dim, sigma):
        edge = ("L0", "L1")
        io.save_graph(TranslationGraph(edge, ((*edge, n),)), tmp_path / "graph.json")
        argv = ["generate", "--graph", str(tmp_path / "graph.json"), "--out", str(tmp_path),
                "--dim", "3", "--nuisance-dim", str(nuisance_dim), "--sigma", str(sigma),
                "--seed", "5"]
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0
        spec, codecs = io.load_codecs(tmp_path / "codecs.json")
        sampler = LatentSampler(spec.dim, spec.radius, seed=5)
        corpus = randomized_generate(edge, codecs, n, sampler, seed=5)
        loaded = io.load_corpus(tmp_path / io.corpus_filename(edge))
        assert_same_bits(corpus.gram, loaded.gram)
        assert (corpus.edge, corpus.meta, corpus.n, corpus.largest) == (
            loaded.edge, loaded.meta, loaded.n, loaded.largest
        )
        # bitwise up to ROW_BLOCK + 1 rows, within 1e-13 past that
        whole = rows_of_pairs(whole_array_pairs(edge, codecs, n, sampler, 5))
        assert_gram_of_rows(corpus.gram, whole)


class TestGeneratePipeline:
    """``generate`` draws the next edge on one worker thread while it writes the current one."""

    #: Pairs per edge: more than one row block, so the worker draws every edge after the first.
    N = ROW_BLOCK + 1

    def test_files_match_serial_corpora_under_fast_thread_switches(self, tmp_path):
        # Each file must hold its own edge's draws: the worker draws into the
        # buffers the main thread is not decoding from.
        graph = six_language_demo_graph(self.N)
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with redirect_stdout(StringIO()):
                assert cli.main(["generate", "--graph", str(graph_path), "--out", str(out)]) == 0
        finally:
            sys.setswitchinterval(interval)
        spec = FunctionClassSpec(dim=4)
        codecs = dict(zip(graph.languages, sample_randomized_codecs(spec, 6, 0, 0.0, seed=0)))
        sampler = LatentSampler(4, spec.radius, seed=0)
        for edge in graph.edge_pairs():
            reference = tmp_path / "reference.npz"
            corpus = randomized_generate(edge, codecs, self.N, sampler, seed=0)
            savez_corpus(edge, corpus_pairs(corpus, codecs, sampler), corpus.meta, reference)
            assert (out / io.corpus_filename(edge)).read_bytes() == reference.read_bytes(), edge

    def test_unwritable_corpus_fails_like_a_serial_generate(self, tmp_path):
        # A directory where the third edge's corpus goes, while the worker
        # draws the fourth edge: the exit code and message are those of the
        # serial loop this pipeline replaced.
        graph = six_language_demo_graph(self.N)
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        edges = graph.edge_pairs()
        blocked = out / io.corpus_filename(edges[2])
        blocked.mkdir(parents=True)
        argv = ["generate", "--graph", str(graph_path), "--out", str(out)]
        threads = threading.active_count()
        stdout = StringIO()
        with redirect_stdout(stdout), pytest.raises(IsADirectoryError) as info:
            cli.main(argv)
        tmp = out / f".{blocked.name}.{os.getpid()}.tmp"
        assert str(info.value) == f"[Errno 21] Is a directory: '{tmp}' -> '{blocked}'"
        assert threading.active_count() == threads
        written = [io.corpus_filename(edge) for edge in edges[:2]]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["codecs.json", blocked.name, *written]
        )
        for edge, name in zip(edges, written):
            assert io.load_corpus(out / name).edge == edge
        lines = "".join(f"corpus {a}->{b} n={self.N}\n" for a, b in edges[:2])
        assert stdout.getvalue() == lines

        result = run_fresh(IN_A_PROCESS, *argv)
        assert result.returncode == 1
        assert result.stdout == lines
        last = result.stderr.strip().splitlines()[-1]
        assert re.fullmatch(
            rf"IsADirectoryError: \[Errno 21\] Is a directory:"
            rf" '{re.escape(str(out))}/\.{re.escape(blocked.name)}\.\d+\.tmp'"
            rf" -> '{re.escape(str(blocked))}'",
            last,
        ), last

    def test_worker_error_is_raised_in_the_main_thread(self, tmp_path, capsys, monkeypatch):
        graph = six_language_demo_graph(self.N)
        graph_path = tmp_path / "graph.json"
        io.save_graph(graph, graph_path)
        out = tmp_path / "run"
        edges = graph.edge_pairs()
        draw = EdgeDraws.draw

        def draw_on_main_thread_only(self, edge, *args):
            if threading.current_thread() is not threading.main_thread() and edge == edges[3]:
                raise DomainError(f"no codec for language {edge[1]!r}")
            return draw(self, edge, *args)

        monkeypatch.setattr(EdgeDraws, "draw", draw_on_main_thread_only)
        threads = threading.active_count()
        argv = ["generate", "--graph", str(graph_path), "--out", str(out)]
        code, out_text, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"error: no codec for language {edges[3][1]!r}\n"
        assert threading.active_count() == threads
        # Edge 2 was written while edge 3 was drawn; nothing after it was.
        written = [io.corpus_filename(edge) for edge in edges[:3]]
        assert sorted(p.name for p in out.iterdir()) == sorted(["codecs.json", *written])
        assert out_text == "".join(f"corpus {a}->{b} n={self.N}\n" for a, b in edges[:3])


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

    def test_too_few_pairs_for_the_fit_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--n-list", "2,4", "--dim", "1", "--nuisance-dim", "1",
             "--out", str(tmp_path / "sweep")],
            capsys,
        )
        assert code == 2
        assert err == "error: need at least 3 pairs for an affine fit in dimension 2, got 2\n"

    def test_noiseless_sweep_is_degenerate(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, out_text, _ = run_cli(
            [
                "sweep", "--n-list", "16,32", "--trials", "5",
                "--sigma", "0", "--nuisance-dim", "0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert out_text == "sweep degenerate=true (all gaps below 1e-10); slope undefined\n"
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["degenerate"] is True and summary["slope"] is None


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Runs translab.cli.main with every scipy import made to raise ImportError.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from translab.cli import main
sys.exit(main(sys.argv[1:]))
"""


# Runs translab.cli.main as the ``translab`` command does: an uncaught error exits 1.
IN_A_PROCESS = """
import sys
from translab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


class TestColdStart:
    """Only noisy ``generate`` and ``sweep`` load scipy, on their first noise draw.

    The exact moment checks draw nothing, so they never load it.
    """

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cold")
        instance = root / "worst.json"
        io.save_instance(make_worst_case(0.5), instance)
        graph = root / "graph.json"
        edges = (("L0", "L1", 40), ("L1", "L2", 40))
        io.save_graph(TranslationGraph(("L0", "L1", "L2"), edges), graph)
        run = root / "run"
        with redirect_stdout(StringIO()):
            for argv in (
                ["generate", "--graph", str(graph), "--out", str(run), "--dim", "2"],
                ["train", "--graph", str(graph), "--corpus-dir", str(run), "--out", str(run)],
            ):
                assert cli.main(argv) == 0
        return root, instance, graph, run

    @pytest.fixture(scope="class")
    def large_run(self, tmp_path_factory):
        """A graph with one corpus of 70,000 pairs, which ``train`` reads on one thread too."""
        root = tmp_path_factory.mktemp("large")
        graph = root / "graph.json"
        io.save_graph(TranslationGraph(("L0", "L1"), (("L0", "L1", 70_000),)), graph)
        with redirect_stdout(StringIO()):
            argv = ["generate", "--graph", str(graph), "--out", str(root), "--dim", "2"]
            assert cli.main(argv) == 0
        return graph, root

    @pytest.mark.parametrize(
        "mode, loads",
        [("generate", True), ("train", False), ("train-large", False), ("bound", False),
         ("brute", False)],
    )
    def test_thread_pool_loads_only_where_two_threads_run(self, inputs, large_run, mode, loads):
        root, instance, graph, run = inputs
        large_graph, large = large_run
        out = str(root / f"pool-{mode}")
        argv = {
            "generate": ["generate", "--graph", str(graph), "--dim", "2", "--out", out],
            "train": ["train", "--graph", str(graph), "--corpus-dir", str(run), "--out", out],
            "train-large": [
                "train", "--graph", str(large_graph), "--corpus-dir", str(large), "--out", out,
            ],
            "bound": ["bound", "--instance", str(instance)],
            "brute": ["brute", "--instance", str(instance), "--out", out],
        }[mode]
        result = run_fresh(
            "import contextlib, io, sys\n"
            "POOLS = ('concurrent', 'multiprocessing', 'asyncio', 'queue')\n"
            "def pools():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in POOLS)\n"
            "from translab.cli import main\n"
            "before = pools()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(before)\n"
            "print(pools())\n",
            *argv,
        )
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.splitlines()
        assert before == "[]"
        if loads:
            assert "concurrent.futures" in after
        else:
            assert after == "[]"

    def test_import_loads_no_scipy(self):
        result = run_fresh(
            "import sys, translab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "mode",
        [
            "bound", "brute", "demo-worst-case", "generate",
            "train-sweeps-0", "train-sweeps-1", "eval",
        ],
    )
    def test_mode_runs_without_scipy(self, inputs, mode):
        root, instance, graph, run = inputs
        out = str(root / mode)
        argv = {
            "bound": ["bound", "--instance", str(instance)],
            "brute": ["brute", "--instance", str(instance), "--out", out],
            "demo-worst-case": ["demo-worst-case", "--delta", "0.5", "--out", out],
            "generate": ["generate", "--graph", str(graph), "--dim", "2", "--out", out],
            "train-sweeps-0": [
                "train", "--graph", str(graph), "--corpus-dir", str(run), "--out", out,
                "--sweeps", "0",
            ],
            "train-sweeps-1": [
                "train", "--graph", str(graph), "--corpus-dir", str(run), "--out", out,
                "--sweeps", "1",
            ],
            "eval": [
                "eval", "--graph", str(graph), "--codecs", str(run / "codecs.json"),
                "--encoders", str(run / "encoders.json"), "--out", out,
            ],
        }[mode]
        result = run_fresh(WITHOUT_SCIPY, *argv)
        assert result.returncode == 0, result.stderr

    def test_moment_checks_run_without_scipy(self):
        result = run_fresh(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from helpers import invariance_gap, moment_gap, target_moments\n"
            "from translab.generative import FunctionClassSpec, sample_randomized_codecs\n"
            "codecs = sample_randomized_codecs(FunctionClassSpec(dim=3), 3, 2, 0.2, seed=0)\n"
            "codecs = dict(zip('ABT', codecs))\n"
            "assert invariance_gap(codecs['A'])[2]\n"
            "moments = target_moments({'A': codecs, 'B': codecs}, 'T')\n"
            "assert moment_gap(moments['A'], moments['B'])[2]\n"
        )
        assert result.returncode == 0, result.stderr

    def test_noisy_generate_needs_scipy(self, inputs):
        root, _instance, graph, _run = inputs
        argv = [
            "generate", "--graph", str(graph), "--dim", "2", "--nuisance-dim", "1",
            "--sigma", "0.1", "--out", str(root / "noisy"),
        ]
        result = run_fresh(WITHOUT_SCIPY, *argv)
        assert result.returncode != 0 and "ModuleNotFoundError" in result.stderr
