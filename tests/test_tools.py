"""Tests for the tools: the A/B benchmark's verdicts and checkout checks, and the output diff."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = load_tool("ab_bench")
compare_outputs = load_tool("compare_outputs")

#: Ten parent runs with median 1.0 and quartiles 0.99725 and 1.00275.
TIGHT = [0.99, 0.995, 0.997, 0.998, 0.999, 1.001, 1.002, 1.003, 1.005, 1.01]
#: Ten parent runs with median 1.0 and quartiles 0.8 and 1.2 (spread 40%).
WIDE = [0.6, 0.7, 0.8, 0.8, 0.9, 1.1, 1.2, 1.2, 1.3, 1.4]


def scaled(runs, factor):
    return [factor * run for run in runs]


class TestVerdict:
    @pytest.mark.parametrize(
        "parent, change, better, want",
        [
            # The change's median 1.3 is 30% worse: past a 24% bound.
            (TIGHT, scaled(TIGHT, 1.3), "lower", "regression"),
            (TIGHT, scaled(TIGHT, 0.7), "higher", "regression"),
            # 20% worse stays inside the bound.
            (TIGHT, scaled(TIGHT, 1.2), "lower", "no regression"),
            (TIGHT, scaled(TIGHT, 0.8), "higher", "no regression"),
            (TIGHT, TIGHT, "lower", "no regression"),
            # A wide parent cannot tell a small change from noise...
            (WIDE, WIDE, "lower", "unresolved"),
            (WIDE, scaled(WIDE, 0.9), "lower", "unresolved"),
            # ...unless every change run beats every parent run.
            (WIDE, scaled(WIDE, 0.4), "lower", "no regression"),
            (WIDE, scaled(WIDE, 3.0), "higher", "no regression"),
            # A wide parent still shows a large regression.
            (WIDE, scaled(WIDE, 1.5), "lower", "regression"),
        ],
    )
    def test_verdicts(self, parent, change, better, want):
        assert ab_bench.verdict(parent, change, better, 0.24) == want

    def test_the_bound_is_relative_to_the_parent_median(self):
        parent = scaled(TIGHT, 1000.0)
        assert ab_bench.verdict(parent, scaled(parent, 1.05), "lower", 0.1) == "no regression"
        assert ab_bench.verdict(parent, scaled(parent, 1.15), "lower", 0.1) == "regression"

    def test_a_spread_equal_to_the_bound_is_resolved(self):
        # Quartiles 0.9 and 1.1 around a median of 1.0: a spread of exactly 0.2.
        parent = [0.9, 0.9, 1.0, 1.1, 1.1]
        assert ab_bench.quartiles(parent) == pytest.approx((0.9, 1.0, 1.1))
        assert ab_bench.verdict(parent, parent, "lower", 0.25) == "no regression"
        assert ab_bench.verdict(parent, parent, "lower", 0.15) == "unresolved"


class TestBytecode:
    @staticmethod
    def _checkouts(tmp_path):
        for side in ("parent", "change"):
            for name in ("src/translab", "bench"):
                (tmp_path / side / name).mkdir(parents=True)
        return tmp_path / "parent", tmp_path / "change"

    @pytest.mark.parametrize("side", ["parent", "change"])
    @pytest.mark.parametrize("where", ["src/translab", "bench"])
    def test_a_pycache_is_refused_before_any_run_and_kept(self, tmp_path, monkeypatch, side, where):
        parent, change = self._checkouts(tmp_path)
        cache = tmp_path / side / where / "__pycache__"
        cache.mkdir()
        (cache / "io.cpython-312.pyc").write_bytes(b"")

        def no_run(*args):
            raise AssertionError("a benchmark ran")

        monkeypatch.setattr(ab_bench, "run_bench", no_run)
        with pytest.raises(SystemExit) as info:
            ab_bench.main([str(parent), str(change), "--workload", "sweep"])
        assert str(info.value).startswith(f"{cache}: this checkout holds bytecode")
        assert (cache / "io.cpython-312.pyc").exists()

    def test_clean_checkouts_hold_no_bytecode(self, tmp_path):
        parent, change = self._checkouts(tmp_path)
        (parent / "src" / "translab" / "io.py").write_text("")
        assert ab_bench.bytecode_dirs(parent) == ab_bench.bytecode_dirs(change) == []

    def test_runs_write_no_bytecode(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(argv, cwd, capture_output, text, env):
            seen.update(env=env, cwd=cwd)
            return ab_bench.subprocess.CompletedProcess(argv, 0, '{"metrics": {}}\n', "")

        monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
        assert ab_bench.run_bench(tmp_path, "sweep", 3, 1.0) == {"metrics": {}}
        assert seen == {"env": {**ab_bench.os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                        "cwd": tmp_path}


class TestSummary:
    @staticmethod
    def _checkout(root: Path, sources: dict[str, str]) -> Path:
        write_tree(root, {f"src/translab/{name}": text for name, text in sources.items()})
        return root

    def test_src_lines_count_as_the_benchmark_records_them(self, tmp_path, monkeypatch):
        # every .py file under src/, nested ones too; a last line without a newline counts
        checkout = self._checkout(tmp_path, {
            "a.py": "x = 1\n\ny = 2\n", "sub/b.py": "z = 3", "notes.txt": "not code\n",
        })
        spec = importlib.util.spec_from_file_location(
            "bench_run", TOOLS.parent / "bench" / "run.py"
        )
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        monkeypatch.setattr(bench_run, "SRC", checkout / "src")
        assert ab_bench.src_lines(checkout) == bench_run.metadata()["src_lines"] == 4

    def test_summary_prints_each_checkouts_src_lines(self, tmp_path, monkeypatch, capsys):
        parent = self._checkout(tmp_path / "parent", {"io.py": "a\nb\nc\n"})
        change = self._checkout(tmp_path / "change", {"io.py": "a\n"})
        (parent / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1,
            "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24}],
        }))

        def fake_run(checkout, workload, seed, seconds):
            return {"metrics": {"run_s": {"value": 1.0}}, "failed": 0, "attempted": 1}

        monkeypatch.setattr(ab_bench, "run_bench", fake_run)
        argv = [str(parent), str(change), "--workload", "sweep", "--pairs", "2"]
        assert ab_bench.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "src/ lines: parent 3, change 1 (-2)"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


class TestCompareOutputs:
    def test_same_trees_and_calls_have_no_differences(self, tmp_path):
        files = {"inputs/i.json": "{}", "out/r.csv": "a\n"}
        parent, change = (write_tree(tmp_path / tag, files) for tag in ("parent", "change"))
        calls = [(["bound", "--instance", "i.json"], 0, "ok\n", "")]
        assert compare_outputs.differences(parent, change, calls, calls) == []
        assert compare_outputs.summary([]) == "0 differences (0 in inputs/)"

    def test_each_difference_is_named_and_inputs_are_counted_apart(self, tmp_path):
        parent = write_tree(
            tmp_path / "parent",
            {"inputs/i.json": "{}", "inputs/old.json": "", "out/r.csv": "a\n", "out/old.csv": ""},
        )
        change = write_tree(
            tmp_path / "change", {"inputs/i.json": "[]", "out/r.csv": "b\n", "out/new.csv": ""}
        )
        argv = ["bound", "--instance", "i.json"]
        parent_calls = [(argv, 0, "ok\n", ""), (["brute"], 0, "", ""), (["eval"], 0, "", "")]
        change_calls = [(argv, 2, "ok\n", ""), (["brute"], 0, "x\n", ""), (["eval"], 0, "", "w")]
        found = compare_outputs.differences(parent, change, parent_calls, change_calls)
        assert found == [
            "exit code of `translab bound --instance i.json`",
            "stdout of `translab brute`",
            "stderr of `translab eval`",
            "inputs/old.json only in the parent tree",
            "out/new.csv only in the change tree",
            "out/old.csv only in the parent tree",
            "inputs/i.json differs",
            "out/r.csv differs",
        ]
        assert compare_outputs.summary(found) == "8 differences (2 in inputs/)"

    @pytest.mark.parametrize(
        "name, old, new, line",
        [
            ("out/e.csv", "edge,n,loss\nA,3,1.0\nB,4,2.0\n", "edge,n,loss\nA,3,1.0\nB,4,2.5\n",
             "out/e.csv differs: numeric drift 0.5 absolute, 0.2 relative"),
            ("out/s.json", '{"edges": {"A->B": 1e-28}, "gap": 12.0, "seed": 3}',
             '{"edges": {"A->B": -1.6e-15}, "gap": 12.0, "seed": 3}',
             "out/s.json differs: numeric drift 1.6e-15 absolute, 1 relative"),
            # Formatting alone: the numbers are equal.
            ("out/s.json", '{"a": [1, 2.0]}', '{"a": [1.0, 2]}',
             "out/s.json differs: numeric drift 0 absolute, 0 relative"),
        ],
    )
    def test_a_file_differing_only_in_numbers_reports_their_drift(
        self, tmp_path, name, old, new, line
    ):
        parent = write_tree(tmp_path / "parent", {name: old})
        change = write_tree(tmp_path / "change", {name: new})
        assert compare_outputs.differences(parent, change, [], []) == [line]

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("out/e.csv", "edge,loss\nA,1.0\n", "edge,loss\nB,1.5\n"),  # a name differs
            ("out/e.csv", "edge,loss\nA,1.0\n", "edge,loss\nA,1.0\nB,2.0\n"),  # a row more
            ("out/s.json", '{"a": [1, 2]}', '{"a": [1, 2, 3]}'),
            ("out/s.json", '{"a": 1}', '{"b": 1}'),
            ("out/s.json", '{"holds": true}', '{"holds": 1}'),  # a bool is not a number
            ("out/s.json", '{"a": NaN}', '{"a": 1.0}'),
            ("out/s.json", '{"a": 1', '{"a": 2}'),  # not JSON
            ("out/log.txt", "loss 1.0\n", "loss 2.0\n"),  # neither CSV nor JSON
        ],
    )
    def test_any_other_difference_reports_no_drift(self, tmp_path, name, old, new):
        parent = write_tree(tmp_path / "parent", {name: old})
        change = write_tree(tmp_path / "change", {name: new})
        assert compare_outputs.differences(parent, change, [], []) == [f"{name} differs"]
