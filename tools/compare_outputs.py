"""Byte-compare the outputs of two translab source trees on the benchmark workloads.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--workload W] [--seed S]

PARENT_SRC and CHANGE_SRC are directories holding a ``translab`` package (a
checkout's ``src/``, or the checkout itself). For each workload of
``bench/workloads.py`` at its full size and instance seed S (default 3), each
tree writes the workload's inputs and then runs every command line of one pass,
each in a fresh ``python -B`` process with one BLAS thread, from its own
scratch directory and with relative paths. The tool then compares the two
trees' input and output files byte for byte, and each command's exit code,
stdout and stderr. It prints one summary line per workload, which counts
the differences under ``inputs/`` apart from the rest, then every difference,
and exits 1 if there is any.

``bench/`` is only read: its modules are imported without writing bytecode.
Scratch directories go under ``$TMPDIR`` and are removed at exit. A full
``bigcorpus`` pass writes about 290 MB per tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: Runs in each fresh process: ``SRC inputs WORKLOAD SEED`` writes the inputs
#: and prints their paths as JSON; ``SRC cli ARGV...`` runs ``translab``.
RUNNER = """
import json, sys
from pathlib import Path
src, task = Path(sys.argv[1]), sys.argv[2]
sys.path.insert(0, str(src))
import translab
if Path(translab.__file__).resolve().parent != (src / "translab").resolve():
    sys.exit(f"translab imported from {translab.__file__}, not {src}")
if task == "inputs":
    sys.path.insert(0, sys.argv[3])
    from workloads import WORKLOADS
    workload = WORKLOADS[sys.argv[4]]
    Path("inputs").mkdir()
    inputs = workload.write_inputs(Path("inputs"), int(sys.argv[5]), workload.sizes["full"])
    print(json.dumps({key: str(path) for key, path in inputs.items()}))
else:
    from translab.cli import main
    sys.exit(main(sys.argv[3:]))
"""

#: The benchmark's BLAS setting; more threads may change summation order.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def package_root(path: Path) -> Path:
    """``path`` if it holds ``translab/``, else its ``src/`` if that does."""
    for candidate in (path, path / "src"):
        if (candidate / "translab" / "__init__.py").is_file():
            return candidate.resolve()
    raise SystemExit(f"no translab package under {path}")


def run(src: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-B", "-c", RUNNER, str(src), *args],
        cwd=cwd, capture_output=True, text=True, env={**os.environ, **ENV},
    )


def run_workload(workload, src: Path, cwd: Path, seed: int) -> list[tuple]:
    """Write the inputs and run one pass in ``cwd``; (argv, code, stdout, stderr) per call."""
    cwd.mkdir(parents=True)
    written = run(src, cwd, "inputs", str(BENCH), workload.name, str(seed))
    if written.returncode != 0:
        raise SystemExit(f"{src}: {workload.name} inputs failed:\n{written.stderr}")
    inputs = {key: Path(path) for key, path in json.loads(written.stdout).items()}
    calls = []
    for argv in workload.commands(inputs, Path("out"), seed, workload.sizes["full"]):
        done = run(src, cwd, "cli", *argv)
        calls.append((argv, done.returncode, done.stdout, done.stderr))
    return calls


def files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def differences(parent: Path, change: Path, parent_calls, change_calls) -> list[str]:
    found = []
    for (argv, *before), (_argv, *after) in zip(parent_calls, change_calls):
        for what, old, new in zip(("exit code", "stdout", "stderr"), before, after):
            if old != new:
                found.append(f"{what} of `translab {' '.join(argv)}`")
    old_files, new_files = files(parent), files(change)
    for name in sorted(old_files.keys() ^ new_files.keys()):
        found.append(f"{name} only in the {'parent' if name in old_files else 'change'} tree")
    for name in sorted(old_files.keys() & new_files.keys()):
        if old_files[name].read_bytes() != new_files[name].read_bytes():
            found.append(f"{name} differs")
    return found


def summary(found: list[str]) -> str:
    """How many differences there are, and how many of them lie under ``inputs/``."""
    in_inputs = sum(line.startswith("inputs/") for line in found)
    return f"{len(found)} differences ({in_inputs} in inputs/)"


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=3, help="instance seed (default 3)")
    args = parser.parse_args(argv)
    trees = {"parent": package_root(args.parent_src), "change": package_root(args.change_src)}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    any_difference = False
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"compare-{name}-") as tmp:
            dirs = {tag: Path(tmp) / tag for tag in trees}
            calls = {
                tag: run_workload(WORKLOADS[name], trees[tag], dirs[tag], args.seed)
                for tag in trees
            }
            found = differences(dirs["parent"], dirs["change"], calls["parent"],
                                calls["change"])
            n_files = len(files(dirs["change"]))
            n_bytes = sum(p.stat().st_size for p in files(dirs["change"]).values())
        codes = sorted({code for _argv, code, _out, _err in calls["change"]})
        print(f"{name}: seed {args.seed}, {len(calls['change'])} commands (exit codes"
              f" {codes}), {n_files} files, {n_bytes:,} bytes: {summary(found)}")
        for line in found:
            print(f"  {line}")
        any_difference = any_difference or bool(found)
    print("identical" if not any_difference else "DIFFERENT")
    return 1 if any_difference else 0


if __name__ == "__main__":
    sys.exit(main())
