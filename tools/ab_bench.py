"""Alternating A/B runs of two checkouts' benchmarks, judged by the gain rule.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S

PARENT_DIR and CHANGE_DIR are repository checkouts. Each pair runs
``bench/run.py --workload W --seed S --trace 0`` once in each checkout, as it
stands there, for the ``run_seconds`` the parent's ``BENCHMARK.json`` sets;
the parent goes first in even pairs and the change in odd ones. Each run's
end-to-end metrics (the parent's ``BENCHMARK.json`` names them and which way
is better) are printed as it finishes. Then, per metric, each side's median
and quartiles and the number of pairs the change wins, ties counting for
neither side. A gain is shown when the change wins at least 9/10 of the pairs
and the medians differ, in its favour, by more than the distance between the
parent's quartiles. Each metric also gets a no-regression verdict against the
relative bound ``BENCHMARK.json`` gives it (see ``verdict``). The failed share
of operations is printed per side, and so is each checkout's ``src/`` line
count, as ``bench/run.py`` records it (see ``src_lines``).
A run that exits nonzero stops the tool with its stderr. The checkouts'
files are only read; each run writes its results to that checkout's
``.bench_out/``, and no bytecode. A checkout whose ``src/`` or ``bench/``
already holds a ``__pycache__`` is refused before any run: its imports
would skip the compiling the other side's do, which shows in ``setup_s``.
The tool leaves the directory for its owner to remove.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


#: The checkout directories whose modules a benchmark run imports.
SOURCES = ("src", "bench")


def bytecode_dirs(checkout: Path) -> list[Path]:
    """The ``__pycache__`` directories under the checkout's ``SOURCES``, sorted."""
    return sorted(path for name in SOURCES for path in (checkout / name).rglob("__pycache__"))


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/**/*.py``, as ``bench/run.py``'s ``metadata()`` counts."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((checkout / "src").rglob("*.py")))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line one ``bench/run.py`` run prints last; the run writes no bytecode."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: list[float], change: list[float], better: str) -> tuple[int, bool]:
    """The change's wins over the pairs, and whether the gain rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p1, p_median, p3 = quartiles(parent)
    gap = sign * (p_median - statistics.median(change))
    return wins, wins >= 0.9 * len(parent) and gap > p3 - p1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change regresses one metric, against its relative ``bound``.

    ``regression`` when the change's median is worse than the parent's by
    more than ``bound`` times the parent's median. Else ``unresolved`` when
    the parent's quartile spread is wider than that, unless every change run
    beats every parent run. Else ``no regression``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, p_median, p3 = quartiles(parent)
    allowed = bound * abs(p_median)
    if sign * (statistics.median(change) - p_median) > allowed:
        return "regression"
    if p3 - p1 > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "no regression"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    for checkout in (args.parent, args.change):
        found = bytecode_dirs(checkout)
        if found:
            raise SystemExit(
                f"{found[0]}: this checkout holds bytecode, so its runs would skip compiling"
                " that the other checkout's may not; remove it and run again"
            )
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name, _u, _b in metrics} for side in sides}
    failed = {side: [] for side in sides}

    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            line = run_bench(sides[side], args.workload, args.seed, spec["run_seconds"])
            for name, _unit, _better in metrics:
                values[side][name].append(line["metrics"][name]["value"])
            failed[side].append(line["failed"] / max(line["attempted"], 1))
            shown = " ".join(f"{name}={values[side][name][-1]:.4g}" for name, _u, _b in metrics)
            print(f"pair {i + 1}/{args.pairs} {side}: {shown}"
                  f" failed={line['failed']}/{line['attempted']}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs"
          f" of {spec['run_seconds']} s runs: median [q1, q3]")
    for name, unit, better in metrics:
        cells = []
        for side in sides:
            q1, median, q3 = quartiles(values[side][name])
            cells.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        parent, change = values["parent"][name], values["change"][name]
        wins, gain = judge(parent, change, better)
        print(f"{name} ({unit}, {better} is better): {'; '.join(cells)};"
              f" change wins {wins}/{args.pairs}: {'gain shown' if gain else 'no gain shown'};"
              f" bound {bounds[name]:g}: {verdict(parent, change, better, bounds[name])}")
    for side in sides:
        print(f"{side} failed share: max {max(failed[side]):.4g}")
    lines = {side: src_lines(checkout) for side, checkout in sides.items()}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']}"
          f" ({lines['change'] - lines['parent']:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
