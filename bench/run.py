#!/usr/bin/env python3
"""translab benchmark: named workloads through ``translab.cli.main`` in one process.

Usage (from the repository root):

    python3 bench/run.py --workload graph40 --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20   # one row per workload
    python3 bench/run.py --smoke                                # tiny sizes, self-checks

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``run_s`` (median time of one pass of the workload's CLI calls),
``setup_s`` (median time to import translab and write the workload's input
files, measured in this process and in fresh probe processes) and
``peak_rss_mb``. Both times are in reference seconds of a ``PaceClock``
(see ``pace.py``), which takes out the drifting speed of a shared vCPU; the
wall times are printed and kept in the result file too. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones plus the tracing overhead.
Every pass is checked (see ``workloads.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Result files with run metadata go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io as textio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: BLAS threads of this process (at most nproc); fixed before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCES = BENCH / "references.json"

#: Set-up samples taken in fresh processes, besides the one in this process.
SETUP_PROBES = 4

PER_LAYER = (
    ("cli.bound.s", "s"), ("cli.brute.s", "s"), ("cli.generate.s", "s"),
    ("cli.train.s", "s"), ("cli.eval.s", "s"), ("cli.sweep.s", "s"), ("cli.calls", "count"),
    ("io.load_instance.s", "s"), ("io.save_corpus.s", "s"), ("io.save_corpus.bytes", "B"),
    ("io.load_corpus.s", "s"), ("io.load_corpus.bytes", "B"), ("io.save_encoders.s", "s"),
    ("io.write_csv.s", "s"), ("io.write_csv.bytes", "B"),
    ("distributions.tv_distance.calls", "count"), ("distributions.tv_distance.s", "s"),
    ("distributions.pushforward.calls", "count"), ("distributions.pushforward.s", "s"),
    ("impossibility.brute_force_min_error.calls", "count"),
    ("impossibility.brute_force_min_error.s", "s"),
    ("impossibility.encoder_tables", "count"), ("impossibility.feasible_tables", "count"),
    ("impossibility.feasible_ratio", "ratio"), ("impossibility.table_bytes", "B_computed"),
    ("impossibility.bound_report.s", "s"),
    ("affine.inverse.calls", "count"), ("affine.inverse.s", "s"),
    ("affine.smallest_gain.calls", "count"), ("affine.smallest_gain.s", "s"),
    ("affine.apply.calls", "count"), ("affine.apply.s", "s"),
    ("generative.sample.calls", "count"), ("generative.sample.s", "s"),
    ("generative.sample.points", "count"), ("generative.decode.s", "s"),
    ("generative.generate.calls", "count"), ("generative.generate.s", "s"),
    ("trainer.fit_edge.calls", "count"), ("trainer.fit_edge.s", "s"),
    ("trainer.anchor_spanning_tree.s", "s"), ("trainer.joint_refine.s", "s"),
    ("trainer.empirical_edge_loss.calls", "count"), ("trainer.empirical_edge_loss.s", "s"),
    ("trainer.refine.trials", "count"), ("trainer.refine.accept_ratio", "ratio"),
    ("evaluation.verify_chain_bound.s", "s"), ("evaluation.pairs", "count"),
    ("evaluation.population_points", "count"), ("evaluation.sample_complexity_sweep.s", "s"),
    ("evaluation.shortest_path_and_diameter.s", "s"),
    ("cli.self_s", "s"), ("io.self_s", "s"), ("distributions.self_s", "s"),
    ("impossibility.self_s", "s"), ("affine.self_s", "s"), ("generative.self_s", "s"),
    ("trainer.self_s", "s"), ("evaluation.self_s", "s"),
    ("trace.run_s", "s"), ("trace.untraced_run_s", "s"), ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no translab sources)."""


def configure_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread count was fixed")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def require_sources() -> None:
    if not (SRC / "translab" / "__init__.py").is_file():
        raise BenchError(f"no translab sources under {SRC}")


def import_translab():
    """Import translab from this checkout's ``src/`` (and nowhere else)."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import translab
    import translab.cli

    if Path(translab.__file__).resolve().parent != SRC / "translab":
        raise BenchError(f"translab imported from {translab.__file__}, not {SRC}")
    return translab.cli.main


# ---------------------------------------------------------------------------
# set-up


def setup(workload, workdir: Path, instance_seed: int, size: dict, clock=None):
    """Import translab and write the workload's inputs.

    Returns (wall seconds, reference seconds of ``clock`` or None, main, inputs).
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    start = perf_counter()
    ref_start = clock.now() if clock else 0.0
    main = import_translab()
    inputs = workload.write_inputs(workdir, instance_seed, size)
    ref_s = clock.now() - ref_start if clock else None
    return perf_counter() - start, ref_s, main, inputs


def probe_setup(workload_name: str, instance_seed: int, profile: str,
                workdir: Path) -> tuple[float, float]:
    """(wall, reference) set-up seconds in a fresh interpreter, which imports translab cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(instance_seed), "--profile", profile,
         "--probe-dir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    wall_s, ref_s = proc.stdout.strip().splitlines()[-1].split()
    return float(wall_s), float(ref_s)


# ---------------------------------------------------------------------------
# passes


def run_pass(main, argvs, tracer=None):
    """Run the CLI calls in order; returns (seconds from first call to last exit, calls)."""
    from workloads import CallResult

    calls = []
    start = perf_counter()
    for argv in argvs:
        entry = main if tracer is None else tracer.wrap(f"cli.{argv[0]}", main)
        out, err = textio.StringIO(), textio.StringIO()
        call_start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(list(argv))
            except SystemExit as exc:  # argparse rejects flags this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed call, as exit 1 would be
                traceback.print_exc()
                code = 1
        calls.append(CallResult(list(argv), code, perf_counter() - call_start,
                                err.getvalue()))
    return perf_counter() - start, calls


def flush_outputs(out: Path) -> None:
    """fsync a pass's output files, so their writeback never throttles the next pass."""
    for path in sorted(out.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def layer_metrics(tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* filled in by the caller)."""
    values: dict[str, float] = {}
    for name, (calls, total, _self) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
    counts = tracer.counts
    values.update(counts)
    values["cli.calls"] = sum(c for n, (c, _t, _s) in tracer.stats.items()
                              if n.startswith("cli."))
    tables = counts.get("impossibility.encoder_tables", 0)
    values["impossibility.feasible_ratio"] = (
        counts.get("impossibility.feasible_tables", 0) / tables if tables else 0.0)
    trials = counts.get("trainer.refine.trials", 0)
    values["trainer.refine.accept_ratio"] = (
        counts.get("trainer.refine.accepted", 0) / trials if trials else 0.0)
    values["evaluation.population_points"] = (
        counts.get("evaluation.sampled_points", 0) - counts.get("evaluation.fitted_points", 0))
    for layer, seconds in tracer.layer_self_seconds().items():
        values[f"{layer}.self_s"] = seconds
    values["trace.run_s"] = run_s
    values["trace.spans"] = len(tracer.span_start)
    return values


def recorded_instance(workload_name: str, profile: str, seed: int) -> tuple[int, dict]:
    """The instance seed a run seed selects from the recorded catalog, and its reference."""
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        table = json.load(fh).get(profile, {}).get(workload_name)
    if not table:
        raise BenchError(f"no recorded references for {workload_name}/{profile}")
    seeds = sorted(int(s) for s in table)
    instance_seed = seeds[seed % len(seeds)]
    return instance_seed, table[str(instance_seed)]


def measure(workload, seed: int, seconds: float, trace: bool, profile: str = "full",
            probes: int = SETUP_PROBES, reference: dict | None = None) -> dict:
    """Set up, then run passes for about ``seconds`` and check every one."""
    from pace import INTERVAL_S, REF_UNIT_S, PaceClock
    from tracing import Tracer
    from workloads import Checker

    size = workload.sizes[profile]
    instance_seed, recorded = recorded_instance(workload.name, profile, seed)
    if reference is None:
        reference = recorded
    base = OUT / f"{workload.name}-{os.getpid()}"
    try:
        setup_samples = [
            probe_setup(workload.name, instance_seed, profile, base / f"probe{i}")
            for i in range(probes)
        ]
        # End-to-end times are read from a pace clock. A traced run reports
        # wall times only, so that no span times the clock's calibration.
        pace = None if trace else PaceClock()
        with pace or contextlib.nullcontext():
            wall_s, ref_s, main, inputs = setup(workload, base / "inputs", instance_seed,
                                                size, pace)
            setup_samples.append((wall_s, ref_s))
            out = base / "out"
            argvs = workload.commands(inputs, out, instance_seed, size)
            checker = Checker()

            call_seconds: list[list[float]] = [[] for _ in argvs]
            ref_passes: list[float] = []

            def one_pass(tracer=None) -> float:
                if out.exists():
                    shutil.rmtree(out)
                out.mkdir(parents=True)
                ref_start = pace.now() if pace else 0.0
                try:
                    if tracer is not None:
                        tracer.install()
                    elapsed, calls = run_pass(main, argvs, tracer)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                if pace:
                    ref_passes.append(pace.now() - ref_start)
                workload.check(checker, out, calls, reference, size)
                flush_outputs(out)
                if tracer is None:
                    for seconds_of_call, call in zip(call_seconds, calls):
                        seconds_of_call.append(call.seconds)
                return elapsed

            # Passes start until ``seconds`` have elapsed, so a run holds at
            # least one pass and ends within one pass of ``seconds``.
            untraced, traced, last_tracer = [], [], None
            start = perf_counter()
            while not untraced or perf_counter() - start < seconds:
                untraced.append(one_pass())
                if trace:
                    last_tracer = Tracer()
                    elapsed = one_pass(last_tracer)
                    traced.append(layer_metrics(last_tracer, elapsed))

        result = {
            "workload": workload.name,
            "seed": seed,
            "instance_seed": instance_seed,
            "profile": profile,
            "trace": int(trace),
            "passes": len(untraced),
            "pass_s": untraced,
            "pass_ref_s": ref_passes,
            "setup_samples_s": [wall for wall, _ref in setup_samples],
            "setup_ref_samples_s": [ref for _wall, ref in setup_samples],
            "call_median_s": [
                {"call": " ".join(Path(a).name if os.sep in a else a for a in argv),
                 "median_s": statistics.median(times)}
                for argv, times in zip(argvs, call_seconds)
            ],
            "attempted": checker.attempted,
            "failed": checker.failed,
            "failed_frac": checker.failed / checker.attempted,
            "failures": checker.messages[:20],
        }
        if trace:
            run_s = statistics.median(untraced)
            names = sorted({k for values in traced for k in values})
            metrics = {k: statistics.median(v.get(k, 0.0) for v in traced) for k in names}
            metrics["trace.untraced_run_s"] = run_s
            metrics["trace.overhead_frac"] = metrics["trace.run_s"] / run_s - 1.0
            units = dict(PER_LAYER)
            result["metrics"] = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                                 for name, unit in PER_LAYER}
            result["other_trace_values"] = {k: v for k, v in metrics.items() if k not in units}
            result["idle"] = sorted(n for n, u in PER_LAYER
                                    if u in ("s", "count") and metrics.get(n, 0.0) == 0.0)
            result["missing_targets"] = last_tracer.missing
            OUT.mkdir(exist_ok=True)
            last_tracer.write_spans(OUT / f"spans_{workload.name}.csv")
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"] = {
                "run_s": {"value": statistics.median(ref_passes), "unit": "s"},
                "setup_s": {"value": statistics.median(result["setup_ref_samples_s"]),
                            "unit": "s"},
                "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            }
            result["wall_run_s"] = statistics.median(untraced)
            result["wall_setup_s"] = statistics.median(result["setup_samples_s"])
            result["pace"] = {
                "ref_unit_s": REF_UNIT_S,
                "interval_s": INTERVAL_S,
                "samples": len(pace.samples),
                "unit_s_p5_p50_p95": (statistics.quantiles(pace.samples, n=20)[::9]
                                      if len(pace.samples) > 1 else pace.samples),
                "calibration_s": pace.calibration_s,
            }
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


# ---------------------------------------------------------------------------
# metadata


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what show_config reports
        blas_name = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry points


def report(result: dict) -> dict:
    """Write the result file and print it readably; returns the contract's JSON line."""
    result["metadata"] = metadata()
    OUT.mkdir(exist_ok=True)
    suffix = "_trace" if result["trace"] else ""
    with open(OUT / f"BENCH_{result['workload']}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    meta = result["metadata"]
    print(f"workload={result['workload']} seed={result['seed']} "
          f"instance_seed={result['instance_seed']} passes={result['passes']} "
          f"blas_threads={meta['blas_threads']} nproc={meta['nproc']} "
          f"src_lines={meta['src_lines']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    if "wall_run_s" in result:
        print(f"  wall run_s = {result['wall_run_s']!r} s, wall setup_s = "
              f"{result['wall_setup_s']!r} s (run_s and setup_s are reference seconds)")
    print(f"  failed_frac = {result['failed_frac']!r} ({result['failed']}/{result['attempted']})")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    if result["trace"] and result["idle"]:
        print("  zero on this workload (layer or function not used): " + ", ".join(result["idle"]))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays separate."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, line))
    print(f"{'workload':10} {'setup_s':>10} {'run_s':>10} {'peak_rss_mb':>12} {'failed_frac':>12}")
    for name, line in rows:
        m = line["metrics"]
        print(f"{name:10} {m['setup_s']['value']:8.4f} s {m['run_s']['value']:8.4f} s "
              f"{m['peak_rss_mb']['value']:9.1f} MB {line['failed'] / line['attempted']:12.4g}")
    return 0 if all(line["correct"] for _name, line in rows) else 1


def smoke(args) -> int:
    """Every workload once at tiny sizes; asserts metric coverage, trace sums, checks."""
    from tracing import LAYERS
    from workloads import WORKLOADS

    declared = json.loads(BENCHMARK_JSON.read_text())
    problems = []
    for name, workload in WORKLOADS.items():
        plain = measure(workload, args.seed, 0, False, "smoke", probes=1)
        traced = measure(workload, args.seed, 0, True, "smoke", probes=1)
        for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
            emitted = result["metrics"]
            for metric in declared[key]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} not emitted with unit {metric['unit']}")
            if result["failed"]:
                problems.append(f"{name}: checks failed: {result['failures'][:3]}")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        tolerance = max(abs(m["trace.overhead_frac"]), 0.01)
        gap = abs(self_sum / m["trace.run_s"] - 1.0)
        if gap > tolerance:
            problems.append(f"{name}: layer self times sum to {self_sum:.6f} s, traced run_s "
                            f"{m['trace.run_s']:.6f} s (gap {gap:.4f} > {tolerance:.4f})")
        print(f"smoke {name}: run_s={plain['metrics']['run_s']['value']:.4f} s "
              f"traced={m['trace.run_s']:.4f} s self_sum={self_sum:.4f} s "
              f"overhead={m['trace.overhead_frac']:+.4f}")
        # A wrong reference must make the checks fail.
        _instance_seed, wrong = recorded_instance(name, "smoke", args.seed)
        wrong = dict(wrong)
        if wrong:
            key = sorted(wrong)[0]
            wrong[key] = wrong[key] * 1.01 + 1e-3
            bad = measure(workload, args.seed, 0, False, "smoke", probes=0, reference=wrong)
            if bad["failed"] == 0:
                problems.append(f"{name}: a wrong reference for {key} was not detected")
            else:
                print(f"smoke {name}: wrong reference detected "
                      f"(failed_frac={bad['failed_frac']:.4f})")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    if not problems:
        print("smoke ok")
    return 1 if problems else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--profile", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        configure_blas_threads()
        require_sources()
        from workloads import WORKLOADS

        if args.smoke:
            return smoke(args)
        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        if args.setup_probe:
            from pace import PaceClock

            with PaceClock() as pace:
                wall_s, ref_s, _main, _inputs = setup(workload, args.probe_dir, args.seed,
                                                      workload.sizes[args.profile], pace)
            print(f"{wall_s!r} {ref_s!r}")
            return 0
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        line = report(result)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
