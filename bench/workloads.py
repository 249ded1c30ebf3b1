"""Benchmark workloads: seeded input files, one pass of CLI calls, output checks.

Each workload writes its inputs once (set-up), then a pass is a fixed list of
``translab`` command lines run through ``translab.cli.main``. Checks judge
outcomes that any correct implementation must reproduce (exit codes, bound
relations, exact brute-force minima, fitted edge losses within a tolerance),
never byte-identical files, so later changes to numerics do not read as
failures.

Reference results are recorded for instance seeds ``0 .. CATALOG - 1`` by
``record.py``; a run seed ``s`` selects the ``s % n``-th of the ``n``
recorded instance seeds.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: Number of instance seeds with recorded reference results.
CATALOG = 32

#: Tolerances of the reference checks: brute-force minima are exact values of
#: the instance, fitted edge losses are least-squares residuals that another
#: correct solver reproduces to rounding.
BF_TOL = 1e-9
EDGE_LOSS_RTOL = 1e-6
EDGE_LOSS_ATOL = 1e-12


class Checker:
    """Counts operations (CLI calls and output checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


@dataclass
class CallResult:
    argv: list[str]
    code: int
    seconds: float
    stderr: str = ""


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_exit_codes(checker: Checker, calls: list[CallResult]) -> None:
    for call in calls:
        checker.check(
            call.code == 0,
            f"exit {call.code} from {' '.join(call.argv)}: {call.stderr.strip()[-300:]}",
        )


def _loss_matches(value: float, reference: float) -> bool:
    return abs(value - reference) <= EDGE_LOSS_ATOL + EDGE_LOSS_RTOL * abs(reference)


@dataclass
class Workload:
    """One named workload; ``size`` holds the parameters of the chosen profile."""

    name: str
    why: str
    sizes: dict = field(default_factory=dict)

    def write_inputs(self, workdir: Path, seed: int, size: dict) -> dict:
        raise NotImplementedError

    def commands(self, inputs: dict, out: Path, seed: int, size: dict) -> list[list[str]]:
        raise NotImplementedError

    def reference(self, out: Path, calls: list[CallResult], size: dict) -> dict:
        """Values a later run must reproduce, extracted from a pass's outputs."""
        raise NotImplementedError

    def check(self, checker: Checker, out: Path, calls, reference, size: dict) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# brute: closed-form bounds and exhaustive (g, h) search


class Brute(Workload):
    def write_inputs(self, workdir, seed, size):
        import numpy as np
        from translab import io
        from translab.impossibility import (
            random_many_to_many_instance,
            random_two_to_one_instance,
        )

        rng = np.random.default_rng([seed, 2008])
        files = {}
        made = 0
        # Only instances with the full sentence budget are kept, so every
        # search enumerates the same number of encoder tables.
        while made < size["m2m_instances"]:
            instance = random_many_to_many_instance(
                rng, n_languages=size["languages"], atom_budget=size["sentences"]
            )
            n_atoms = sum(len(j) for j in instance.joints.values())
            if n_atoms != size["sentences"]:
                continue
            path = workdir / f"m2m{made}.json"
            io.save_instance(instance, path)
            files[f"m2m{made}"] = path
            made += 1
        for i in range(size["two_to_one_instances"]):
            path = workdir / f"t2o{i}.json"
            io.save_instance(random_two_to_one_instance(rng), path)
            files[f"t2o{i}"] = path
        return files

    def commands(self, inputs, out, seed, size):
        eps = str(size["epsilon"])
        z = str(size["z_size"])
        argvs = []
        for key, path in inputs.items():
            argvs.append(["bound", "--instance", str(path), "--epsilon", eps,
                          "--out", str(out / f"bound_{key}")])
            objectives = ("sum", "avg", "max") if key.startswith("m2m") else ("sum",)
            for objective in objectives:
                argvs.append(["brute", "--instance", str(path), "--epsilon", eps,
                              "--z-size", z, "--objective", objective,
                              "--out", str(out / f"brute_{key}_{objective}")])
        argvs.append(["demo-worst-case", "--delta", "0.8", "--epsilon", eps,
                      "--out", str(out / "demo")])
        return argvs

    @staticmethod
    def _reports(out: Path) -> dict:
        reports = {}
        for path in sorted(out.glob("brute_*/brute_report.json")):
            reports[path.parent.name] = _read_json(path)["report"]
        demo = out / "demo" / "worst_case_report.json"
        if demo.exists():
            reports["demo"] = _read_json(demo)["report"]
        return reports

    def reference(self, out, calls, size):
        return {key: r["bf_value"] for key, r in self._reports(out).items()}

    def check(self, checker, out, calls, reference, size):
        _check_exit_codes(checker, calls)
        reports = self._reports(out)
        expected = {Path(c.argv[c.argv.index("--out") + 1]).name
                    for c in calls if c.argv[0] == "brute"} | {"demo"}
        checker.check(set(reports) == expected,
                      f"brute reports {sorted(reports)} != expected {sorted(expected)}")
        for key, report in sorted(reports.items()):
            bf = report["bf_value"]
            if not checker.check(bf is not None, f"{key}: no brute-force value"):
                continue
            # Many-to-many instances have max and avg bounds but no sum bound.
            bound = report[f"bound_{report['bf_objective']}"]
            if bound is not None:
                checker.check(bf >= bound - 1e-9, f"{key}: bf_value {bf} < bound {bound}")
            ref = reference.get(key)
            checker.check(ref is not None and abs(bf - ref) <= BF_TOL,
                          f"{key}: bf_value {bf!r} != recorded minimum {ref!r}")


# ---------------------------------------------------------------------------
# generative pipelines: generate -> train -> eval


def random_graph_document(seed: int, languages: int, chords: int, n: int) -> dict:
    """Random spanning tree plus ``chords`` extra edges, all with n pairs."""
    rng = random.Random(seed)
    width = len(str(languages - 1))
    names = [f"L{i:0{width}d}" for i in range(languages)]
    order = names[:]
    rng.shuffle(order)
    edges = set()
    for i in range(1, languages):
        parent = order[rng.randrange(i)]
        edges.add(tuple(sorted((order[i], parent))))
    target = len(edges) + chords
    while len(edges) < target:
        a, b = rng.sample(names, 2)
        edges.add(tuple(sorted((a, b))))
    return {
        "languages": names,
        "edges": [{"a": a, "b": b, "n": n} for a, b in sorted(edges)],
    }


class Pipeline(Workload):
    """generate -> train -> eval on one graph file.

    ``generate`` draws codecs and corpora from ``size["data_seed"]`` when the
    profile fixes one, else from the run's instance seed; ``eval`` always
    uses the instance seed for its population samples.
    """

    def graph_document(self, size: dict) -> dict:
        raise NotImplementedError

    def write_inputs(self, workdir, seed, size):
        path = workdir / "graph.json"
        path.write_text(json.dumps(self.graph_document(size), indent=1))
        return {"graph": path}

    def commands(self, inputs, out, seed, size):
        graph = str(inputs["graph"])
        data_seed = str(size.get("data_seed", seed))
        generate = ["generate", "--graph", graph, "--dim", str(size["dim"]),
                    "--seed", data_seed, "--out", str(out)]
        if size.get("sigma", 0) or size.get("nuisance_dim", 0):
            generate += ["--sigma", str(size["sigma"]),
                         "--nuisance-dim", str(size["nuisance_dim"])]
        return [
            generate,
            ["train", "--graph", graph, "--corpus-dir", str(out),
             "--sweeps", str(size["sweeps"]), "--seed", data_seed, "--out", str(out)],
            ["eval", "--graph", graph, "--codecs", str(out / "codecs.json"),
             "--encoders", str(out / "encoders.json"), "--samples", str(size["samples"]),
             "--seed", str(seed), "--out", str(out)],
        ]

    def reference(self, out, calls, size):
        return {f"{r['edge_a']}->{r['edge_b']}": float(r["empirical_loss"])
                for r in _read_csv(out / "edge_losses.csv")}

    def check(self, checker, out, calls, reference, size):
        _check_exit_codes(checker, calls)
        k = size["languages"]
        try:
            pairs = _read_csv(out / "pair_eval.csv")
            losses = self.reference(out, calls, size)
        except (OSError, csv.Error) as exc:
            checker.check(False, f"result table unreadable: {exc}")
            return
        checker.check(len(pairs) == k * (k - 1) // 2,
                      f"{len(pairs)} pair records, expected {k * (k - 1) // 2}")
        checker.check(all(_finite(p["measured_loss"]) and _finite(p["bound"]) for p in pairs),
                      "non-finite pair loss or bound")
        checker.check(all(math.isfinite(v) for v in losses.values()), "non-finite edge loss")
        checker.check(set(losses) == set(reference),
                      f"edges {sorted(set(losses) ^ set(reference))[:5]} differ from the reference")
        bad = [key for key in sorted(set(losses) & set(reference))
               if not _loss_matches(losses[key], reference[key])]
        checker.check(not bad, "edge losses differ from the reference: " + ", ".join(
            f"{key} {losses[key]!r} vs {reference[key]!r}" for key in bad[:5]))


class Graph40(Pipeline):
    def graph_document(self, size):
        return random_graph_document(size["graph_seed"], size["languages"], size["chords"],
                                     size["n"])


class BigCorpus(Pipeline):
    def graph_document(self, size):
        from translab.generative import six_language_demo_graph

        return six_language_demo_graph(size["n"]).to_dict()


# ---------------------------------------------------------------------------
# sweep: single-edge generalization gap


class Sweep(Workload):
    """``sweeps`` runs of ``translab sweep`` at the criterion-9 settings.

    The slope check of criterion 9 (-0.5 +- 0.15) is applied to the slope of
    the median gaps pooled over all runs of the pass, because the slope of
    one 20-trial run varies enough from draw to draw to leave the tolerance
    on some seeds of a correct implementation.
    """

    def write_inputs(self, workdir, seed, size):
        return {}

    def commands(self, inputs, out, seed, size):
        return [["sweep", "--dim", "1", "--nuisance-dim", "1", "--sigma", "0.05",
                 "--n-list", size["n_list"], "--trials", str(size["trials"]),
                 "--seed", str(seed + i * CATALOG), "--out", str(out / f"sweep{i}")]
                for i in range(size["sweeps"])]

    def reference(self, out, calls, size):
        return {}

    def check(self, checker, out, calls, reference, size):
        _check_exit_codes(checker, calls)
        gaps: dict[int, list[float]] = {}
        for i in range(size["sweeps"]):
            try:
                summary = _read_json(out / f"sweep{i}" / "sweep_summary.json")
                rows = _read_csv(out / f"sweep{i}" / "sweep.csv")
            except (OSError, ValueError, csv.Error) as exc:
                checker.check(False, f"sweep {i} output unreadable: {exc}")
                return
            checker.check(not summary["degenerate"], f"sweep {i} is degenerate")
            for row in rows:
                gaps.setdefault(int(row["n"]), []).append(float(row["gap"]))
        slope = log_log_slope({n: statistics.median(g) for n, g in gaps.items()})
        checker.check(abs(slope + 0.5) <= 0.15,
                      f"pooled sweep slope {slope:.4f} outside -0.5 +- 0.15")


def log_log_slope(medians: dict[int, float]) -> float:
    """Least-squares slope of log(median gap) against log(n)."""
    xs = [math.log(n) for n in sorted(medians)]
    ys = [math.log(max(medians[n], 1e-300)) for n in sorted(medians)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


WORKLOADS = {
    w.name: w
    for w in (
        Brute(
            "brute",
            "impossibility encoder enumeration and distributions checks; generative layers idle",
            {
                "full": {"m2m_instances": 3, "languages": 3, "sentences": 8,
                         "two_to_one_instances": 3, "z_size": 4, "epsilon": 0.1},
                "smoke": {"m2m_instances": 1, "languages": 3, "sentences": 6,
                          "two_to_one_instances": 1, "z_size": 3, "epsilon": 0.1},
            },
        ),
        # Refinement work (line-search backtracking) depends on the corpora,
        # so the training data is fixed and the run seed draws the
        # evaluation samples; otherwise the work of a pass varies by seed.
        Graph40(
            "graph40",
            "40-language graph: joint_refine and 780-pair chain bound, many tiny matrix ops",
            {
                "full": {"graph_seed": 0, "data_seed": 0, "languages": 40, "chords": 20,
                         "n": 500, "dim": 8, "nuisance_dim": 2, "sigma": 0.05, "sweeps": 2,
                         "samples": 2000},
                "smoke": {"graph_seed": 0, "data_seed": 0, "languages": 6, "chords": 2,
                          "n": 100, "dim": 3, "nuisance_dim": 1, "sigma": 0.05, "sweeps": 1,
                          "samples": 1000},
            },
        ),
        Sweep(
            "sweep",
            "criterion-9 sweep: few huge population integrals over fresh 100k-point corpora",
            {
                "full": {"n_list": "32,64,128,256,512,1024,2048,4096", "trials": 20,
                         "sweeps": 3},
                "smoke": {"n_list": "32,64,128,256,512,1024,2048,4096", "trials": 20,
                          "sweeps": 1},
            },
        ),
        BigCorpus(
            "bigcorpus",
            "six-language demo graph at 500k pairs per edge: NPZ write/read, large fit_edge, memory",
            {
                "full": {"languages": 6, "n": 500_000, "dim": 6, "sweeps": 0, "samples": 10000},
                "smoke": {"languages": 6, "n": 2000, "dim": 6, "sweeps": 0, "samples": 1000},
            },
        ),
    )
}
