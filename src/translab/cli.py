"""Command-line entry point: seeded experiment orchestration and file emission.

Exit codes: 0 success, 1 a verification mode observed violations beyond its
allowance, 2 invalid input (bad flags, malformed files, failed preconditions).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import io
from .errors import SchemaError, TranslabError
from .evaluation import sample_complexity_sweep, verify_chain_bound
from .generative import (
    FunctionClassSpec,
    LatentSampler,
    randomized_generate,
    sample_randomized_codecs,
)
from .impossibility import (
    MAX_Z_SIZE,
    bound_report,
    brute_force_min_error,
    make_worst_case,
)
from .trainer import TrainConfig, anchor_spanning_tree, fit_edge, joint_refine

MODES = ("bound", "brute", "demo-worst-case", "generate", "train", "eval", "sweep")


@dataclass
class ExperimentConfig:
    mode: str
    instance: Path | None = None
    graph: Path | None = None
    codecs: Path | None = None
    corpus_dir: Path | None = None
    encoders: Path | None = None
    out: Path | None = None
    instance_id: str = ""
    epsilon: float = 0.0
    delta: float = 0.0
    z_size: int = 2
    objective: str = "sum"
    dim: int = 4
    radius: float = 1.0
    rho: float = 2.0
    offset_bound: float = 1.0
    sigma: float = 0.0
    nuisance_dim: int = 0
    n_list: list[int] = field(default_factory=list)
    trials: int = 20
    samples: int = 10_000
    holds_allowance: float = 0.05
    anchor: str | None = None
    sweeps: int = 0
    ridge: float = 1e-10
    seed: int = 0


class ValidationFailure(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translab",
        description="Bounds, brute-force verification, and generative experiments.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("bound", help="evaluate the closed-form lower bounds")
    common(p)
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--instance-id", default="")

    p = sub.add_parser("brute", help="bounds plus the exhaustive (g, h) minimum")
    common(p)
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--instance-id", default="")
    p.add_argument("--z-size", type=int, default=2)
    p.add_argument("--objective", default="sum", choices=("sum", "max", "avg"))

    p = sub.add_parser("demo-worst-case", help="construct and verify the worst case")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--z-size", type=int, default=2)

    p = sub.add_parser("generate", help="sample codecs and per-edge corpora")
    common(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--offset-bound", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--nuisance-dim", type=int, default=0)

    p = sub.add_parser("train", help="fit edges and anchor per-language encoders")
    common(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--corpus-dir", type=Path, required=True)
    p.add_argument("--anchor", default=None)
    p.add_argument("--sweeps", type=int, default=0)
    p.add_argument("--ridge", type=float, default=1e-10)

    p = sub.add_parser("eval", help="verify the chained path bound on every pair")
    common(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--codecs", type=Path, required=True)
    p.add_argument("--encoders", type=Path, required=True)
    p.add_argument(
        "--samples", type=int, default=10_000,
        help="ignored: population losses are computed in closed form",
    )
    p.add_argument("--holds-allowance", type=float, default=0.05)

    p = sub.add_parser("sweep", help="generalization-gap sweep on a single edge")
    common(p)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--offset-bound", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--nuisance-dim", type=int, default=1)
    p.add_argument("--n-list", default="32,64,128,256,512,1024,2048,4096")
    p.add_argument("--trials", type=int, default=20)
    return parser


def parse_and_validate(argv) -> ExperimentConfig:
    """Parse flags into a config, collecting every range violation (not just the first)."""
    namespace = _build_parser().parse_args(argv)
    values = vars(namespace)
    config = ExperimentConfig(mode=values.pop("mode"))
    for key, value in values.items():
        setattr(config, key.replace("-", "_"), value)
    if isinstance(config.n_list, str):
        try:
            config.n_list = [int(tok) for tok in config.n_list.split(",") if tok.strip()]
        except ValueError:
            raise ValidationFailure(["n_list: entries must be integers"]) from None

    violations = [
        f"{name}: must be finite, got {value}"
        for name, value in vars(config).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]

    def check(ok: bool, message: str):
        if not ok:
            violations.append(message)

    check(config.epsilon >= 0, f"epsilon: must be nonnegative, got {config.epsilon}")
    check(config.seed >= 0, f"seed: must be nonnegative, got {config.seed}")
    if config.mode == "demo-worst-case":
        check(0 <= config.delta <= 1, f"delta: must lie in [0, 1], got {config.delta}")
    if config.mode in ("brute", "demo-worst-case"):
        check(
            1 <= config.z_size <= MAX_Z_SIZE,
            f"z_size: must lie in [1, {MAX_Z_SIZE}], got {config.z_size}",
        )
    if config.mode in ("generate", "sweep"):
        check(config.dim >= 1, f"dim: must be at least 1, got {config.dim}")
        check(config.radius > 0, f"radius: must be positive, got {config.radius}")
        check(config.rho >= 1, f"rho: must be at least 1, got {config.rho}")
        check(
            config.offset_bound >= 0,
            f"offset_bound: must be nonnegative, got {config.offset_bound}",
        )
        check(config.sigma >= 0, f"sigma: must be nonnegative, got {config.sigma}")
        check(
            config.nuisance_dim >= 0,
            f"nuisance_dim: must be nonnegative, got {config.nuisance_dim}",
        )
    if config.mode == "sweep":
        check(len(config.n_list) >= 2, "n_list: need at least two sizes")
        check(
            config.n_list == sorted(set(config.n_list)),
            "n_list: must be strictly ascending",
        )
        check(all(n >= 1 for n in config.n_list), "n_list: sizes must be positive")
        check(config.trials >= 5, f"trials: must be at least 5, got {config.trials}")
    if config.mode == "eval":
        check(
            0 <= config.holds_allowance <= 1,
            f"holds_allowance: must lie in [0, 1], got {config.holds_allowance}",
        )
    if config.mode == "train":
        check(config.sweeps >= 0, f"sweeps: must be nonnegative, got {config.sweeps}")
        check(config.ridge >= 0, f"ridge: must be nonnegative, got {config.ridge}")
    if config.mode in ("generate", "train", "eval", "sweep"):
        check(config.out is not None, "out: required for this mode")
    for name in ("instance", "graph", "codecs", "encoders", "corpus_dir"):
        path = getattr(config, name)
        if path is not None and not Path(path).exists():
            violations.append(f"{name}: path not found: {path}")

    if violations:
        raise ValidationFailure(violations)
    return config


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _run_bound(config: ExperimentConfig) -> int:
    instance = io.load_instance(config.instance)
    instance_id = config.instance_id or Path(config.instance).stem
    report = bound_report(instance, config.epsilon, instance_id)
    if report.kind == "two_to_one":
        _print(f"bound_sum={report.bound_sum:.6g}")
    else:
        _print(f"bound_max={report.bound_max:.6g} bound_avg={report.bound_avg:.6g}")
    if config.out:
        io.write_summary_json(
            {"seed": config.seed, "report": io.bound_report_to_dict(report)},
            Path(config.out) / "bound_report.json",
        )
        io.write_bound_report_csv([report], Path(config.out) / "bound_report.csv")
    return 0


def _run_brute(config: ExperimentConfig) -> int:
    instance = io.load_instance(config.instance)
    instance_id = config.instance_id or Path(config.instance).stem
    brute = brute_force_min_error(
        instance, config.z_size, config.epsilon, config.objective
    )
    report = bound_report(instance, config.epsilon, instance_id, brute)
    if not brute.feasible:
        _print(
            f"objective={config.objective} infeasible=true z_size={config.z_size}"
        )
    else:
        bound_value = {
            "sum": report.bound_sum,
            "max": report.bound_max,
            "avg": report.bound_avg,
        }[config.objective]
        bound_text = "" if bound_value is None else f" bound={bound_value:.6g}"
        _print(
            f"objective={config.objective} bf_value={brute.value:.6g}{bound_text}"
            f" holds={str(report.holds).lower()}"
        )
    if config.out:
        io.write_summary_json(
            {"seed": config.seed, "report": io.bound_report_to_dict(report)},
            Path(config.out) / "brute_report.json",
        )
        io.write_bound_report_csv([report], Path(config.out) / "brute_report.csv")
    return 1 if report.holds is False else 0


def _run_demo_worst_case(config: ExperimentConfig) -> int:
    instance = make_worst_case(config.delta)
    brute = brute_force_min_error(instance, config.z_size, config.epsilon, "sum")
    report = bound_report(instance, config.epsilon, f"worst-case-{config.delta}", brute)
    _print(
        f"bound_sum={report.bound_sum:.6g} bf_value={brute.value:.6g}"
        f" holds={str(report.holds).lower()}"
    )
    if config.out:
        io.save_instance(instance, Path(config.out) / "worst_case_instance.json")
        io.write_summary_json(
            {"seed": config.seed, "report": io.bound_report_to_dict(report)},
            Path(config.out) / "worst_case_report.json",
        )
        io.write_bound_report_csv([report], Path(config.out) / "worst_case_report.csv")
    return 1 if report.holds is False else 0


def _run_generate(config: ExperimentConfig) -> int:
    graph = io.load_graph(config.graph)
    for a, b, n in graph.edges:
        if n < 1:
            raise SchemaError(
                f"{config.graph}: edge {a}->{b} has n={n}; generate needs at least"
                " one pair per edge"
            )
    spec = FunctionClassSpec(config.dim, config.radius, config.rho, config.offset_bound)
    codec_list = sample_randomized_codecs(
        spec, len(graph.languages), config.nuisance_dim, config.sigma, config.seed
    )
    codecs = dict(zip(graph.languages, codec_list))
    out = Path(config.out)
    io.save_codecs(codecs, spec, out / "codecs.json")
    sampler = LatentSampler(spec.dim, spec.radius, config.seed)
    for edge in graph.edge_pairs():
        n = graph.sample_count(*edge)
        # Unnamed, so the corpus is freed before the next edge is drawn.
        io.save_corpus(
            randomized_generate(edge, codecs, n, sampler, config.seed),
            out / io.corpus_filename(edge),
        )
        _print(f"corpus {edge[0]}->{edge[1]} n={n}")
    io.write_summary_json(
        {
            "seed": config.seed,
            "spec": spec.to_dict(),
            "sigma": config.sigma,
            "nuisance_dim": config.nuisance_dim,
            "edges": [list(e) for e in graph.edge_pairs()],
        },
        out / "generate_summary.json",
    )
    return 0


def _run_train(config: ExperimentConfig) -> int:
    graph = io.load_graph(config.graph)
    # One corpus at a time: each is fitted and dropped before the next loads,
    # unless refinement needs them all.
    corpora, results = [], []
    for edge in graph.edge_pairs():
        path = Path(config.corpus_dir) / io.corpus_filename(edge)
        corpus = io.load_corpus(path)
        if corpus.edge != edge:
            raise SchemaError(
                f"{path}: corpus is for edge {corpus.edge}, but the graph edge"
                f" {edge} loads from this file"
            )
        results.append(fit_edge(corpus, config.ridge))
        if config.sweeps > 0:
            corpora.append(corpus)
        del corpus
    anchor = config.anchor or min(graph.languages)
    estimate = anchor_spanning_tree(graph, results, anchor)
    if config.sweeps > 0:
        estimate = joint_refine(
            estimate,
            corpora,
            TrainConfig(anchor=anchor, sweeps=config.sweeps, ridge=config.ridge),
        )
    out = Path(config.out)
    io.save_encoders(estimate, out / "encoders.json")
    io.write_edge_loss_csv(results, out / "edge_losses.csv")
    for result in results:
        _print(
            f"edge {result.edge[0]}->{result.edge[1]} n={result.n}"
            f" loss={result.empirical_loss:.6g}"
        )
    io.write_summary_json(
        {
            "seed": config.seed,
            "anchor": anchor,
            "sweeps": config.sweeps,
            "edges": {
                f"{r.edge[0]}->{r.edge[1]}": r.empirical_loss for r in results
            },
        },
        out / "train_summary.json",
    )
    return 0


def _run_eval(config: ExperimentConfig) -> int:
    graph = io.load_graph(config.graph)
    graph.require_connected()
    spec, codecs = io.load_codecs(config.codecs)
    estimate, _enc_spec = io.load_encoders(config.encoders)
    records = verify_chain_bound(estimate, graph, codecs, spec)
    # Records cover every language pair along its shortest path.
    diameter = max((r.path_len for r in records), default=0)
    out = Path(config.out)
    io.write_pair_eval_csv(records, out / "pair_eval.csv")
    n_false = sum(1 for r in records if not r.holds)
    fraction_false = n_false / len(records) if records else 0.0
    io.write_summary_json(
        {
            "seed": config.seed,
            "diameter": diameter,
            "n_pairs": len(records),
            "holds_false": n_false,
            "holds_false_fraction": fraction_false,
        },
        out / "eval_summary.json",
    )
    for r in records:
        _print(
            f"pair {r.src}->{r.dst} path_len={r.path_len}"
            f" loss={r.measured_loss:.6g} bound={r.bound:.6g} holds={str(r.holds).lower()}"
        )
    return 1 if fraction_false > config.holds_allowance else 0


def _run_sweep(config: ExperimentConfig) -> int:
    spec = FunctionClassSpec(config.dim, config.radius, config.rho, config.offset_bound)
    edge = ("A", "B")
    codec_list = sample_randomized_codecs(
        spec, 2, config.nuisance_dim, config.sigma, config.seed
    )
    codecs = dict(zip(edge, codec_list))
    sampler = LatentSampler(spec.dim, spec.radius, config.seed)
    result = sample_complexity_sweep(
        edge, codecs, config.n_list, config.trials, sampler, config.seed
    )
    out = Path(config.out)
    io.write_sweep_csv(result.rows, out / "sweep.csv")
    io.write_summary_json(
        {
            "seed": config.seed,
            "spec": spec.to_dict(),
            "sigma": config.sigma,
            "nuisance_dim": config.nuisance_dim,
            "n_list": list(config.n_list),
            "trials": config.trials,
            "slope": result.slope,
            "degenerate": result.degenerate,
        },
        out / "sweep_summary.json",
    )
    if result.degenerate:
        _print("sweep degenerate=true (all gaps below 1e-10); slope undefined")
    else:
        _print(f"sweep slope={result.slope:.4f}")
    return 0


_RUNNERS = {
    "bound": _run_bound,
    "brute": _run_brute,
    "demo-worst-case": _run_demo_worst_case,
    "generate": _run_generate,
    "train": _run_train,
    "eval": _run_eval,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> int:
    return _RUNNERS[config.mode](config)


def main(argv=None) -> int:
    try:
        config = parse_and_validate(argv)
    except ValidationFailure as failure:
        for violation in failure.violations:
            sys.stderr.write(f"invalid: {violation}\n")
        return 2
    try:
        return run(config)
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return 2
    except TranslabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
