"""Command-line entry point: seeded experiment orchestration and file emission.

Exit codes: 0 success, 1 a verification mode observed violations beyond its
allowance, 2 invalid input (bad flags, malformed files, failed preconditions).
"""

from __future__ import annotations

import argparse
import math
import sys
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
from .trainer import anchor_spanning_tree, fit_edge, joint_refine

MODES = ("bound", "brute", "demo-worst-case", "generate", "train", "eval", "sweep")


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


#: Range rules, checked in this order for each setting the mode has:
#: (setting, test, requirement; ``{}`` takes the value).
_RANGES = (
    ("epsilon", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("seed", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("delta", lambda v: 0 <= v <= 1, "must lie in [0, 1], got {}"),
    ("z_size", lambda v: 1 <= v <= MAX_Z_SIZE, f"must lie in [1, {MAX_Z_SIZE}], got {{}}"),
    ("dim", lambda v: v >= 1, "must be at least 1, got {}"),
    ("radius", lambda v: v > 0, "must be positive, got {}"),
    ("rho", lambda v: v >= 1, "must be at least 1, got {}"),
    ("offset_bound", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("sigma", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("nuisance_dim", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("n_list", lambda v: len(v) >= 2, "need at least two sizes"),
    ("n_list", lambda v: v == sorted(set(v)), "must be strictly ascending"),
    ("n_list", lambda v: all(n >= 1 for n in v), "sizes must be positive"),
    ("trials", lambda v: v >= 5, "must be at least 5, got {}"),
    ("holds_allowance", lambda v: 0 <= v <= 1, "must lie in [0, 1], got {}"),
    ("sweeps", lambda v: v >= 0, "must be nonnegative, got {}"),
    ("ridge", lambda v: v >= 0, "must be nonnegative, got {}"),
)


def parse_and_validate(argv) -> argparse.Namespace:
    """Parse flags, collecting every range violation (not just the first)."""
    config = _build_parser().parse_args(argv)
    values = vars(config)
    if config.mode == "sweep":
        try:
            config.n_list = [int(tok) for tok in config.n_list.split(",") if tok.strip()]
        except ValueError:
            raise ValidationFailure(["n_list: entries must be integers"]) from None

    rules = [rule for rule in _RANGES if rule[0] in values]
    violations = [
        f"{name}: must be finite, got {values[name]}"
        for name in dict.fromkeys(name for name, _test, _text in rules)
        if isinstance(values[name], float) and not math.isfinite(values[name])
    ]
    violations += [
        f"{name}: {text.format(values[name])}"
        for name, test, text in rules
        if not test(values[name])
    ]
    if config.mode in ("generate", "train", "eval", "sweep") and config.out is None:
        violations.append("out: required for this mode")
    for name in ("instance", "graph", "codecs", "encoders", "corpus_dir"):
        path = values.get(name)
        if path is not None and not Path(path).exists():
            violations.append(f"{name}: path not found: {path}")

    if violations:
        raise ValidationFailure(violations)
    return config


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _load_instance(config):
    """The ``--instance`` file and its id (``--instance-id``, else the file stem)."""
    return io.load_instance(config.instance), config.instance_id or config.instance.stem


def _write_report(config, report, stem: str) -> None:
    """``<stem>.json`` and ``<stem>.csv`` under ``--out``, if it is given."""
    if config.out:
        io.write_summary_json(
            {"seed": config.seed, "report": io.bound_report_to_dict(report)},
            config.out / f"{stem}.json",
        )
        io.write_bound_report_csv([report], config.out / f"{stem}.csv")


def _run_bound(config) -> int:
    instance, instance_id = _load_instance(config)
    report = bound_report(instance, config.epsilon, instance_id)
    if report.kind == "two_to_one":
        _print(f"bound_sum={report.bound_sum:.6g}")
    else:
        _print(f"bound_max={report.bound_max:.6g} bound_avg={report.bound_avg:.6g}")
    _write_report(config, report, "bound_report")
    return 0


def _run_brute(config) -> int:
    instance, instance_id = _load_instance(config)
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
    _write_report(config, report, "brute_report")
    return 1 if report.holds is False else 0


def _run_demo_worst_case(config) -> int:
    instance = make_worst_case(config.delta)
    brute = brute_force_min_error(instance, config.z_size, config.epsilon, "sum")
    report = bound_report(instance, config.epsilon, f"worst-case-{config.delta}", brute)
    _print(
        f"bound_sum={report.bound_sum:.6g} bf_value={brute.value:.6g}"
        f" holds={str(report.holds).lower()}"
    )
    if config.out:
        io.save_instance(instance, config.out / "worst_case_instance.json")
    _write_report(config, report, "worst_case_report")
    return 1 if report.holds is False else 0


def _draw_codecs(config, languages):
    """The spec, one codec per language and the latent sampler of ``generate`` and ``sweep``.

    Also returns the summary fields that record them.
    """
    spec = FunctionClassSpec(config.dim, config.radius, config.rho, config.offset_bound)
    codec_list = sample_randomized_codecs(
        spec, len(languages), config.nuisance_dim, config.sigma, config.seed
    )
    summary = {
        "seed": config.seed,
        "spec": spec.to_dict(),
        "sigma": config.sigma,
        "nuisance_dim": config.nuisance_dim,
    }
    sampler = LatentSampler(spec.dim, spec.radius, config.seed)
    return spec, dict(zip(languages, codec_list)), sampler, summary


def _run_generate(config) -> int:
    graph = io.load_graph(config.graph)
    for a, b, n in graph.edges:
        if n < 1:
            raise SchemaError(
                f"{config.graph}: edge {a}->{b} has n={n}; generate needs at least"
                " one pair per edge"
            )
    spec, codecs, sampler, summary = _draw_codecs(config, graph.languages)
    io.save_codecs(codecs, spec, config.out / "codecs.json")
    for a, b, n in graph.edges:
        # Unnamed, so the corpus is freed before the next edge is drawn.
        io.save_corpus(
            randomized_generate((a, b), codecs, n, sampler, config.seed),
            config.out / io.corpus_filename((a, b)),
        )
        _print(f"corpus {a}->{b} n={n}")
    summary["edges"] = [[a, b] for a, b, _n in graph.edges]
    io.write_summary_json(summary, config.out / "generate_summary.json")
    return 0


def _run_train(config) -> int:
    graph = io.load_graph(config.graph)
    # One corpus at a time: each is fitted and dropped before the next loads,
    # unless refinement needs them all.
    corpora, results = [], []
    for edge in graph.edge_pairs():
        path = config.corpus_dir / io.corpus_filename(edge)
        corpus = io.load_corpus(path)
        if corpus.edge != edge:
            raise SchemaError(
                f"{path}: corpus is for edge {corpus.edge}, but the graph edge"
                f" {edge} loads from this file"
            )
        try:
            results.append(fit_edge(corpus, config.ridge))
        except TranslabError as exc:
            raise type(exc)(f"{path}: edge {edge[0]}->{edge[1]}: {exc}") from exc
        if config.sweeps > 0:
            corpora.append(corpus)
        del corpus
    anchor = config.anchor or min(graph.languages)
    estimate = anchor_spanning_tree(graph, results, anchor)
    if config.sweeps > 0:
        estimate = joint_refine(estimate, corpora, config.sweeps, config.ridge)
    io.save_encoders(estimate, config.out / "encoders.json")
    io.write_edge_loss_csv(results, config.out / "edge_losses.csv")
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
        config.out / "train_summary.json",
    )
    return 0


def _run_eval(config) -> int:
    graph = io.load_graph(config.graph)
    graph.require_connected()
    spec, codecs = io.load_codecs(config.codecs)
    estimate, _enc_spec = io.load_encoders(config.encoders)
    records = verify_chain_bound(estimate, graph, codecs, spec)
    # Records cover every language pair along its shortest path.
    diameter = max((r.path_len for r in records), default=0)
    io.write_pair_eval_csv(records, config.out / "pair_eval.csv")
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
        config.out / "eval_summary.json",
    )
    for r in records:
        _print(
            f"pair {r.src}->{r.dst} path_len={r.path_len}"
            f" loss={r.measured_loss:.6g} bound={r.bound:.6g} holds={str(r.holds).lower()}"
        )
    return 1 if fraction_false > config.holds_allowance else 0


def _run_sweep(config) -> int:
    edge = ("A", "B")
    _spec, codecs, sampler, summary = _draw_codecs(config, edge)
    result = sample_complexity_sweep(
        edge, codecs, config.n_list, config.trials, sampler, config.seed
    )
    io.write_sweep_csv(result.rows, config.out / "sweep.csv")
    summary.update(
        n_list=config.n_list,
        trials=config.trials,
        slope=result.slope,
        degenerate=result.degenerate,
    )
    io.write_summary_json(summary, config.out / "sweep_summary.json")
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


def run(config: argparse.Namespace) -> int:
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
