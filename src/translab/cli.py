"""Command-line entry point: seeded experiment orchestration and file emission.

Exit codes: 0 success, 1 a verification mode observed violations beyond its
allowance, 2 invalid input (bad flags, malformed files, failed preconditions).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import io
from .errors import SchemaError, TranslabError
from .evaluation import sample_complexity_sweep, verify_chain_bound
from .generative import (
    ROW_BLOCK,
    EdgeDraws,
    FunctionClassSpec,
    LatentSampler,
    TranslationGraph,
    corpus_meta,
    sample_randomized_codecs,
)
from .impossibility import (
    MAX_Z_SIZE,
    bound_report,
    brute_force_min_error,
    make_worst_case,
)
from .trainer import fit_edge, fit_joint

class ValidationFailure(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``translab`` parser, built once per process and reused by every call.

    ``parse_args`` leaves the parser unchanged: each call fills a fresh
    namespace with its own defaults.
    """
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

    p = sub.add_parser("brute", help="bounds plus the exhaustive (g, h) minimum")
    common(p)
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
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

    p = sub.add_parser("train", help="fit edges, then every encoder and decoder jointly")
    common(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--corpus-dir", type=Path, required=True)
    p.add_argument(
        "--sweeps", type=int, default=0, help="ignored: the joint fit is in closed form"
    )

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
    if config.out is None:
        if config.mode in ("generate", "train", "eval", "sweep"):
            violations.append("out: required for this mode")
    else:
        existing = next(p for p in (config.out, *config.out.parents) if p.exists())
        if not existing.is_dir():
            violations.append(f"out: not a directory: {existing}")
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
    """The ``--instance`` file and its id, the file stem."""
    return io.load_instance(config.instance), config.instance.stem


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
    _print(
        f"bound_sum={report.bound_sum:.6g} bound_max={report.bound_max:.6g}"
        f" bound_avg={report.bound_avg:.6g}"
    )
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
        _print(
            f"objective={config.objective} bf_value={brute.value:.6g}"
            f" bound={report.bound_for(config.objective):.6g}"
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
        "spec": io.spec_to_dict(spec),
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
    if graph.edges:
        _write_corpora(config, graph.edges, codecs, sampler)
    summary["edges"] = [[a, b] for a, b, _n in graph.edges]
    io.write_summary_json(summary, config.out / "generate_summary.json")
    return 0


def _write_corpora(config, edges, codecs, sampler) -> None:
    """Draw each edge's pairs and stream them into its corpus file, in edge order.

    Two stages on two threads: while this thread decodes edge i's draws a row
    block at a time and writes each block to the file, one worker thread
    draws edge i + 1 into the other of two ``EdgeDraws``. So two edges'
    draws and one row block are held, never a corpus. An edge of one row
    block is drawn here, after the edge before it is written: its draw
    takes less time than handing it to the worker and back.
    """
    from concurrent.futures import ThreadPoolExecutor

    codec = next(iter(codecs.values()))
    capacity = max(n for _a, _b, n in edges)
    slots = [EdgeDraws(capacity, sampler.dim, codec.nuisance_dim) for _ in range(2)]

    def draw(i: int) -> EdgeDraws:
        a, b, n = edges[i]
        return slots[i % 2].draw((a, b), codecs, n, sampler, config.seed)

    draws = draw(0)
    with ThreadPoolExecutor(max_workers=1) as worker:
        for i, (a, b, n) in enumerate(edges):
            following = edges[i + 1][2] if i + 1 < len(edges) else 0
            pending = worker.submit(draw, i + 1) if following > ROW_BLOCK else None
            io.write_corpus(
                config.out / io.corpus_filename((a, b)),
                (a, b),
                corpus_meta((a, b), codecs, n, sampler, config.seed),
                n,
                codec.decoder.dim,
                draws.decode,
            )
            _print(f"corpus {a}->{b} n={n}")
            if pending is not None:
                draws = pending.result()
            elif following:
                draws = draw(i + 1)


def _connected_graph(path) -> TranslationGraph:
    """The graph at ``path``; a disconnected one fails naming the file, before any other read."""
    graph = io.load_graph(path)
    if not graph.is_connected():
        raise SchemaError(f"{path}: translation graph is not connected")
    return graph


def _nuisance_dim(path, corpus, first: int | None) -> int:
    """The corpus's ``meta["nuisance_dim"]``: an integer in [0, dim), and ``first`` if given."""
    k = corpus.meta.get("nuisance_dim")
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < corpus.dim:
        raise SchemaError(
            f"{path}: corpus field 'meta' key 'nuisance_dim' must be an integer in"
            f" [0, {corpus.dim}), got {k!r}"
        )
    if first is not None and k != first:
        raise SchemaError(
            f"{path}: corpus field 'meta' key 'nuisance_dim' is {k}, but the first"
            f" corpus's is {first}"
        )
    return k


def _run_train(config) -> int:
    graph = _connected_graph(config.graph)
    if not graph.edges:
        raise SchemaError(f"{config.graph}: graph has no edges; train needs at least one")
    # One corpus at a time: each is fitted and dropped before the next loads;
    # its Gram stays for the joint fit.
    results, nuisance = [], None
    for edge in graph.edge_pairs():
        path = config.corpus_dir / io.corpus_filename(edge)
        corpus = io.load_corpus(path)
        if corpus.edge != edge:
            raise SchemaError(
                f"{path}: corpus is for edge {corpus.edge}, but the graph edge"
                f" {edge} loads from this file"
            )
        if results and corpus.dim != results[0].transform.dim:
            raise SchemaError(
                f"{path}: corpus has dimension {corpus.dim}, but the first corpus"
                f" has dimension {results[0].transform.dim}"
            )
        nuisance = _nuisance_dim(path, corpus, nuisance)
        try:
            results.append(fit_edge(corpus))
        except TranslabError as exc:
            raise type(exc)(f"{path}: edge {edge[0]}->{edge[1]}: {exc}") from exc
        del corpus
    latent_dim = results[0].transform.dim - nuisance
    try:
        fit = fit_joint(results, latent_dim)
    except TranslabError as exc:
        raise type(exc)(f"{config.graph}: {exc}") from exc
    io.save_encoders(fit.estimate, config.out / "encoders.json")
    io.write_edge_loss_csv(results, config.out / "edge_losses.csv")
    for result in results:
        _print(
            f"edge {result.edge[0]}->{result.edge[1]} n={result.n}"
            f" loss={result.empirical_loss:.6g}"
        )
    io.write_summary_json(
        {
            "seed": config.seed,
            "latent_dim": latent_dim,
            "edges": {f"{a}->{b}": loss for (a, b), loss in fit.edge_losses.items()},
            "objective": fit.objective,
            "eigenvalues": list(fit.eigenvalues),
            "gap": fit.gap,
        },
        config.out / "train_summary.json",
    )
    return 0


def _run_eval(config) -> int:
    graph = _connected_graph(config.graph)
    if len(graph.languages) < 2:
        raise SchemaError(
            f"{config.graph}: graph has fewer than two languages; eval needs at least two"
        )
    spec, codecs = io.load_codecs(config.codecs)
    estimate, _enc_spec = io.load_encoders(config.encoders)
    for lang in graph.languages:
        if lang not in codecs:
            raise SchemaError(f"{config.codecs}: no codec for graph language {lang!r}")
        if lang not in estimate.encoders:
            raise SchemaError(f"{config.encoders}: no encoder for graph language {lang!r}")
        dim, codec_dim = estimate.encoders[lang].dim, codecs[lang].decoder.dim
        if dim != codec_dim:
            raise SchemaError(
                f"{config.encoders}: encoder {lang!r} has dimension {dim},"
                f" but its codec in {config.codecs} has dimension {codec_dim}"
            )
    records = verify_chain_bound(estimate, graph, codecs, spec)
    # Records cover every language pair along its shortest path.
    diameter = max(r.path_len for r in records)
    io.write_pair_eval_csv(records, config.out / "pair_eval.csv")
    n_false = sum(1 for r in records if not r.holds)
    fraction_false = n_false / len(records)
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
