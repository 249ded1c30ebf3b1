"""Population losses, zero-shot composites, chained path bounds, and sample-size formulas.

Population losses are exact. A sentence is an affine image of a latent uniform
on the radius-B ball and truncated-normal nuisance noise, both with mean zero
and known second moments, and every learned map is affine, so the squared gap
between a learned map and its reference is a sum of squares in those moments.
The measured loss of a learned composite is its squared gap to the
ground-truth composite on the source sentence distribution. The reference is
the conditional-mean translation (nuisance noise decoded at its mean seed), so
a perfectly trained map scores zero with or without noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .affine import AffineMap
from .errors import DomainError
from .generative import (
    NOISE_VARIANCE,
    EdgeDraws,
    FunctionClassSpec,
    LatentSampler,
    RandomizedCodec,
    TranslationGraph,
    latent_second_moment,
    stream_gram,
)
from .seeding import derive_seed
from .trainer import EncoderEstimate, fit_gram


#: Most pairs whose population losses ``verify_chain_bound`` stacks at once.
PAIR_BLOCK = 64


def _affine_losses(
    maps: AffineMap,
    src: RandomizedCodec,
    dst: RandomizedCodec,
    radius: float,
    target_noise: bool,
) -> list[float]:
    """E||T_j(x) - y||^2 for each map T_j(x) = A_j x + c_j of a stack.

    x is decoded by codec j of the codec stack ``src`` and y by codec j of
    ``dst`` from one latent (a codec stack of one, ``c[None]``, broadcasts).
    With M = A W_a and ``d`` latent coordinates, the gap is (A b_a + c - b_b)
    + (M[:, :d] - W_b[:, :d]) z + sigma_a M[:, d:] r, minus sigma_b W_b[:, d:] r'
    when the target carries its own noise r'. The terms are uncorrelated, so
    the loss is a sum of squared norms and never negative. Each map goes
    through the same arithmetic as in a stack of one, provided its linear part
    keeps its memory layout (see ``AffineMap``).
    """
    d = src.latent_dim
    composite = maps.compose(src.decoder)
    M, target = composite.linear, dst.decoder.linear
    shift = composite.offset - dst.decoder.offset
    # ndarray.sum, not np.sum: the same reduction without the per-call dispatch.
    loss = (shift**2).sum(axis=1) + latent_second_moment(d, radius) * (
        (M[:, :, :d] - target[:, :, :d]) ** 2
    ).sum(axis=(1, 2))
    loss += src.sigma**2 * NOISE_VARIANCE * (M[:, :, d:] ** 2).sum(axis=(1, 2))
    if target_noise:
        loss += dst.sigma**2 * NOISE_VARIANCE * (target[:, :, d:] ** 2).sum(axis=(1, 2))
    return loss.tolist()


def _codec(
    codecs: Mapping[str, RandomizedCodec], lang: str, spec: FunctionClassSpec
) -> RandomizedCodec:
    if lang not in codecs:
        raise DomainError(f"no codec for language {lang!r}")
    codec = codecs[lang]
    if codec.latent_dim != spec.dim:
        raise ValueError(
            f"spec dimension {spec.dim} does not match codec latent dimension"
            f" {codec.latent_dim}"
        )
    return codec


def shortest_path_and_diameter(
    graph: TranslationGraph,
) -> tuple[dict[tuple[str, str], tuple[str, ...]], int]:
    """All-pairs BFS shortest paths (lexicographically smallest) and the diameter.

    Paths are keyed by sorted language pairs and run from the smaller id to the
    larger one; each is read off the ``bfs_tree`` of its smaller id.
    """
    graph.require_connected()
    langs = sorted(graph.languages)
    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for i, src in enumerate(langs):
        parents = graph.bfs_tree(src)
        for dst in langs[i + 1 :]:
            path, node = [], dst
            while node is not None:
                path.append(node)
                node = parents[node]
            paths[(src, dst)] = tuple(reversed(path))
    diameter = max((len(path) - 1 for path in paths.values()), default=0)
    return paths, diameter


def _chain_bound(coefficients: Sequence[float], edge_losses: Sequence[float]) -> float:
    """The telescoping path bound (sum_i coefficients[i] * sqrt(edge_losses[i]))^2.

    On a path p_0 -> ... -> p_m, write C_{a->b} = D_{p_b} ∘ E_{p_a} with
    linear part A_{a->b}, and x_i for the ground-truth translation of the
    source sentence x_0 into p_i (decoded without noise for i >= 1). Since
    E ∘ D = id, C_{i+1->m} ∘ C_{i->i+1} = C_{i->m}, so the error telescopes:
    C_{0->m} x_0 - x_m = sum_{i<m-1} A_{i+1->m} (C_{i->i+1} x_i - x_{i+1})
    + (C_{m-1->m} x_{m-1} - x_m). Minkowski's inequality then gives
    sqrt(loss) <= sum_{i<m-1} ||A_{i+1->m}|| sqrt(l_i) + sqrt(l_{m-1}), with
    l_i edge i's exact population loss. l_i is scored on p_i's noisy
    sentences, which only adds a nonnegative term for i >= 1, so the bound
    holds as stated, and on a single edge it is the loss itself. Its
    constants are the operator norms of learned translators, not the
    paper's: there rho bounds every map and its inverse, and these
    rectangular encoders have none.
    """
    return sum(c * math.sqrt(loss) for c, loss in zip(coefficients, edge_losses)) ** 2


@dataclass(frozen=True)
class PairEvalRecord:
    """Measured zero-shot loss and its chained path bound for one language pair.

    The pair runs from ``path[0]`` to ``path[-1]``. ``edge_losses`` holds each
    path edge's exact population loss, and ``coefficients`` the operator
    norm ||A_{i+1->m}|| that carries edge i's error to the destination, 1 for
    the last edge (see ``_chain_bound``). Only the measurements are stored;
    the endpoints, the edge count, the bound, whether the loss stays within
    it and ``rho_hat``, the largest coefficient, are derived from them.
    """

    path: tuple[str, ...]
    measured_loss: float
    edge_losses: tuple[float, ...]
    coefficients: tuple[float, ...]

    @property
    def src(self) -> str:
        return self.path[0]

    @property
    def dst(self) -> str:
        return self.path[-1]

    @property
    def path_len(self) -> int:
        return len(self.path) - 1

    @property
    def rho_hat(self) -> float:
        return max(self.coefficients)

    @property
    def bound(self) -> float:
        return _chain_bound(self.coefficients, self.edge_losses)

    @property
    def holds(self) -> bool:
        return self.measured_loss <= self.bound + 1e-9


def verify_chain_bound(
    estimate: EncoderEstimate,
    graph: TranslationGraph,
    codecs: Mapping[str, RandomizedCodec],
    spec: FunctionClassSpec,
) -> list[PairEvalRecord]:
    """Check the chained path bound for every unordered language pair.

    The translator L -> M is D_M ∘ E_L, a square map. Every directed path
    edge and every pair is scored once, by its exact population loss in the
    direction the path traverses it, through ``_affine_losses`` in stacks of
    at most ``PAIR_BLOCK`` translators, with the arithmetic of one at a time.
    The bound's coefficients, the operator norms of D_m ∘ E_j for each inner
    path node j of a pair ending at m, come from one stacked SVD.
    """
    paths, _diam = shortest_path_and_diameter(graph)
    langs = sorted({lang for path in paths.values() for lang in path})
    stack = RandomizedCodec.stack([_codec(codecs, lang, spec) for lang in langs])
    encoders = AffineMap.stack([estimate.encoder(lang) for lang in langs])
    decoders = AffineMap.stack([estimate.decoder(lang) for lang in langs])
    position = {lang: i for i, lang in enumerate(langs)}

    def ends(pairs):
        return (np.array([position[a] for a, _b in pairs], dtype=int),
                np.array([position[b] for _a, b in pairs], dtype=int))

    scored = list(dict.fromkeys(
        [step for path in paths.values() for step in zip(path, path[1:])] + sorted(paths)
    ))
    losses: dict[tuple[str, str], float] = {}
    for start in range(0, len(scored), PAIR_BLOCK):
        block = scored[start : start + PAIR_BLOCK]
        src, dst = ends(block)
        losses.update(zip(block, _affine_losses(
            decoders[dst].compose(encoders[src]), stack[src], stack[dst], spec.radius,
            target_noise=False,
        )))
    carried = list(dict.fromkeys(
        (node, path[-1]) for path in paths.values() for node in path[1:-1]
    ))
    norms: dict[tuple[str, str], float] = {}
    if carried:
        src, dst = ends(carried)
        linear = decoders.linear[dst] @ encoders.linear[src]
        norms = dict(zip(carried, np.linalg.svd(linear, compute_uv=False)[:, 0].tolist()))

    return [
        PairEvalRecord(
            path=path,
            measured_loss=losses[pair],
            edge_losses=tuple(losses[step] for step in zip(path, path[1:])),
            coefficients=tuple(norms[(node, path[-1])] for node in path[1:-1]) + (1.0,),
        )
        for pair, path in sorted(paths.items())
    ]


# ---------------------------------------------------------------------------
# Sample-size formulas


def required_sample_size(
    eps: float, delta: float, n_languages: int, n_params: int, sup_bound: float
) -> int:
    """Aligned pairs per edge sufficient for the union-bounded concentration step.

    Solves 2 * N(eps/16M) * exp(-n eps^2 / 16 M^4) = delta / K^2 for n, using
    the finite-dimensional covering count log N = p * ln(16 M / eps) (clamped
    below at zero, since a covering number is at least one).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n_languages < 2:
        raise ValueError("need at least two languages")
    if n_params < 1:
        raise ValueError("n_params must be at least 1")
    if sup_bound <= 0:
        raise ValueError("sup_bound must be positive")
    constant = 16.0 * sup_bound**4
    log_cover = max(0.0, n_params * math.log(16.0 * sup_bound / eps))
    log_union = math.log(n_languages**2 / delta)
    n = math.ceil(constant / eps**2 * (log_cover + log_union))
    return max(n, 1)


def concentration_bound(n: int, eps: float, sup_bound: float, log_cover: float) -> float:
    """Failure-probability bound 2 * exp(log_cover - n eps^2 / 16 M^4), capped at 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if sup_bound <= 0:
        raise ValueError("sup_bound must be positive")
    exponent = log_cover - n * eps**2 / (16.0 * sup_bound**4)
    return min(1.0, 2.0 * math.exp(exponent))


# ---------------------------------------------------------------------------
# Generalization-gap sweep


class SweepRow(NamedTuple):
    n: int
    trial: int
    empirical_loss: float
    population_loss: float
    gap: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float | None
    degenerate: bool

    def median_gaps(self) -> dict[int, float]:
        by_n: dict[int, list[float]] = {}
        for row in self.rows:
            by_n.setdefault(row.n, []).append(row.gap)
        return {n: float(np.median(g)) for n, g in sorted(by_n.items())}


def sample_complexity_sweep(
    edge: tuple[str, str],
    codecs: Mapping[str, RandomizedCodec],
    n_list: Sequence[int],
    trials: int,
    sampler: LatentSampler,
    seed: int,
) -> SweepResult:
    """Fit one edge at increasing corpus sizes and track the generalization gap.

    For each (n, trial): fit on a fresh corpus, record the in-sample loss, the
    exact population loss against noisy targets, and their absolute gap. Each
    trial's corpus is the Gram ``randomized_generate`` sums from its own seed,
    drawn into one ``EdgeDraws`` per size; a size's Grams are stacked, fitted
    and scored at once, bit for bit as one trial at a time. The log-log slope
    of the median gap against n is fitted by least squares. A run where every
    gap is below 1e-10 (the noiseless realizable regime) is flagged
    degenerate and gets no slope.
    """
    if len(n_list) < 2:
        raise ValueError("n_list needs at least two sizes")
    if list(n_list) != sorted(set(n_list)) or n_list[0] < 1:
        raise ValueError("n_list must be strictly ascending positive sizes")
    if trials < 5:
        raise ValueError("need at least 5 trials per size")
    src, dst = (codecs[lang][None] for lang in edge)
    dim = src.decoder.dim
    rows = []
    for n in n_list:
        draws = EdgeDraws(n, sampler.dim, src.nuisance_dim)
        grams, largest = np.empty((trials, 2 * dim + 1, 2 * dim + 1)), []
        for trial in range(trials):
            draws.draw(edge, codecs, n, sampler, derive_seed(seed, "sweep-train", n, trial))
            grams[trial], top, _finite = stream_gram(n, dim, draws.decode)
            largest.append(top)
        fitted, empirical = fit_gram(grams, n, lambda: max(largest))
        population = _affine_losses(fitted, src, dst, sampler.radius, target_noise=True)
        for trial, (emp, pop) in enumerate(zip(empirical, population)):
            rows.append(SweepRow(int(n), trial, emp, pop, abs(pop - emp)))
    result = SweepResult(tuple(rows), None, False)
    medians = result.median_gaps()
    if max(medians.values()) <= 1e-10:
        return SweepResult(tuple(rows), None, True)
    ns = np.array(sorted(medians))
    meds = np.array([medians[n] for n in sorted(medians)])
    slope = float(np.polyfit(np.log(ns), np.log(np.maximum(meds, 1e-300)), 1)[0])
    return SweepResult(tuple(rows), slope, False)
