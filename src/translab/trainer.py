"""Empirical risk minimization over the translation graph.

Each edge's composite translator is a plain affine least-squares fit. Encoders
per language are then pinned down by anchoring one of them to the identity and
propagating fitted maps along a breadth-first spanning tree; only composites
are identifiable, so the anchor choice is a gauge choice. An optional
alternating refinement pass re-solves one encoder at a time against the
representation-space consensus and backtracks whenever the objective would
increase, so the summed edge loss is non-increasing by construction.

Refinement never reads a corpus. Everything it computes from one is a
quadratic form in the rows of Z = [x, y, 1], so each corpus enters as its
``EdgeFactor``: the triangular factor R of Z, with ||Z M|| = ||R M|| for every
M, so an edge's R-form loss is its row-form mean squared residual up to
rounding. Refinement keeps its working state outside ``EncoderEstimate``: the
current encoders, their cached inverses and one loss per edge. Each update of
one language backtracks down a ladder of 60 rungs, step 2**-k at rung k. The
rungs are scored in doubling chunks (``RUNG_CHUNKS``) as stacked arrays: one
SVD, one inverse and, per edge of that language, one R-form loss for every
rung of the chunk, while the losses of the other edges are reused. The first
rung in ladder order that does not raise the summed per-edge list is taken,
the same rung a one-step-at-a-time search takes, so at most 2v - 1 rungs are
scored where that search visits v. The estimate is validated once, when
refinement ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .affine import AffineMap
from .errors import (
    ConditioningError,
    DomainError,
    GraphError,
    InsufficientDataError,
    InternalConsistencyError,
)
from .generative import (
    ROW_BLOCK,
    AlignedCorpus,
    TranslationGraph,
    _halves,
    _on_two_threads,
    _row_blocks,
    _row_sums,
)

#: Condition number above which the normal equations get the ridge term.
COND_LIMIT = 1e12

#: Weight of the identity added to the normal equations past ``COND_LIMIT`` or when singular.
RIDGE = 1e-10

#: Rungs of refinement's line search scored together, in ladder order: rung k
#: blends with step 2**-k, and the chunks double until the last one closes the
#: ladder at 60 rungs.
RUNG_CHUNKS = (1, 2, 4, 8, 16, 29)


@dataclass(frozen=True, eq=False)
class EdgeRegressionResult:
    """Fitted composite map for one edge, oriented smaller -> larger language id."""

    edge: tuple[str, str]
    transform: AffineMap
    empirical_loss: float
    n: int


@dataclass(frozen=True, eq=False)
class EdgeFactor:
    """One edge's corpus reduced to the triangular factor R of Z = [x, y, 1].

    ``r`` has 2 * dim + 1 columns (source, target, constant) and
    min(n, 2 * dim + 1) rows; R^T R = Z^T Z, so R stands in for the n rows of Z
    in every sum of squares.
    """

    edge: tuple[str, str]
    n: int
    r: np.ndarray

    @property
    def dim(self) -> int:
        return (self.r.shape[1] - 1) // 2


def factor_corpus(corpus: AlignedCorpus) -> EdgeFactor:
    """The ``EdgeFactor`` of a corpus: ``np.linalg.qr`` of Z = [x, y, 1].

    Z is one column gather of the rows [x, 1, y]. The copy is needed: a QR
    of the rows in their own order gives a different R, and a different R
    rounds refinement's losses, and so its accepted rungs, differently.
    """
    d = corpus.dim
    z = corpus.rows[:, np.r_[:d, d + 1 : 2 * d + 1, d]]
    r = np.linalg.qr(z, mode="r")
    r.setflags(write=False)
    return EdgeFactor(corpus.edge, corpus.n, r)


@dataclass(frozen=True, eq=False)
class EncoderEstimate:
    """Per-language affine encoders; the anchor's map is pinned to the identity.

    ``anchor`` is None for gauge-transformed estimates, where no encoder is
    pinned; composites are unaffected either way.
    """

    encoders: Mapping[str, AffineMap]
    anchor: str | None

    def __post_init__(self):
        encoders = dict(self.encoders)
        if not encoders:
            raise ValueError("estimate needs at least one encoder")
        if self.anchor is not None:
            if self.anchor not in encoders:
                raise ValueError(f"anchor {self.anchor!r} has no encoder")
            pinned = encoders[self.anchor]
            if not (
                np.array_equal(pinned.linear, np.eye(pinned.dim))
                and np.array_equal(pinned.offset, np.zeros(pinned.dim))
            ):
                raise ValueError("anchor encoder must be exactly the identity")
        # One SVD checks every encoder; the encoders kept are views of the
        # stack, so their singular values come along wherever they are stacked.
        stack = AffineMap.stack(list(encoders.values()))
        for lang, nonsingular in zip(encoders, stack.nonsingular):
            if not nonsingular:
                raise ConditioningError(f"encoder for {lang!r} is numerically singular")
        object.__setattr__(
            self, "encoders", {lang: stack[i] for i, lang in enumerate(encoders)}
        )

    def encoder(self, lang: str) -> AffineMap:
        try:
            return self.encoders[lang]
        except KeyError:
            raise DomainError(f"no encoder for language {lang!r}") from None


def _least_squares(design: np.ndarray, targets: np.ndarray) -> AffineMap:
    """The affine map whose parameters minimize ||design @ theta - targets||.

    The last design column multiplies the offset: all ones for sentence rows,
    the constant column of R for factored ones. Leading axes of ``design``
    and ``targets`` are a stack of problems, solved as one stacked system;
    the ridge reaches only the slices past ``COND_LIMIT``. Each linear part
    is a transposed view of the solution, so it is Fortran-ordered, in a
    stack as alone (see ``AffineMap``). Fewer rows than columns is an
    ``InsufficientDataError``.
    """
    n, d = design.shape[-2], design.shape[-1] - 1
    if n < d + 1:
        raise InsufficientDataError(
            f"need at least {d + 1} pairs for an affine fit in dimension {d}, got {n}"
        )
    design_t = design.swapaxes(-1, -2)
    # Huge entries overflow the normal equations; report that instead of warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design_t @ design
        rhs = design_t @ targets
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise ConditioningError(
            "normal equations overflow: the largest entry magnitude is"
            f" {max(np.abs(design).max(), np.abs(targets).max()):.3g}"
        )
    ill = np.linalg.cond(gram) > COND_LIMIT
    gram = np.where(np.asarray(ill)[..., None, None], gram + RIDGE * np.eye(d + 1), gram)
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("normal equations singular even with ridge") from exc
    if not np.all(np.isfinite(theta)):
        raise ConditioningError("least-squares solution is not finite")
    return AffineMap(theta[..., :d, :].swapaxes(-1, -2), theta[..., d, :])


def fit_rows(rows: np.ndarray) -> tuple[AffineMap, float | list[float]]:
    """The least-squares affine map from x to y on rows [x, 1, y], and its mean squared residual.

    The design [x, 1] and the targets y are views of ``rows`` (..., n,
    2 * dim + 1), so the fit copies no pairs. Leading stack axes hold one
    corpus per slice, fitted and scored as one stack: a stack of maps and a
    list of losses, each bit for bit its corpus's alone. The ridge enters
    only if a slice needs it (see ``_least_squares``).
    """
    d = (rows.shape[-1] - 1) // 2
    transform = _least_squares(rows[..., : d + 1], rows[..., d + 1 :])
    return transform, _mean_squared_residual(transform, rows[..., :d], rows[..., d + 1 :])


def fit_edge(corpus: AlignedCorpus) -> EdgeRegressionResult:
    """Least-squares fit of the source-to-target composite map on one corpus: ``fit_rows``."""
    transform, loss = fit_rows(corpus.rows)
    return EdgeRegressionResult(corpus.edge, transform, loss, corpus.n)


def _mean_squared_residual(
    transform: AffineMap, points: np.ndarray, targets: np.ndarray
) -> float | list[float]:
    """Mean of ||T(x) - y||^2 over the pairs (x, y): a float, or a list for a stack.

    With leading stack axes on ``points`` (..., n, d), ``targets`` and
    ``transform``, slice j scores map j on corpus j, bit for bit as alone.
    A single corpus of at least ``PARALLEL_ROWS`` pairs is scored as two
    halves on two threads (``_halves``), each into its own rows of the row
    sums, so the one mean over all of them keeps the bits.
    """
    # Row sums of the out-of-place (T(x) - y)**2, in place a row block at a
    # time; the one mean over all of them keeps the whole-array bits. A
    # block spans every corpus of a stack, so it has about ``ROW_BLOCK``
    # rows in all (at least 2 per corpus) and stays small beside the stack.
    n = points.shape[-2]
    row_sums = np.empty(points.shape[:-1])
    linear_t = transform.linear.swapaxes(-1, -2)
    block = max(ROW_BLOCK // math.prod(points.shape[:-2]), 2)

    def score(part: slice) -> None:
        for rows in _row_blocks(part.stop, block, part.start):
            residual = points[..., rows, :] @ linear_t
            residual += transform.offset[..., None, :]
            residual -= targets[..., rows, :]
            np.square(residual, out=residual)
            _row_sums(residual, row_sums[..., rows])

    _on_two_threads(score, _halves(n) if points.ndim == 2 else [slice(0, n)])
    return np.mean(row_sums, axis=-1).tolist()


def _factor_losses(maps: AffineMap, factor: EdgeFactor) -> list[float]:
    """``_mean_squared_residual`` of each map of a stack, from the factor.

    ``maps`` is a stack of s maps. Map j = (A_j, c_j) scores
    ||R [A_j^T; -I; c_j^T]||_F^2 / n, a sum of squares, so never negative,
    unlike the Gram form of the same loss. Each map goes through the same
    arithmetic as in a stack of one.
    """
    r, d = factor.r, factor.dim
    residual = r[:, :d] @ maps.linear.transpose(0, 2, 1)
    residual -= r[:, d : 2 * d]
    residual += r[:, 2 * d :] * maps.offset[:, None, :]
    return [float(np.vdot(res, res)) / factor.n for res in residual]


def anchor_spanning_tree(
    graph: TranslationGraph,
    edge_results: Iterable[EdgeRegressionResult],
    anchor: str,
) -> EncoderEstimate:
    """Resolve per-language encoders from fitted edge maps along a BFS tree.

    The anchor encoder is the identity; a newly reached language L with tree
    parent P gets E_L = E_P ∘ T(L -> P), so every tree-edge composite
    E_P^{-1} ∘ E_L reproduces the fitted map exactly.
    """
    graph.require_connected()
    if anchor not in graph.languages:
        raise DomainError(f"anchor {anchor!r} is not a graph node")
    results = {r.edge: r for r in edge_results}
    if not results:
        raise GraphError("no fitted edge maps were given; anchoring needs one per tree edge")
    dims = {r.transform.dim for r in results.values()}
    if len(dims) != 1:
        raise ValueError(f"edge maps disagree on dimension: {sorted(dims)}")
    dim = dims.pop()

    encoders: dict[str, AffineMap] = {anchor: AffineMap.identity(dim)}
    for lang, parent in graph.bfs_tree(anchor).items():
        if parent is None:
            continue
        key = (min(lang, parent), max(lang, parent))
        result = results.get(key)
        if result is None:
            raise GraphError(f"tree edge {key} has no fitted map")
        to_parent = result.transform if key == (lang, parent) else result.transform.inverse()
        encoders[lang] = encoders[parent].compose(to_parent)
    return EncoderEstimate(encoders, anchor)


def _consensus(
    lang: str,
    encoders: Mapping[str, AffineMap],
    factors: Sequence[EdgeFactor],
    incident: Sequence[int],
) -> AffineMap:
    """Least-squares map from ``lang``'s sentences to its neighbours' representations.

    Stacks the unscaled R blocks of ``lang``'s edges, so each edge weighs by
    its n as its rows would: the own-side columns and the constant column are
    the design, the other side's columns mapped by the neighbour's encoder are
    the targets.
    """
    designs, targets = [], []
    for i in incident:
        factor = factors[i]
        a, b = factor.edge
        r, d = factor.r, factor.dim
        own, other, neighbour = (0, d, b) if lang == a else (d, 0, a)
        enc = encoders[neighbour]
        designs.append(np.hstack((r[:, own : own + d], r[:, 2 * d :])))
        targets.append(r[:, other : other + d] @ enc.linear.T + r[:, 2 * d :] * enc.offset)
    return _least_squares(np.vstack(designs), np.vstack(targets))


def _line_search(
    lang: str,
    candidate: AffineMap,
    encoders: Mapping[str, AffineMap],
    inverses: Mapping[str, AffineMap],
    losses: Sequence[float],
    total: float,
    factors: Sequence[EdgeFactor],
    incident: Sequence[int],
) -> tuple[int, AffineMap, AffineMap, list[float], float] | None:
    """The first accepted rung of the step ladder from ``lang``'s encoder toward ``candidate``.

    Rung k is the blend old + 2**-k (candidate - old) of the current encoder
    old. Rungs are scored a
    ``RUNG_CHUNKS`` chunk at a time: one stacked SVD finds the numerically
    singular blends, which are skipped, one stacked inverse covers the rest,
    and each edge of ``lang`` scores all of them at once; the other per-edge
    losses are reused. The accepted rung is the first, in ladder order, whose
    per-edge losses sum to at most ``total`` + 1e-12, bit for bit the rung a
    one-rung-at-a-time search takes. Returns the rung, the blended encoder, its
    inverse, the per-edge losses and their sum, or None when no rung is
    accepted.
    """
    old = encoders[lang]
    linear_step = candidate.linear - old.linear
    offset_step = candidate.offset - old.offset
    start = 0
    for size in RUNG_CHUNKS:
        steps = np.ldexp(1.0, -np.arange(start, start + size))
        blends = AffineMap._of(
            old.linear + steps[:, None, None] * linear_step,
            old.offset + steps[:, None] * offset_step,
        )
        regular = np.flatnonzero(blends.nonsingular)
        if regular.size:
            if regular.size < size:
                blends = blends[regular]
            blend_inverses = blends.inverse()
            edge_losses = []
            for i in incident:
                a, b = factors[i].edge
                composite = (blend_inverses if b == lang else inverses[b]).compose(
                    blends if a == lang else encoders[a]
                )
                edge_losses.append(_factor_losses(composite, factors[i]))
            for j, rung_losses in enumerate(zip(*edge_losses)):
                trial = list(losses)
                for i, loss in zip(incident, rung_losses):
                    trial[i] = loss
                trial_total = float(sum(trial))
                if trial_total <= total + 1e-12:
                    # Copies, not views: an accepted encoder does not hold its chunk.
                    return (
                        start + int(regular[j]),
                        AffineMap(blends.linear[j], blends.offset[j]),
                        AffineMap(blend_inverses.linear[j], blend_inverses.offset[j]),
                        trial,
                        trial_total,
                    )
        start += size
    return None


def joint_refine(
    estimate: EncoderEstimate,
    factors: Sequence[EdgeFactor],
    sweeps: int,
) -> EncoderEstimate:
    """Alternating per-language updates of the summed edge objective.

    ``factors`` holds one ``factor_corpus`` per edge. Languages are revisited
    in sorted id order, the anchor skipped. Each candidate comes from a
    representation-space least-squares consensus; ``_line_search`` blends it
    toward the incumbent down a ladder of halving steps, 2**0 to 2**-59,
    until the objective does not increase, so every sweep is monotone (a
    failed search leaves the encoder unchanged). A blend whose inverse is
    numerically singular is skipped. The ladder is scored in doubling chunks
    of stacked blends, which takes the same rung as trying one step at a time.

    A rung re-scores only the edges of the updated language; the other
    per-edge losses are reused. The objective is the sum of the per-edge
    R-form losses in ``factors`` order, which equals the summed row-form mean
    squared residual of each edge's composite on its corpus up to rounding,
    not bit for bit. Encoders are re-validated once, in the returned
    estimate; zero sweeps return ``estimate`` itself.
    """
    if sweeps < 0:
        raise ValueError("sweeps must be nonnegative")
    if sweeps == 0:
        return estimate
    encoders = dict(estimate.encoders)
    incident: dict[str, list[int]] = {lang: [] for lang in encoders}
    for i, factor in enumerate(factors):
        for lang in set(factor.edge):
            if lang not in incident:
                raise DomainError(f"no encoder for language {lang!r}")
            incident[lang].append(i)
    stacked = AffineMap.stack(list(encoders.values())).inverse()
    inverses = {lang: stacked[i] for i, lang in enumerate(encoders)}
    losses = []
    for f in factors:
        composite = inverses[f.edge[1]].compose(encoders[f.edge[0]])
        losses += _factor_losses(composite[None], f)
    total = float(sum(losses))
    for _ in range(sweeps):
        sweep_start = total
        for lang in sorted(encoders):
            if lang == estimate.anchor or not incident[lang]:
                continue
            candidate = _consensus(lang, encoders, factors, incident[lang])
            accepted = _line_search(
                lang, candidate, encoders, inverses, losses, total, factors, incident[lang]
            )
            if accepted is not None:
                _rung, encoders[lang], inverses[lang], losses, total = accepted
        if total > sweep_start + 1e-9:
            raise InternalConsistencyError(
                f"refinement sweep increased the objective: {sweep_start} -> {total}"
            )
    return EncoderEstimate(encoders, estimate.anchor)
