"""Empirical risk minimization over the translation graph.

Each edge's composite translator is a plain affine least-squares fit. Encoders
per language are then pinned down by anchoring one of them to the identity and
propagating fitted maps along a breadth-first spanning tree; only composites
are identifiable, so the anchor choice is a gauge choice. An optional
alternating refinement pass re-solves one encoder at a time against the
representation-space consensus and backtracks whenever the true objective
would increase, so the total edge loss is non-increasing by construction.

Refinement keeps its working state outside ``EncoderEstimate``: the current
encoders, their cached inverses and one loss per corpus. A trial update of
one language re-scores only the corpora on that language's edges and sums the
full per-corpus list, so the objective it compares is bit-identical to a full
``total_edge_loss``; the estimate is validated once, when refinement ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .affine import SINGULAR_TOL, AffineMap
from .errors import (
    ConditioningError,
    DomainError,
    GraphError,
    InsufficientDataError,
    InternalConsistencyError,
)
from .generative import AlignedCorpus, FunctionClassSpec, TranslationGraph

#: Condition number above which the normal equations get the ridge term.
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class EdgeRegressionResult:
    """Fitted composite map for one edge, oriented smaller -> larger language id."""

    edge: tuple[str, str]
    transform: AffineMap
    empirical_loss: float
    n: int


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
        for lang, enc in encoders.items():
            if enc.smallest_gain() < SINGULAR_TOL:
                raise ConditioningError(f"encoder for {lang!r} is numerically singular")
        object.__setattr__(self, "encoders", encoders)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.encoders))

    def encoder(self, lang: str) -> AffineMap:
        try:
            return self.encoders[lang]
        except KeyError:
            raise DomainError(f"no encoder for language {lang!r}") from None

    def composite(self, src: str, dst: str) -> AffineMap:
        """The translator src -> dst implied by the encoders."""
        return self.encoder(dst).inverse().compose(self.encoder(src))

    def with_encoder(self, lang: str, enc: AffineMap) -> "EncoderEstimate":
        updated = dict(self.encoders)
        updated[lang] = enc
        return EncoderEstimate(updated, self.anchor)

    def with_gauge(self, f: AffineMap) -> "EncoderEstimate":
        """Compose every encoder with a fixed invertible map (composites unchanged)."""
        return EncoderEstimate(
            {lang: f.compose(enc) for lang, enc in self.encoders.items()},
            anchor=None,
        )

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "encoders": {
                lang: self.encoders[lang].to_dict() for lang in sorted(self.encoders)
            },
        }


@dataclass(frozen=True)
class TrainConfig:
    anchor: str
    sweeps: int = 0
    ridge: float = 1e-10
    project: bool = False
    spec: FunctionClassSpec | None = None

    def __post_init__(self):
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.sweeps < 0:
            raise ValueError("sweeps must be nonnegative")
        if self.project and self.spec is None:
            raise ValueError("projection requires a function-class spec")


def _affine_least_squares(
    points: np.ndarray, targets: np.ndarray, ridge: float
) -> AffineMap:
    """Minimize mean squared residual of an affine map, regularizing only if needed."""
    n, d = points.shape
    design = np.empty((n, d + 1))
    design[:, :d] = points
    design[:, d] = 1.0
    gram = design.T @ design
    rhs = design.T @ targets
    if np.linalg.cond(gram) > COND_LIMIT:
        gram = gram + ridge * np.eye(d + 1)
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        try:
            theta = np.linalg.solve(gram + ridge * np.eye(d + 1), rhs)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("normal equations singular even with ridge") from exc
    if not np.all(np.isfinite(theta)):
        raise ConditioningError("least-squares solution is not finite")
    return AffineMap(theta[:d].T, theta[d])


def fit_edge(corpus: AlignedCorpus, ridge: float = 1e-10) -> EdgeRegressionResult:
    """Least-squares fit of the source-to-target composite map on one corpus."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    d = corpus.dim
    if corpus.n < d + 1:
        raise InsufficientDataError(
            f"need at least {d + 1} pairs for an affine fit in dimension {d}, got {corpus.n}"
        )
    transform = _affine_least_squares(corpus.source_points, corpus.target_points, ridge)
    # (T(x) - y)^2 in one (n, d) array, in the order of the out-of-place formula.
    residual = corpus.source_points @ transform.linear.T
    residual += transform.offset
    residual -= corpus.target_points
    np.square(residual, out=residual)
    loss = float(np.mean(np.sum(residual, axis=1)))
    return EdgeRegressionResult(corpus.edge, transform, loss, corpus.n)


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
    dims = {r.transform.dim for r in results.values()}
    if len(dims) != 1:
        raise ValueError(f"edge maps disagree on dimension: {sorted(dims)}")
    dim = dims.pop()

    encoders: dict[str, AffineMap] = {anchor: AffineMap.identity(dim)}
    frontier = [anchor]
    while frontier:
        current = frontier.pop(0)
        for nb in graph.neighbors(current):
            if nb in encoders:
                continue
            key = (min(nb, current), max(nb, current))
            result = results.get(key)
            if result is None:
                raise GraphError(f"tree edge {key} has no fitted map")
            if key == (nb, current):
                to_parent = result.transform
            else:
                to_parent = result.transform.inverse()
            encoders[nb] = encoders[current].compose(to_parent)
            frontier.append(nb)
    return EncoderEstimate(encoders, anchor)


def _edge_loss(inv_b: AffineMap, enc_a: AffineMap, corpus: AlignedCorpus) -> float:
    """Mean squared residual of the composite inv_b ∘ enc_a on one corpus."""
    residual = inv_b.compose(enc_a)(corpus.source_points) - corpus.target_points
    return float(np.mean(np.sum(residual**2, axis=1)))


def empirical_edge_loss(estimate: EncoderEstimate, corpus: AlignedCorpus) -> float:
    """Mean squared gap between the estimate's composite and the aligned targets."""
    a, b = corpus.edge
    return _edge_loss(estimate.encoder(b).inverse(), estimate.encoder(a), corpus)


def total_edge_loss(
    estimate: EncoderEstimate, corpora: Sequence[AlignedCorpus]
) -> float:
    return float(sum(empirical_edge_loss(estimate, c) for c in corpora))


def _rescore(
    lang: str,
    encoders: Mapping[str, AffineMap],
    inverses: Mapping[str, AffineMap],
    losses: Sequence[float],
    corpora: Sequence[AlignedCorpus],
    incident: Mapping[str, Sequence[int]],
) -> list[float]:
    """``losses`` with the corpora on ``lang``'s edges re-scored under the given maps."""
    trial = list(losses)
    for i in incident[lang]:
        a, b = corpora[i].edge
        trial[i] = _edge_loss(inverses[b], encoders[a], corpora[i])
    return trial


def joint_refine(
    estimate: EncoderEstimate,
    corpora: Sequence[AlignedCorpus],
    config: TrainConfig,
) -> EncoderEstimate:
    """Alternating per-language updates of the summed edge objective.

    Languages are revisited in sorted id order, the anchor skipped. Each
    candidate comes from a representation-space least-squares consensus; it is
    blended toward the incumbent until the true objective does not increase,
    so every sweep is monotone (a failed search leaves the encoder unchanged).

    A trial inverts the blended map once and re-scores only the corpora
    incident to the updated language; the other per-corpus losses are reused.
    The objective is the sum of the per-corpus list in ``corpora`` order, so it
    equals ``total_edge_loss`` bit for bit. Encoders are re-validated once, in
    the returned estimate; zero sweeps return ``estimate`` itself.
    """
    if config.sweeps == 0:
        return estimate
    encoders = dict(estimate.encoders)
    incident: dict[str, list[int]] = {lang: [] for lang in encoders}
    for i, corpus in enumerate(corpora):
        for lang in set(corpus.edge):
            if lang not in incident:
                raise DomainError(f"no encoder for language {lang!r}")
            incident[lang].append(i)
    inverses = {lang: enc.inverse() for lang, enc in encoders.items()}
    losses = [
        _edge_loss(inverses[c.edge[1]], encoders[c.edge[0]], c) for c in corpora
    ]
    total = float(sum(losses))
    for _ in range(config.sweeps):
        sweep_start = total
        for lang in sorted(encoders):
            if lang == estimate.anchor or not incident[lang]:
                continue
            points, targets = [], []
            for i in incident[lang]:
                corpus = corpora[i]
                a, b = corpus.edge
                if lang == a:
                    points.append(corpus.source_points)
                    targets.append(encoders[b](corpus.target_points))
                else:
                    points.append(corpus.target_points)
                    targets.append(encoders[a](corpus.source_points))
            candidate = _affine_least_squares(
                np.vstack(points), np.vstack(targets), config.ridge
            )
            old = encoders[lang]
            step = 1.0
            for _attempt in range(60):
                blended = AffineMap(
                    old.linear + step * (candidate.linear - old.linear),
                    old.offset + step * (candidate.offset - old.offset),
                )
                if config.project:
                    blended = project_to_class(blended, config.spec)
                if blended.smallest_gain() < SINGULAR_TOL:
                    step /= 2.0
                    continue
                trial_encoders = {**encoders, lang: blended}
                trial_inverses = {**inverses, lang: blended.inverse()}
                trial_losses = _rescore(
                    lang, trial_encoders, trial_inverses, losses, corpora, incident
                )
                trial_total = float(sum(trial_losses))
                if trial_total <= total + 1e-12:
                    encoders, inverses = trial_encoders, trial_inverses
                    losses, total = trial_losses, trial_total
                    break
                step /= 2.0
        if total > sweep_start + 1e-9:
            raise InternalConsistencyError(
                f"refinement sweep increased the objective: {sweep_start} -> {total}"
            )
    return EncoderEstimate(encoders, estimate.anchor)


def project_to_class(affine: AffineMap, spec: FunctionClassSpec) -> AffineMap:
    """Clip singular values into [1/rho, rho] and the offset into its ball; idempotent."""
    u, s, vt = np.linalg.svd(affine.linear)
    clipped = np.clip(s, 1.0 / spec.rho, spec.rho)
    linear = u @ np.diag(clipped) @ vt
    offset = affine.offset
    norm = float(np.linalg.norm(offset))
    if norm > spec.offset_bound:
        scale = spec.offset_bound / norm if norm > 0 else 0.0
        offset = offset * scale
    return AffineMap(linear, offset)
