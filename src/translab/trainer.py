"""Empirical risk minimization over the translation graph.

Each edge is first fitted on its own, as a plain affine least-squares map
from source to target; its loss is the floor that edge's corpus allows. The
encoders come from one joint fit over every edge, with no anchor and nothing
inverted: language L gets a rectangular encoder E_L: R^D -> R^d and a decoder
D_L: R^d -> R^D with E_L ∘ D_L = id, and the translator L -> M is D_M ∘ E_L.
The joint objective is multiset CCA (Kettenring 1971, "Canonical analysis of
several sets of variables"), one symmetric eigenproblem (``fit_joint``).

A corpus enters every fit through one Gram of its rows [x, 1, y]: the edge's
normal equations are two of its blocks, the joint fit's moments the rest, and
every loss is read off it (``_gram_loss``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .affine import AffineMap
from .errors import ConditioningError, DomainError, InsufficientDataError
from .generative import CorpusGram

#: Condition number above which the normal equations get the ridge term.
COND_LIMIT = 1e12

#: Weight of the identity added to the normal equations past ``COND_LIMIT`` or when singular.
RIDGE = 1e-10

#: Eigen-directions of a language's own covariance below this fraction of its
#: largest are dropped when it is whitened: the data do not vary along them.
WHITEN_TOL = 1e-10

#: Smallest ratio lambda_{d+1} / lambda_d of the joint fit's eigenvalues that
#: singles out d latent directions.
GAP_RATIO = 10.0

#: Floor under lambda_d in that ratio; a noiseless fit's lambda_d is rounding.
EIG_FLOOR = 1e-12

#: Largest entry of E_L ∘ D_L - id, linear part and offset, an estimate accepts.
LEFT_INVERSE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EdgeRegressionResult:
    """Fitted composite map for one edge, oriented smaller -> larger language id.

    ``gram`` is the Gram of the corpus's rows [x, 1, y], which the joint fit reads.
    """

    edge: tuple[str, str]
    transform: AffineMap
    empirical_loss: float
    n: int
    gram: np.ndarray


@dataclass(frozen=True, eq=False)
class EncoderEstimate:
    """Per-language encoders E_L: R^D -> R^d and decoders D_L: R^d -> R^D with E_L ∘ D_L = id.

    The translator L -> M is D_M ∘ E_L. Every invertible G on the latent space
    (E_L -> G ∘ E_L, D_L -> D_L ∘ G^-1 for every L) leaves every translator,
    and so every loss and bound, as it is: the gauge is GL(d). Every encoder
    must be d x D and every decoder D x d, and E_L ∘ D_L must lie within
    ``LEFT_INVERSE_TOL`` of the identity (a ``ConditioningError`` if not),
    since the chained bound is exact only then.
    """

    encoders: Mapping[str, AffineMap]
    decoders: Mapping[str, AffineMap]

    def __post_init__(self):
        encoders, decoders = dict(self.encoders), dict(self.decoders)
        if not encoders:
            raise ValueError("estimate needs at least one encoder")
        if set(encoders) != set(decoders):
            raise ValueError(
                f"encoders cover {sorted(encoders)}, but decoders cover {sorted(decoders)}"
            )
        langs = list(encoders)
        d, dim = encoders[langs[0]].linear.shape[-2:]
        for lang in langs:
            enc, dec = encoders[lang].linear.shape, decoders[lang].linear.shape
            if enc != (d, dim) or dec != (dim, d):
                raise ValueError(
                    f"{lang!r} has a {enc} encoder and a {dec} decoder; every encoder must"
                    f" be d x D and every decoder D x d, here {(d, dim)} and {(dim, d)}"
                )
        loop = AffineMap.stack([encoders[lang] for lang in langs]).compose(
            AffineMap.stack([decoders[lang] for lang in langs])
        )
        off = np.maximum(
            np.abs(loop.linear - np.eye(d)).max(axis=(1, 2)),
            np.abs(loop.offset).max(axis=1),
        )
        for lang, error in zip(langs, off.tolist()):
            if not error <= LEFT_INVERSE_TOL:
                raise ConditioningError(
                    f"encoder of {lang!r} undoes its decoder only to within {error:.3g}"
                )
        object.__setattr__(self, "encoders", encoders)
        object.__setattr__(self, "decoders", decoders)

    def encoder(self, lang: str) -> AffineMap:
        return self._map(self.encoders, lang, "encoder")

    def decoder(self, lang: str) -> AffineMap:
        return self._map(self.decoders, lang, "decoder")

    @staticmethod
    def _map(maps: Mapping[str, AffineMap], lang: str, kind: str) -> AffineMap:
        try:
            return maps[lang]
        except KeyError:
            raise DomainError(f"no {kind} for language {lang!r}") from None


def _gram_loss(gram: np.ndarray, transform: AffineMap, n: int) -> float | list[float]:
    """The mean of ||T(x) - y||^2 over n rows [x, 1, y], read off their Gram G.

    It is tr(M^T G M) / n with M = [A^T; c^T; -I] for T(x) = A x + c: a
    float, or a list with one loss per slice of a stack of Grams and maps.
    The sum cancels terms as large as G's y block, so a loss near zero reads
    at their rounding, of either sign: on noiseless corpora of up to 200,000
    rows it stays within 3e-14 of tr(G_yy) / n.
    """
    linear_t = transform.linear.swapaxes(-1, -2)
    minus_identity = np.broadcast_to(-np.eye(linear_t.shape[-1]), linear_t.shape)
    m = np.concatenate((linear_t, transform.offset[..., None, :], minus_identity), axis=-2)
    return (np.sum((gram @ m) * m, axis=(-2, -1)) / n).tolist()


def fit_gram(
    gram: np.ndarray, n: int, largest: Callable[[], float]
) -> tuple[AffineMap, float | list[float]]:
    """The least-squares affine map from x to y on n rows [x, 1, y], and its loss.

    The rows enter through their Gram (..., 2 * dim + 1, 2 * dim + 1): the
    normal equations are its block [x, 1]^T [x, 1] and its block [x, 1]^T y.
    Leading axes are a stack of problems, solved as one stacked system; the
    ridge reaches only the slices past ``COND_LIMIT``. Each linear part is a
    transposed view of the solution, so it is Fortran-ordered, in a stack as
    alone (see ``AffineMap``). Fewer rows than dim + 1 is an
    ``InsufficientDataError``, and a non-finite Gram, whose sum overflowed, a
    ``ConditioningError`` naming ``largest()``, the rows' largest magnitude.
    """
    d = (gram.shape[-1] - 1) // 2
    if n < d + 1:
        raise InsufficientDataError(
            f"need at least {d + 1} pairs for an affine fit in dimension {d}, got {n}"
        )
    if not np.all(np.isfinite(gram)):
        raise ConditioningError(
            f"normal equations overflow: the largest entry magnitude is {largest():.3g}"
        )
    normal, rhs = gram[..., : d + 1, : d + 1], gram[..., : d + 1, d + 1 :]
    ill = np.linalg.cond(normal) > COND_LIMIT
    normal = np.where(np.asarray(ill)[..., None, None], normal + RIDGE * np.eye(d + 1), normal)
    try:
        theta = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("normal equations singular even with ridge") from exc
    if not np.all(np.isfinite(theta)):
        raise ConditioningError("least-squares solution is not finite")
    transform = AffineMap(theta[..., :d, :].swapaxes(-1, -2), theta[..., d, :])
    return transform, _gram_loss(gram, transform, n)


def fit_edge(corpus: CorpusGram) -> EdgeRegressionResult:
    """Least-squares fit of the source-to-target composite map on one corpus's Gram."""
    transform, loss = fit_gram(corpus.gram, corpus.n, lambda: corpus.largest)
    return EdgeRegressionResult(corpus.edge, transform, loss, corpus.n, corpus.gram)


def _bottom_eigenvectors(pencil: np.ndarray, spectrum: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal eigenvectors of the ``count`` smallest eigenvalues of ``pencil``.

    ``spectrum`` holds the pencil's eigenvalues in ascending order.
    ``np.linalg.eigh`` would return every eigenvector, with a workspace of
    about five times the pencil; block inverse iteration needs one solve's.
    The shift lies just below lambda_1, so each solve shrinks the error by at
    most (lambda_count - shift) / (lambda_{count+1} - shift), and the number
    of solves that takes it below rounding is known beforehand: 6 when the
    bottom eigenvalues are zero, 17 at a gap of ``GAP_RATIO``. A
    Rayleigh-Ritz step then turns the subspace into eigenvectors.
    ``pencil`` is shifted in place and back.
    """
    low, high = spectrum[0], spectrum[count]
    shift = low - 1e-3 * (high - low)
    rate = (spectrum[count - 1] - shift) / (high - shift)
    diagonal = np.diag_indices_from(pencil)
    pencil[diagonal] -= shift
    basis = np.random.default_rng(0).standard_normal((len(pencil), count))
    for _ in range(max(2, math.ceil(math.log(1e-17) / math.log(rate)))):
        basis = np.linalg.qr(np.linalg.solve(pencil, basis))[0]
    pencil[diagonal] += shift
    _values, rotation = np.linalg.eigh(basis.T @ pencil @ basis)
    return basis @ rotation


@dataclass(frozen=True, eq=False)
class JointFit:
    """A joint fit's estimate, each edge's empirical loss under it, the bottom d + 1 eigenvalues."""

    estimate: EncoderEstimate
    edge_losses: dict[tuple[str, str], float]
    eigenvalues: tuple[float, ...]

    @property
    def objective(self) -> float:
        """The summed empirical edge loss."""
        return float(sum(self.edge_losses.values()))

    @property
    def gap(self) -> float:
        """lambda_{d+1} / lambda_d, with lambda_d floored at ``EIG_FLOOR``."""
        return self.eigenvalues[-1] / max(self.eigenvalues[-2], EIG_FLOOR)


def fit_joint(results: Sequence[EdgeRegressionResult], latent_dim: int) -> JointFit:
    """Every language's encoder and decoder at once, from the edges' Grams.

    Edge (a, b) contributes its centred covariances S_aa, S_bb and S_ab. With
    E = [E_1 ... E_K], the summed centred edge loss in the latent space,
    sum_e mean ||E_a x_a - E_b x_b||^2, is tr(E Q E^T), where Q adds S_aa and
    S_bb to the diagonal blocks of a and b and -S_ab to the blocks between
    them, as a graph Laplacian adds each edge's degrees and adjacency. B is
    Q's block diagonal: each language's own covariance summed over its edges.
    The minimum under sum_L E_L B_L E_L^T = I is the bottom d generalized
    eigenvectors of (Q, B). Each B_L is whitened by its own
    eigendecomposition, W_L^T B_L W_L = I, keeping the directions above
    ``WHITEN_TOL`` of its largest eigenvalue; a rank-deficient B_L (noiseless
    codecs with nuisance coordinates) loses its null directions, on which
    E_L is zero. The whitened pencil is then I minus the edges' whitened
    cross-covariances: ``np.linalg.eigvalsh`` gives its spectrum and
    ``_bottom_eigenvectors`` the d eigenvectors wanted. The normalisation
    fixes the GL(d) gauge up to an orthogonal map, and the eigenvectors fix
    that.
    Fewer directions than d + 1, or lambda_{d+1} below ``GAP_RATIO`` times
    lambda_d (floored at ``EIG_FLOOR``), is a ``ConditioningError``: the data
    do not single out d latent directions.

    The offsets c_L minimize what centring left out of the objective, the
    edges' mean gaps sum_e ||E_a m_a + c_a - E_b m_b - c_b||^2 with m the
    edge's means: least squares over the graph's incidence matrix, the
    least-norm solution. The decoder regresses x_L on E_L x_L + c_L over L's
    pooled moments, its rows on every edge: D_L = C_L E_L^T (E_L C_L
    E_L^T)^-1 with C_L the pooled covariance, and the offset sends E_L mu_L +
    c_L to the pooled mean mu_L, so E_L ∘ D_L = id. Each edge's loss is the
    mean squared residual of its translator D_b ∘ E_a, read off the edge's
    Gram (``_gram_loss``).
    """
    if not results:
        raise ValueError("the joint fit needs at least one edge")
    dim = results[0].transform.dim
    if not 1 <= latent_dim <= dim:
        raise ValueError(f"latent dimension must lie in [1, {dim}], got {latent_dim}")
    langs = sorted({lang for r in results for lang in r.edge})
    index = {lang: i for i, lang in enumerate(langs)}
    k = len(langs)
    own, cross = np.zeros((k, dim, dim)), np.empty((len(results), dim, dim))
    count, sums, squares = np.zeros(k), np.zeros((k, dim)), np.zeros((k, dim, dim))
    sides = np.r_[:dim, dim + 1 : 2 * dim + 1]
    ends = np.array([[index[lang] for lang in r.edge] for r in results])
    edge_means = np.empty((len(results), 2, dim))
    for r, (a, b), edge_mean, s_ab in zip(results, ends, edge_means, cross):
        moments = r.gram[np.ix_(sides, sides)]
        mean = r.gram[dim, sides] / r.n
        cov = moments / r.n - np.outer(mean, mean)
        own[a] += cov[:dim, :dim]
        own[b] += cov[dim:, dim:]
        s_ab[...] = cov[:dim, dim:]
        edge_mean[...] = mean.reshape(2, dim)
        for i, side in ((a, slice(None, dim)), (b, slice(dim, None))):
            count[i] += r.n
            sums[i] += r.gram[dim, sides[side]]
            squares[i] += moments[side, side]

    values, vectors = np.linalg.eigh(own)
    keep = values > WHITEN_TOL * values[:, -1:]
    whiten = [vectors[i][:, keep[i]] / np.sqrt(values[i, keep[i]]) for i in range(k)]
    bounds = itertools.pairwise(np.cumsum([0, *keep.sum(axis=1)]).tolist())
    rows = [slice(start, stop) for start, stop in bounds]
    pencil = np.eye(rows[-1].stop)
    for (a, b), s_ab in zip(ends, cross):
        block = whiten[a].T @ s_ab @ whiten[b]
        pencil[rows[a], rows[b]] -= block
        pencil[rows[b], rows[a]] -= block.T
    spectrum = np.linalg.eigvalsh(pencil)
    if spectrum.size <= latent_dim:
        raise ConditioningError(
            f"the corpora vary along {spectrum.size} directions in all, too few for"
            f" {latent_dim} latent ones and a gap"
        )
    low = tuple(spectrum[: latent_dim + 1].tolist())
    if low[-1] < GAP_RATIO * max(low[-2], EIG_FLOOR):
        raise ConditioningError(
            f"joint fit has no eigenvalue gap after {latent_dim} latent directions:"
            f" lambda_{latent_dim} = {low[-2]:.3g}, lambda_{latent_dim + 1} = {low[-1]:.3g}"
            f" (needs a ratio of at least {GAP_RATIO:g})"
        )
    basis = _bottom_eigenvectors(pencil, spectrum, latent_dim)
    enc = np.array([(w @ basis[r]).T for w, r in zip(whiten, rows)])

    incidence = np.zeros((len(results), k))
    incidence[range(len(results)), ends[:, 0]] = 1.0
    incidence[range(len(results)), ends[:, 1]] = -1.0
    gaps = (enc[ends] @ edge_means[..., None])[..., 0]
    offset = np.linalg.lstsq(incidence, gaps[:, 1] - gaps[:, 0], rcond=None)[0]

    mean = sums / count[:, None]
    cov = squares / count[:, None, None] - mean[:, :, None] * mean[:, None, :]
    across = cov @ enc.swapaxes(1, 2)
    try:
        dec = np.linalg.solve((enc @ across).swapaxes(1, 2), across.swapaxes(1, 2))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("an encoder loses latent directions on its own data") from exc
    dec = np.ascontiguousarray(dec.swapaxes(1, 2))
    shift = mean - (dec @ ((enc @ mean[..., None])[..., 0] + offset)[..., None])[..., 0]
    estimate = EncoderEstimate(
        {lang: AffineMap(enc[i], offset[i]) for lang, i in index.items()},
        {lang: AffineMap(dec[i], shift[i]) for lang, i in index.items()},
    )

    edge_losses = {
        r.edge: _gram_loss(r.gram, AffineMap(dec[b] @ enc[a], dec[b] @ offset[a] + shift[b]), r.n)
        for r, (a, b) in zip(results, ends)
    }
    return JointFit(estimate, edge_losses, low)
