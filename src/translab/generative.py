"""Encoder-decoder generative model: latent ball, codecs, graphs, corpora.

Sentences here are vectors. Every language owns one codec: an invertible
affine map applied to the latent stacked with scaled nuisance noise
coordinates. Aligned corpora arise by decoding shared latent draws through two
codecs. Encoding recovers the latent exactly, so distributional invariance of
the latent holds by construction rather than approximately. The deterministic
model is the codec with no nuisance coordinates and zero noise scale.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .affine import SINGULAR_TOL
from .errors import DomainError, GraphError, SchemaError
from .seeding import derive_seed

#: Noise seeds are standard normal truncated at this many deviations per coordinate.
NOISE_CUTOFF = 3.0

#: Variance of one noise coordinate: 1 - 2c phi(c) / (2 Phi(c) - 1) at c = NOISE_CUTOFF.
NOISE_VARIANCE = 1.0 - (
    2.0 * NOISE_CUTOFF * math.exp(-0.5 * NOISE_CUTOFF**2) / math.sqrt(2.0 * math.pi)
) / (2.0 * float(ndtr(NOISE_CUTOFF)) - 1.0)


def latent_second_moment(dim: int, radius: float) -> float:
    """Per-coordinate second moment of a latent uniform on the radius-B ball in R^d.

    E z z^T = B^2 / (d + 2) * I, and the latent has mean zero.
    """
    return radius**2 / (dim + 2)


@dataclass(frozen=True)
class FunctionClassSpec:
    """Parameters of the bounded invertible affine class.

    ``rho`` bounds the operator norm of every map and its inverse, ``radius``
    bounds the latent ball, ``offset_bound`` the translation part. The sup-norm
    bound over reachable points is the derived property ``M``.
    """

    dim: int
    radius: float = 1.0
    rho: float = 2.0
    offset_bound: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.rho < 1:
            raise ValueError("rho must be at least 1")
        if self.offset_bound < 0:
            raise ValueError("offset_bound must be nonnegative")
        if not all(map(math.isfinite, (self.radius, self.rho, self.offset_bound))):
            raise ValueError("radius, rho and offset_bound must be finite")

    @property
    def M(self) -> float:
        return self.rho * self.radius + self.offset_bound

    def to_dict(self) -> dict:
        return {
            "d": self.dim,
            "B": self.radius,
            "rho": self.rho,
            "offset_bound": self.offset_bound,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FunctionClassSpec":
        return cls(
            dim=int(payload["d"]),
            radius=float(payload["B"]),
            rho=float(payload["rho"]),
            offset_bound=float(payload["offset_bound"]),
        )


class LatentSampler:
    """Seeded stream of draws uniform on the radius-B ball in R^d.

    The same seed always reproduces the same stream. ``fork`` derives an
    independent sampler keyed by identifying fields, so concurrent consumers
    never share state.
    """

    def __init__(self, dim: int, radius: float = 1.0, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.dim = dim
        self.radius = float(radius)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def sample(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError("m must be at least 1")
        gauss = self._rng.standard_normal((m, self.dim))
        norms = np.maximum(np.linalg.norm(gauss, axis=1, keepdims=True), 1e-300)
        radii = self.radius * self._rng.random(m) ** (1.0 / self.dim)
        # In place, in the order of gauss / norms * radii[:, None]: same bits.
        np.divide(gauss, norms, out=gauss)
        return np.multiply(gauss, radii[:, None], out=gauss)

    def fork(self, *parts) -> "LatentSampler":
        return LatentSampler(self.dim, self.radius, derive_seed(self.seed, *parts))

    def __repr__(self) -> str:
        return f"LatentSampler(dim={self.dim}, radius={self.radius}, seed={self.seed})"


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class RandomizedCodec:
    """Codec whose decoder mixes the latent with scaled nuisance noise.

    decode(z, r) applies one invertible map to the stacked vector (z, sigma*r);
    encode drops the nuisance coordinates after inverting, so it recovers the
    latent exactly for every noise seed. With the defaults (no nuisance
    coordinates, zero noise scale) decode is W z + b and encode its exact
    inverse.
    """

    W: np.ndarray
    b: np.ndarray
    nuisance_dim: int = 0
    sigma: float = 0.0
    _W_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        W = np.array(self.W, dtype=np.float64)
        b = np.array(self.b, dtype=np.float64).reshape(-1)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"W must be square, got {W.shape}")
        if b.shape[0] != W.shape[0]:
            raise ValueError("b dimension does not match W")
        if not 0 <= self.nuisance_dim < W.shape[0]:
            raise ValueError("nuisance_dim must be in [0, total dim)")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if np.linalg.svd(W, compute_uv=False)[-1] < SINGULAR_TOL:
            raise ValueError("codec matrix is numerically singular")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_W_inv", np.linalg.inv(W))

    @property
    def latent_dim(self) -> int:
        return self.W.shape[0] - self.nuisance_dim

    def draw_decoder_seeds(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _truncated_normal(rng, (m, self.nuisance_dim))

    def decode(
        self, z: np.ndarray, r: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Decode latents z with noise seeds r (zero if None), into ``out`` if given."""
        z = np.asarray(z, dtype=np.float64)
        if self.nuisance_dim == 0:
            stacked = z
        else:
            if r is None:
                r = np.zeros((z.shape[0], self.nuisance_dim))
            stacked = np.concatenate([z, self.sigma * np.asarray(r)], axis=1)
        return np.add(stacked @ self.W.T, self.b, out=out)

    def encode(self, x: np.ndarray) -> np.ndarray:
        full = (np.asarray(x, dtype=np.float64) - self.b) @ self._W_inv.T
        return full[:, : self.latent_dim]

    def digest(self) -> str:
        return _digest(self.W, self.b)


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal truncated to [-NOISE_CUTOFF, NOISE_CUTOFF], via inverse CDF."""
    lo = ndtr(-NOISE_CUTOFF)
    hi = ndtr(NOISE_CUTOFF)
    u = rng.random(shape)
    return ndtri(lo + (hi - lo) * u)


def _band_matrix(rng: np.random.Generator, dim: int, rho: float) -> np.ndarray:
    """Random matrix with singular values clipped into [1/rho, rho]."""
    raw = rng.standard_normal((dim, dim))
    u, s, vt = np.linalg.svd(raw)
    s = np.clip(s, 1.0 / rho, rho)
    return u @ np.diag(s) @ vt


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal(dim)
    direction /= max(np.linalg.norm(direction), 1e-300)
    return direction * (radius * rng.random() ** (1.0 / dim))


def sample_randomized_codecs(
    spec: FunctionClassSpec,
    count: int,
    nuisance_dim: int,
    sigma: float,
    seed: int,
) -> list[RandomizedCodec]:
    """Draw one codec per language: banded singular values, offset in the offset ball."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if nuisance_dim < 0:
        raise ValueError("nuisance_dim must be nonnegative")
    # Noiseless codecs keep the deterministic model's stream label, so a seed
    # reproduces the codecs it has always drawn.
    noiseless = nuisance_dim == 0 and sigma == 0
    label = "ground-truth-codecs" if noiseless else "randomized-codecs"
    rng = np.random.default_rng(derive_seed(seed, label))
    total = spec.dim + nuisance_dim
    codecs = []
    for _ in range(count):
        W = _band_matrix(rng, total, spec.rho)
        b = _ball_point(rng, total, spec.offset_bound)
        codecs.append(RandomizedCodec(W, b, nuisance_dim, sigma))
    return codecs


# ---------------------------------------------------------------------------
# Translation graph


@dataclass(frozen=True, eq=False)
class TranslationGraph:
    """Languages as nodes; an edge means an aligned corpus of the given size exists."""

    languages: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]
    _adjacency: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        languages = tuple(self.languages)
        if len(set(languages)) != len(languages):
            raise GraphError("duplicate language ids")
        known = set(languages)
        seen: set[tuple[str, str]] = set()
        canonical = []
        for a, b, n in self.edges:
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
            if a not in known or b not in known:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown language")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            if int(n) < 0:
                raise GraphError(f"negative sample count on edge {key}")
            seen.add(key)
            canonical.append((key[0], key[1], int(n)))
        adjacency: dict[str, list[str]] = {lang: [] for lang in languages}
        for a, b, _n in canonical:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(
            self, "_adjacency", {k: tuple(sorted(v)) for k, v in adjacency.items()}
        )

    def edge_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((a, b) for a, b, _n in self.edges)

    def sample_count(self, a: str, b: str) -> int:
        key = (min(a, b), max(a, b))
        for ea, eb, n in self.edges:
            if (ea, eb) == key:
                return n
        raise GraphError(f"no edge {key}")

    def neighbors(self, lang: str) -> tuple[str, ...]:
        return self._adjacency.get(lang, ())

    def is_connected(self) -> bool:
        if not self.languages:
            return True
        seen = {self.languages[0]}
        frontier = [self.languages[0]]
        while frontier:
            nxt = []
            for lang in frontier:
                for nb in self.neighbors(lang):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        return len(seen) == len(self.languages)

    def require_connected(self) -> None:
        if not self.is_connected():
            raise GraphError("translation graph is not connected")

    def to_dict(self) -> dict:
        return {
            "languages": list(self.languages),
            "edges": [{"a": a, "b": b, "n": n} for a, b, n in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TranslationGraph":
        """Build a graph from its document; a malformed document raises ``SchemaError``."""
        if not (
            isinstance(payload, dict)
            and isinstance(payload.get("languages"), list)
            and isinstance(payload.get("edges"), list)
        ):
            raise SchemaError("graph document needs a 'languages' list and an 'edges' list")
        for lang in payload["languages"]:
            if not isinstance(lang, str):
                raise SchemaError(f"language id {lang!r} is not a string")
        edges = []
        for i, entry in enumerate(payload["edges"]):
            if not isinstance(entry, dict):
                raise SchemaError(f"edge {i} is not an object: {entry!r}")
            a, b, n = entry.get("a"), entry.get("b"), entry.get("n", 0)
            if not (isinstance(a, str) and isinstance(b, str)):
                raise SchemaError(
                    f"edge {i} needs language ids 'a' and 'b', got {a!r} and {b!r}"
                )
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise SchemaError(
                    f"edge {a}->{b} has n={n!r}; n must be a non-negative integer"
                )
            edges.append((a, b, n))
        return cls(tuple(payload["languages"]), tuple(edges))


def six_language_demo_graph(samples_per_edge: int = 200) -> TranslationGraph:
    """Six-language demo graph with diameter 4, realized by L3, L1, L4, L5, L6."""
    langs = tuple(f"L{i}" for i in range(1, 7))
    edges = [
        ("L1", "L2", samples_per_edge),
        ("L1", "L3", samples_per_edge),
        ("L1", "L4", samples_per_edge),
        ("L2", "L4", samples_per_edge),
        ("L4", "L5", samples_per_edge),
        ("L5", "L6", samples_per_edge),
    ]
    return TranslationGraph(langs, tuple(edges))


# ---------------------------------------------------------------------------
# Corpora


@dataclass(frozen=True, eq=False)
class AlignedCorpus:
    """n aligned sentence pairs for one edge, plus generator metadata.

    A float64 ``pairs`` array is taken over without a copy and made read-only;
    other inputs are converted to a new float64 array.
    """

    edge: tuple[str, str]
    pairs: np.ndarray  # (n, 2, dim)
    meta: Mapping[str, object]

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.float64)
        if pairs.ndim != 3 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (n, 2, dim), got {pairs.shape}")
        pairs.setflags(write=False)
        object.__setattr__(self, "edge", tuple(self.edge))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    @property
    def dim(self) -> int:
        return self.pairs.shape[2]

    @property
    def source_points(self) -> np.ndarray:
        return self.pairs[:, 0, :]

    @property
    def target_points(self) -> np.ndarray:
        return self.pairs[:, 1, :]


def randomized_generate(
    edge: tuple[str, str],
    codecs: Mapping[str, RandomizedCodec],
    n: int,
    sampler: LatentSampler,
    seed: int,
) -> AlignedCorpus:
    """Decode n shared latents with independent noise seeds per side.

    The noise draws come from a generator separate from the latent stream, so
    the latents of an edge do not depend on the codecs' noise settings.
    """
    a, b = edge
    for lang in (a, b):
        if lang not in codecs:
            raise DomainError(f"no codec for language {lang!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    z = sampler.fork(seed, "latent", a, b).sample(n)
    noise_rng = np.random.default_rng(derive_seed(seed, "noise", sampler.seed, a, b))
    r = codecs[a].draw_decoder_seeds(noise_rng, n)
    r_prime = codecs[b].draw_decoder_seeds(noise_rng, n)
    dim = codecs[a].W.shape[0]
    if codecs[b].W.shape[0] != dim:
        raise DomainError(f"codecs of {a!r} and {b!r} decode to different dimensions")
    pairs = np.empty((n, 2, dim))
    codecs[a].decode(z, r, out=pairs[:, 0, :])
    codecs[b].decode(z, r_prime, out=pairs[:, 1, :])
    meta = {
        "edge": [a, b],
        "n": n,
        "seed": seed,
        "sampler_seed": sampler.seed,
        "sigma": max(codecs[a].sigma, codecs[b].sigma),
        "nuisance_dim": max(codecs[a].nuisance_dim, codecs[b].nuisance_dim),
        "codec_digest": {a: codecs[a].digest(), b: codecs[b].digest()},
    }
    return AlignedCorpus((a, b), pairs, meta)


# ---------------------------------------------------------------------------
# Moment tests


class MomentComparison(NamedTuple):
    mean_gap: float
    mean_se: float
    cov_gap: float
    cov_se: float
    max_stat: float
    holds: bool


def _stat(gap: float, se: float) -> float:
    if gap <= 1e-15:
        return 0.0
    if se <= 1e-30:
        return float("inf")
    return gap / se


def paired_moment_gaps(a: np.ndarray, b: np.ndarray) -> MomentComparison:
    """Compare mean and covariance of two PAIRED sample sets (same underlying draws).

    Gaps are norms of the moment differences; standard errors aggregate the
    per-entry variances of the paired differences, so an exact match yields
    zero gap and zero tolerance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m = a.shape[0]
    diff = a - b
    mean_gap = float(np.linalg.norm(diff.mean(axis=0)))
    mean_se = float(np.sqrt(diff.var(axis=0, ddof=1).sum() / m))
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    prods = ca[:, :, None] * ca[:, None, :] - cb[:, :, None] * cb[:, None, :]
    cov_gap = float(np.linalg.norm(prods.mean(axis=0)))
    cov_se = float(np.sqrt(prods.var(axis=0, ddof=1).sum() / m))
    max_stat = max(_stat(mean_gap, mean_se), _stat(cov_gap, cov_se))
    holds = mean_gap <= 3.0 * mean_se + 1e-9 and cov_gap <= 3.0 * cov_se + 1e-9
    return MomentComparison(mean_gap, mean_se, cov_gap, cov_se, max_stat, holds)


def _mean_gap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Norm of the gap between the means of two INDEPENDENT sample sets, and its SE."""
    gap = float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))
    se = float(
        np.sqrt(
            (a.var(axis=0, ddof=1) / a.shape[0] + b.var(axis=0, ddof=1) / b.shape[0]).sum()
        )
    )
    return gap, se


def two_sample_moment_gaps(a: np.ndarray, b: np.ndarray) -> MomentComparison:
    """Compare mean and covariance of two INDEPENDENT sample sets."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mean_gap, mean_se = _mean_gap(a, b)
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    cov_gap, cov_se = _mean_gap(
        ca[:, :, None] * ca[:, None, :], cb[:, :, None] * cb[:, None, :]
    )
    stat = max(_stat(mean_gap, mean_se), _stat(cov_gap, cov_se))
    holds = stat <= 3.0
    return MomentComparison(mean_gap, mean_se, cov_gap, cov_se, stat, holds)


def invariance_test(
    codec: RandomizedCodec, sampler: LatentSampler, m: int
) -> MomentComparison:
    """Round-trip latents through decode/encode and compare moments to the originals.

    The nuisance construction recovers latents exactly, so both gaps are zero
    up to floating point; a corrupted codec fails the 3-standard-error check.
    """
    if m < 1000:
        raise ValueError("need at least 1000 samples for a stable moment test")
    z = sampler.fork("invariance-latents").sample(m)
    rng = np.random.default_rng(derive_seed(sampler.seed, "invariance-noise"))
    r = codec.draw_decoder_seeds(rng, m)
    z_round = codec.encode(codec.decode(z, r))
    return paired_moment_gaps(z_round, z)


class PropositionZeroResult(NamedTuple):
    max_stat: float
    holds: bool
    comparisons: tuple


def target_side_samples(
    codecs: Mapping[str, RandomizedCodec],
    sources: Sequence[str],
    target: str,
    sampler: LatentSampler,
    m: int,
    share_latents: bool = False,
    decoder_override: Mapping[str, RandomizedCodec] | None = None,
) -> dict[str, np.ndarray]:
    """The target half of each (source, target) corpus, one sample set per source."""
    if target not in codecs:
        raise DomainError(f"no codec for language {target!r}")
    samples = {}
    for src in sources:
        if src not in codecs:
            raise DomainError(f"no codec for language {src!r}")
        stream = "shared" if share_latents else src
        z = sampler.fork("prop-zero", stream).sample(m)
        decoder = codecs[target]
        if decoder_override and src in decoder_override:
            decoder = decoder_override[src]
        samples[src] = decoder.decode(z)
    return samples


def proposition_zero_check(
    codecs: Mapping[str, RandomizedCodec],
    sources: Sequence[str],
    target: str,
    sampler: LatentSampler,
    m: int,
    share_latents: bool = False,
    decoder_override: Mapping[str, RandomizedCodec] | None = None,
) -> PropositionZeroResult:
    """Target-side marginals from different source pairs must coincide.

    Generates the target half of each (source, target) corpus and runs
    two-sample moment tests across sources. ``decoder_override`` substitutes a
    different target decoder for selected sources, which deliberately violates
    the premise and should flip ``holds`` to False. With ``share_latents`` all
    sources reuse one latent stream, making the samples identical.
    """
    if len(sources) < 2:
        raise ValueError("need at least two source languages")
    if m < 1000:
        raise ValueError("need at least 1000 samples for a stable moment test")
    samples = target_side_samples(
        codecs, sources, target, sampler, m, share_latents, decoder_override
    )
    comparisons = []
    max_stat = 0.0
    holds = True
    ordered = sorted(sources)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            cmp = two_sample_moment_gaps(samples[ordered[i]], samples[ordered[j]])
            comparisons.append((ordered[i], ordered[j], cmp))
            max_stat = max(max_stat, cmp.max_stat)
            holds = holds and cmp.holds
    return PropositionZeroResult(max_stat, holds, tuple(comparisons))


def moment_tv_lower_bound(
    samples_a: np.ndarray, samples_b: np.ndarray, sup_norm: float
) -> tuple[float, float]:
    """A valid TV lower bound from sample means, with its standard-error scale.

    For distributions supported in the sup_norm ball, any unit direction u has
    |E_P(u.X) - E_Q(u.X)| <= 2 * sup_norm * TV(P, Q), so the mean gap divided
    by 2 * sup_norm underestimates TV. Returns (lower bound, one SE of it).
    """
    if sup_norm <= 0:
        raise ValueError("sup_norm must be positive")
    gap, se = _mean_gap(
        np.asarray(samples_a, dtype=np.float64), np.asarray(samples_b, dtype=np.float64)
    )
    return gap / (2.0 * sup_norm), se / (2.0 * sup_norm)
