"""Encoder-decoder generative model: latent ball, codecs, graphs, corpora.

Sentences here are vectors. Every language owns one codec: an invertible
affine map applied to the latent stacked with scaled nuisance noise
coordinates. Aligned corpora arise by decoding shared latent draws through two
codecs. Inverting a codec's map and dropping the nuisance coordinates recovers
the latent exactly, so distributional invariance of the latent holds by
construction rather than approximately. The deterministic model is the codec
with no nuisance coordinates and zero noise scale.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .affine import AffineMap
from .errors import DomainError, GraphError
from .seeding import derive_seed

#: Noise seeds are standard normal truncated at this many deviations per coordinate.
NOISE_CUTOFF = 3.0

#: Latents are normalized and decoded, and corpora written and scored, this
#: many rows at a time, so no full-size temporary lives next to a corpus and
#: its latents, and a block's temporaries stay in cache.
ROW_BLOCK = 1 << 12

#: Variance of one noise coordinate: 1 - 2c phi(c) / (2 Phi(c) - 1) at c = NOISE_CUTOFF.
NOISE_VARIANCE = 1.0 - (
    2.0 * NOISE_CUTOFF * math.exp(-0.5 * NOISE_CUTOFF**2) / math.sqrt(2.0 * math.pi)
) / math.erf(NOISE_CUTOFF / math.sqrt(2.0))


#: Corpora of at least this many rows are read, checked and scored as two
#: halves on two threads (``_halves``). Below it one thread is faster: the
#: second thread's staging and residual blocks weigh more beside a small
#: corpus, and handing work over costs more than it saves.
PARALLEL_ROWS = 16 * ROW_BLOCK


def _row_blocks(n: int, size: int = ROW_BLOCK, start: int = 0) -> list[slice]:
    """Slices of ``size`` >= 2 rows covering ``range(start, n)`` in order; the last has the rest.

    A 1-row remainder joins the block before it: a one-row product takes
    BLAS's matrix-vector path, which rounds differently from the matrix
    product of the whole array. So a block holds one row only when
    n == start + 1. From a ``start`` that is a multiple of ``size`` and at
    least 2 rows below n, the blocks are those of ``range(n)`` past it.
    """
    stops = [*range(start + size, n - 1, size), n]
    return [slice(first, stop) for first, stop in zip([start, *stops], stops)]


def _halves(n: int) -> list[slice]:
    """``range(n)`` as one slice below ``PARALLEL_ROWS``, else as two split at a row block.

    Both halves start on a multiple of ``ROW_BLOCK``, so each one's
    ``_row_blocks`` are the whole range's blocks that lie inside it.
    """
    if n < PARALLEL_ROWS:
        return [slice(0, n)]
    middle = n // 2 // ROW_BLOCK * ROW_BLOCK
    return [slice(0, middle), slice(middle, n)]


def _on_two_threads(work, parts: Sequence) -> list:
    """``[work(part) for part in parts]``, the last of two parts on one worker thread.

    One part runs on this thread alone; the thread pool module is imported
    only for two. An exception from either part is raised once both are done.
    """
    if len(parts) == 1:
        return [work(parts[0])]
    from concurrent.futures import ThreadPoolExecutor

    first, last = parts
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(work, last)
        done = work(first)
    return [done, pending.result()]


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1, out=out)`` bit for bit, as adds of whole columns.

    numpy adds a row of w < 8 entries in order. Up to 128 entries it keeps 8
    partial sums, of columns j, j + 8, ... for j < 8, up to the last multiple
    of 8, combines them pairwise and adds the remaining columns in order. On
    such short rows this is several times faster than numpy's loop over the
    rows; longer rows, which numpy splits, are left to ``np.sum``.
    """
    w = a.shape[-1]
    if w > 128:
        return np.sum(a, axis=-1, out=out)
    if w < 8:
        np.copyto(out, a[..., 0])
        done = 1
    else:
        done = w - w % 8
        partial = a[..., :8].copy()
        for j in range(8, done, 8):
            partial += a[..., j : j + 8]
        partial = partial[..., 0::2] + partial[..., 1::2]
        partial = partial[..., 0::2] + partial[..., 1::2]
        np.add(partial[..., 0], partial[..., 1], out=out)
    for j in range(done, w):
        out += a[..., j]
    out += 0.0  # numpy's sums start from +0.0, so a row of -0.0 sums to +0.0
    return out


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


class LatentSampler:
    """Seeded stream of draws uniform on the radius-B ball in R^d.

    The same seed always reproduces the same stream. ``fork`` derives an
    independent sampler keyed by identifying fields, so concurrent consumers
    never share state.
    """

    def __init__(self, dim: int, radius: float = 1.0, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if not (math.isfinite(radius) and radius >= 0):
            raise ValueError(f"radius must be finite and nonnegative, got {radius!r}")
        self.dim = dim
        self.radius = float(radius)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def sample(self, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError("m must be at least 1")
        out = np.empty((m, self.dim))
        self._draw(out, _latent_buffers(m, self.dim))
        return out

    def _draw(self, out: np.ndarray, buffers: tuple[np.ndarray, ...]) -> None:
        """Fill ``out`` (m, dim) with the next m latents, in ``_latent_buffers``.

        As radius * u ** (1 / dim) and then gauss / norms * radii, in place
        and a row block at a time: the same bits as the whole-array formula.
        The uniforms follow all the normals in the stream, so they are drawn
        a block at a time too.
        """
        self._rng.standard_normal(out=out)
        for rows in _row_blocks(len(out)):
            block = out[rows]
            radii, squares, norms = (array[: len(block)] for array in buffers)
            self._rng.random(out=radii)
            radii **= 1.0 / self.dim
            radii *= self.radius
            # np.linalg.norm(block, axis=1, keepdims=True), in the buffers.
            np.multiply(block, block, out=squares)
            _row_sums(squares, norms[:, 0])
            np.sqrt(norms, out=norms)
            np.maximum(norms, 1e-300, out=norms)
            np.divide(block, norms, out=block)
            np.multiply(block, radii[:, None], out=block)

    def fork(self, *parts) -> "LatentSampler":
        return LatentSampler(self.dim, self.radius, derive_seed(self.seed, *parts))

    def __repr__(self) -> str:
        return f"LatentSampler(dim={self.dim}, radius={self.radius}, seed={self.seed})"


def _latent_buffers(m: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii, squares and norms for normalizing m latents a row block at a time."""
    rows = min(m, ROW_BLOCK + 1)
    return np.empty(rows), np.empty((rows, dim)), np.empty((rows, 1))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class RandomizedCodec:
    """Codec whose decoder mixes the latent with scaled nuisance noise.

    decode(z, r) applies one invertible map, ``decoder``, to the stacked vector
    (z, sigma*r), so inverting it and dropping the nuisance coordinates
    recovers the latent exactly for every noise seed. With the defaults (no
    nuisance coordinates, zero noise scale) decode is the map itself. The
    noise scale ``sigma`` must be finite and nonnegative, and every decoder
    nonsingular (checked first).

    A stack of codecs shares one ``sigma`` and ``nuisance_dim``, and its
    decoder is an ``AffineMap`` stack. ``stack`` and indexing move codecs in
    and out (``c[None]`` is a stack of one) the way ``AffineMap`` moves maps,
    keeping the decoders' singular values, so they check no decoder twice.
    ``decode``, ``draw_decoder_seeds`` and ``digest`` act on one codec.
    """

    decoder: AffineMap
    nuisance_dim: int = 0
    sigma: float = 0.0

    def __post_init__(self):
        if not self.decoder.nonsingular.all():
            raise ValueError("codec matrix is numerically singular")
        if not 0 <= self.nuisance_dim < self.decoder.dim:
            raise ValueError("nuisance_dim must be in [0, total dim)")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")

    @classmethod
    def stack(cls, codecs: Sequence["RandomizedCodec"]) -> "RandomizedCodec":
        """The codecs as one stack, in order; they must share one noise setting."""
        settings = {(codec.sigma, codec.nuisance_dim) for codec in codecs}
        if len(settings) != 1:
            raise ValueError("codecs must share one sigma and nuisance_dim")
        ((sigma, nuisance_dim),) = settings
        return cls(AffineMap.stack([codec.decoder for codec in codecs]), nuisance_dim, sigma)

    def __getitem__(self, index) -> "RandomizedCodec":
        """The codecs at ``index`` on the stack axes."""
        return RandomizedCodec(self.decoder[index], self.nuisance_dim, self.sigma)

    @property
    def latent_dim(self) -> int:
        return self.decoder.dim - self.nuisance_dim

    def draw_decoder_seeds(
        self, rng: np.random.Generator, m: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """m noise seeds, (m, nuisance_dim), drawn into ``out`` if given."""
        return _truncated_normal(rng, (m, self.nuisance_dim), out)

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
        return np.add(stacked @ self.decoder.linear.T, self.decoder.offset, out=out)

    def digest(self) -> str:
        return _digest(self.decoder.linear, self.decoder.offset)


def _truncated_normal(
    rng: np.random.Generator, shape, out: np.ndarray | None = None
) -> np.ndarray:
    """Standard normal truncated to [-NOISE_CUTOFF, NOISE_CUTOFF], via inverse CDF.

    Drawn into ``out`` if given. scipy is imported here, on the first
    non-empty draw, so that modes which draw no noise start without it.
    """
    u = rng.random(shape, out=out)
    if u.size == 0:
        return u
    from scipy.special import ndtr, ndtri

    lo = ndtr(-NOISE_CUTOFF)
    hi = ndtr(NOISE_CUTOFF)
    # In place, as ndtri(lo + (hi - lo) * u): the same bits.
    u *= hi - lo
    u += lo
    return ndtri(u, out=u)


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
    """Draw one codec per language: banded singular values, offset in the offset ball.

    The codecs are views of one stack, whose decoders are checked at once.
    """
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
    W, b = np.empty((count, total, total)), np.empty((count, total))
    for i in range(count):
        W[i] = _band_matrix(rng, total, spec.rho)
        b[i] = _ball_point(rng, total, spec.offset_bound)
    codecs = RandomizedCodec(AffineMap(W, b), nuisance_dim, sigma)
    return [codecs[i] for i in range(count)]


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

    def bfs_tree(self, root: str) -> dict[str, str | None]:
        """Breadth-first parent of each language reachable from ``root`` (root: None).

        Keys are in visit order. The queue is FIFO over sorted neighbours, so each
        language is reached along its lexicographically smallest shortest path.
        """
        parents: dict[str, str | None] = {root: None}
        queue = [root]
        for current in queue:  # grows while it is read
            for nb in self._adjacency[current]:
                if nb not in parents:
                    parents[nb] = current
                    queue.append(nb)
        return parents

    def is_connected(self) -> bool:
        reached = self.bfs_tree(self.languages[0]) if self.languages else {}
        return len(reached) == len(self.languages)

    def require_connected(self) -> None:
        if not self.is_connected():
            raise GraphError("translation graph is not connected")

    def to_dict(self) -> dict:
        return {
            "languages": list(self.languages),
            "edges": [{"a": a, "b": b, "n": n} for a, b, n in self.edges],
        }


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


def corpus_rows(shape: tuple[int, ...], dim: int) -> np.ndarray:
    """An array of ``shape`` rows [x, 1, y] of width 2 * dim + 1, its constant column set."""
    rows = np.empty((*shape, 2 * dim + 1))
    rows[..., dim] = 1.0
    return rows


@dataclass(frozen=True, eq=False)
class AlignedCorpus:
    """n aligned sentence pairs for one edge, plus generator metadata.

    The corpus owns ``rows`` = [x, 1, y], a float64 array of shape
    (n, 2 * dim + 1): source point, a constant 1, target point, filled
    elsewhere (``corpus_rows``) and made read-only here, not copied. Its
    first dim + 1 columns are a least-squares design and the rest its
    targets, so a fit reads them as they are; ``source_points`` and
    ``target_points`` are views of it.
    """

    edge: tuple[str, str]
    rows: np.ndarray
    meta: Mapping[str, object]

    def __post_init__(self):
        rows = self.rows
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.float64
            and rows.ndim == 2
            and rows.shape[1] >= 3
            and rows.shape[1] % 2 == 1
        ):
            raise ValueError(
                "rows must be a float64 (n, 2 * dim + 1) array with dim >= 1,"
                f" got shape {np.shape(rows)} of {getattr(rows, 'dtype', type(rows).__name__)}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "edge", tuple(self.edge))
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return (self.rows.shape[1] - 1) // 2

    @property
    def source_points(self) -> np.ndarray:
        return self.rows[:, : self.dim]

    @property
    def target_points(self) -> np.ndarray:
        return self.rows[:, self.dim + 1 :]


def _edge_codecs(
    edge: tuple[str, str], codecs: Mapping[str, RandomizedCodec]
) -> tuple[RandomizedCodec, RandomizedCodec]:
    """The edge's two codecs, which must decode to one dimension with one noise setting."""
    a, b = edge
    for lang in (a, b):
        if lang not in codecs:
            raise DomainError(f"no codec for language {lang!r}")
    if codecs[b].decoder.dim != codecs[a].decoder.dim:
        raise DomainError(f"codecs of {a!r} and {b!r} decode to different dimensions")
    if (codecs[a].sigma, codecs[a].nuisance_dim) != (codecs[b].sigma, codecs[b].nuisance_dim):
        raise DomainError(f"codecs of {a!r} and {b!r} have different noise settings")
    return codecs[a], codecs[b]


class EdgeDraws:
    """The draws behind one edge's aligned pairs: shared latents and each side's noise seeds.

    Buffers for up to ``capacity`` pairs, allocated once. ``draw`` fills them
    from one seed's streams and allocates nothing, so a worker thread may
    draw one edge while another thread decodes the edge drawn before it.
    ``decode`` writes a row block's two sides into two outputs the caller
    gives, so the draws know no layout of the pairs. The noise comes from a
    generator separate from the latent stream, so the latents of an edge do
    not depend on the codecs' noise settings.
    """

    def __init__(self, capacity: int, latent_dim: int, nuisance_dim: int):
        self._codecs: tuple[RandomizedCodec, RandomizedCodec] = ()
        self._z = np.empty((capacity, latent_dim))
        self._seeds = np.empty((2, capacity, nuisance_dim))
        self._buffers = _latent_buffers(capacity, latent_dim)

    def draw(
        self,
        edge: tuple[str, str],
        codecs: Mapping[str, RandomizedCodec],
        n: int,
        sampler: LatentSampler,
        seed: int,
    ) -> "EdgeDraws":
        """Draw the edge's n pairs from ``seed``'s streams; returns these draws."""
        a, b = edge
        self._codecs = _edge_codecs(edge, codecs)
        sampler.fork(seed, "latent", a, b)._draw(self._z[:n], self._buffers)
        noise_rng = np.random.default_rng(derive_seed(seed, "noise", sampler.seed, a, b))
        for codec, seeds in zip(self._codecs, self._seeds[:, :n]):
            codec.draw_decoder_seeds(noise_rng, n, out=seeds)
        return self

    def decode(self, rows: slice, x: np.ndarray, y: np.ndarray) -> None:
        """Decode the pairs at ``rows``: sources into x and targets into y, each (rows, dim)."""
        for codec, seeds, out in zip(self._codecs, self._seeds[:, rows], (x, y)):
            codec.decode(self._z[rows], seeds, out=out)


def generate_rows(
    edge: tuple[str, str],
    codecs: Mapping[str, RandomizedCodec],
    n: int,
    sampler: LatentSampler,
    seeds: Sequence[int],
) -> np.ndarray:
    """Aligned pairs for each seed, as rows [x, 1, y] in one (len(seeds), n, 2 * dim + 1) array.

    Each seed's ``EdgeDraws`` are decoded straight into its slice, one row
    block at a time, so no more than one seed's draws are held besides the
    result, and no full-size temporary.
    """
    codec, _ = _edge_codecs(edge, codecs)
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = codec.decoder.dim
    rows = corpus_rows((len(seeds), n), dim)
    draws = EdgeDraws(n, sampler.dim, codec.nuisance_dim)
    for i, seed in enumerate(seeds):
        draws.draw(edge, codecs, n, sampler, seed)
        for block in _row_blocks(n):
            draws.decode(block, rows[i, block, :dim], rows[i, block, dim + 1 :])
    return rows


def corpus_meta(
    edge: tuple[str, str],
    codecs: Mapping[str, RandomizedCodec],
    n: int,
    sampler: LatentSampler,
    seed: int,
) -> dict:
    """The ``meta`` of an edge's corpus: its draw, its codecs' one noise setting and digests."""
    a, b = edge
    codec_a, codec_b = _edge_codecs(edge, codecs)
    return {
        "edge": [a, b],
        "n": n,
        "seed": seed,
        "sampler_seed": sampler.seed,
        "sigma": codec_a.sigma,
        "nuisance_dim": codec_a.nuisance_dim,
        "codec_digest": {a: codec_a.digest(), b: codec_b.digest()},
    }


def randomized_generate(
    edge: tuple[str, str],
    codecs: Mapping[str, RandomizedCodec],
    n: int,
    sampler: LatentSampler,
    seed: int,
) -> AlignedCorpus:
    """Decode n shared latents with independent noise seeds per side.

    The rows are ``generate_rows`` for the one seed.
    """
    rows = generate_rows(edge, codecs, n, sampler, [seed])[0]
    return AlignedCorpus(edge, rows, corpus_meta(edge, codecs, n, sampler, seed))
