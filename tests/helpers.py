"""Shared construction helpers for the test suite."""

import copy
import itertools
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from translab import io
from translab.affine import AffineMap
from translab.generative import (
    NOISE_CUTOFF,
    NOISE_VARIANCE,
    ROW_BLOCK,
    CorpusGram,
    EdgeDraws,
    FunctionClassSpec,
    TranslationGraph,
    _row_blocks,
    latent_second_moment,
    randomized_generate,
    sample_randomized_codecs,
    stream_gram,
)
from translab.distributions import WEIGHT_TOL, Atom, DeterministicTranslator, FiniteDistribution
from translab.errors import DomainError
from translab.evaluation import SweepRow, _affine_losses, _codec
from translab.impossibility import (
    ManyToManyInstance,
    make_worst_case,
    random_many_to_many_instance,
    random_two_to_one_instance,
)
from translab.seeding import derive_seed
from translab.trainer import (
    COND_LIMIT,
    EncoderEstimate,
    fit_edge,
    fit_joint,
)


# ---------------------------------------------------------------------------
# Operations on distributions and translators, the reference for the array form


def distribution_from_dict(masses: Mapping[Atom, float]) -> FiniteDistribution:
    atoms = tuple(masses.keys())
    return FiniteDistribution(atoms, np.array([masses[a] for a in atoms]))


def weight(dist: FiniteDistribution, atom: Atom) -> float:
    """``dist``'s weight on ``atom``: 0 off its support."""
    return next((float(w) for a, w in zip(dist.support, dist.weights) if a == atom), 0.0)


def after(outer: DeterministicTranslator, inner: DeterministicTranslator) -> DeterministicTranslator:
    """Composition outer ∘ inner, total on inner's domain."""
    return DeterministicTranslator({a: outer(inner(a)) for a in inner.mapping})


def identity_translator(atoms) -> DeterministicTranslator:
    return DeterministicTranslator({a: a for a in atoms})


def constant_translator(atoms, value: Atom) -> DeterministicTranslator:
    return DeterministicTranslator({a: value for a in atoms})


def tv_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance, computed as half the L1 gap over the unioned support.

    Atoms absent from one distribution carry weight zero.
    """
    gaps: dict[Atom, float] = {}
    for atom, w in zip(p.support, p.weights):
        gaps[atom] = w
    for atom, w in zip(q.support, q.weights):
        gaps[atom] = gaps.get(atom, 0.0) - w
    return 0.5 * float(sum(abs(v) for v in gaps.values()))


def pushforward(dist: FiniteDistribution, f: DeterministicTranslator) -> FiniteDistribution:
    """Distribution of f(X) for X ~ dist; raises DomainError if f is not total on it.

    Output atoms are ordered by first appearance of their preimages, which
    keeps the result deterministic for a given input.
    """
    masses: dict[Atom, float] = {}
    for atom, w in zip(dist.support, dist.weights):
        image = f(atom)
        masses[image] = masses.get(image, 0.0) + float(w)
    return distribution_from_dict(masses)


def target_marginal(instance: ManyToManyInstance, src: str, dst: str) -> FiniteDistribution:
    """The pair's target marginal, pushed forward through its ground-truth translator."""
    return pushforward(instance.marginals[(src, dst)], instance.translators[(src, dst)])


def random_distribution(rng: np.random.Generator, atoms) -> FiniteDistribution:
    atoms = tuple(atoms)
    raw = rng.random(len(atoms)) + 0.05
    return FiniteDistribution(atoms, raw / raw.sum())


def random_translator(rng: np.random.Generator, domain, codomain) -> DeterministicTranslator:
    codomain = tuple(codomain)
    return DeterministicTranslator(
        {atom: codomain[rng.integers(len(codomain))] for atom in domain}
    )


def max_entry_difference(a: AffineMap, b: AffineMap) -> float:
    """Largest absolute difference between two maps' linear entries and offsets."""
    return float(
        max(np.abs(a.linear - b.linear).max(), np.abs(a.offset - b.offset).max())
    )


def inverse(m: AffineMap) -> AffineMap:
    """The inverse of an invertible affine map (or of each map of a stack)."""
    inv = np.linalg.inv(m.linear)
    return AffineMap(inv, -(inv @ m.offset[..., None])[..., 0])


def with_gauge(estimate: EncoderEstimate, f: AffineMap) -> EncoderEstimate:
    """``estimate`` in another gauge: every encoder followed by the invertible latent map ``f``.

    E_L -> f ∘ E_L and D_L -> D_L ∘ f^-1, so composites, and every
    gauge-free quantity, must not move.
    """
    undo = inverse(f)
    return EncoderEstimate(
        {lang: f.compose(enc) for lang, enc in estimate.encoders.items()},
        {lang: dec.compose(undo) for lang, dec in estimate.decoders.items()},
    )


def apply(m: AffineMap, points) -> np.ndarray:
    """``m`` applied to each row of an (n, d) point array: points @ linear.T + offset."""
    return np.asarray(points, dtype=np.float64) @ m.linear.T + m.offset


def composite(estimate: EncoderEstimate, src: str, dst: str) -> AffineMap:
    """The translator src -> dst of an estimate: D_dst ∘ E_src."""
    return estimate.decoder(dst).compose(estimate.encoder(src))


def empirical_edge_loss(estimate: EncoderEstimate, edge, pairs) -> float:
    """The row-form edge loss: mean squared gap of the composite on the aligned pairs (n, 2, D)."""
    a, b = edge
    residual = apply(composite(estimate, a, b), pairs[:, 0]) - pairs[:, 1]
    return float(np.mean(np.sum(residual**2, axis=1)))


def truth_estimate(codecs) -> EncoderEstimate:
    """The ground truth as an estimate: E_L reads the latent off a sentence, D_L decodes it noiselessly."""
    encoders, decoders = {}, {}
    for lang, codec in codecs.items():
        d, full = codec.latent_dim, encoder_map(codec)
        encoders[lang] = AffineMap(full.linear[:d], full.offset[:d])
        decoders[lang] = AffineMap(codec.decoder.linear[:, :d], codec.decoder.offset)
    return EncoderEstimate(encoders, decoders)


def joint_estimate(corpora) -> EncoderEstimate:
    """The joint fit's estimate on ``corpora``, with the latent dimension their meta records."""
    latent_dim = corpora[0].dim - corpora[0].meta["nuisance_dim"]
    return fit_joint([fit_edge(c) for c in corpora], latent_dim).estimate


def encoder_map(codec) -> AffineMap:
    """The exact inverse of a codec's decoder, as one affine map."""
    return inverse(codec.decoder)


def encode(codec, x) -> np.ndarray:
    """The latents of ``x``, the exact inverse of ``decode`` for every noise seed."""
    shifted = np.asarray(x, dtype=np.float64) - codec.decoder.offset
    full = shifted @ encoder_map(codec).linear.T
    return full[:, : codec.latent_dim]


def monte_carlo_pair_loss(transform, codecs, src, dst, sampler, m, seed, target_noise):
    """Monte Carlo mean and standard error of E||T(x) - y||^2 over m seeded draws.

    x decodes a latent draw through the ``src`` codec with its nuisance noise.
    y decodes the same latent through the ``dst`` codec: with fresh noise of its
    own when ``target_noise`` (the sweep's corpora), else at the mean noise seed
    (the reference of the chained-bound evaluation). This is an independent
    route to the closed-form population losses in ``translab.evaluation``.
    """
    src_codec, dst_codec = codecs[src], codecs[dst]
    z = sampler.fork(seed, "pop", src, dst).sample(m)
    rng = np.random.default_rng(derive_seed(seed, "pop-noise", sampler.seed, src, dst))
    x = src_codec.decode(z, src_codec.draw_decoder_seeds(rng, m))
    if target_noise:
        y = dst_codec.decode(z, dst_codec.draw_decoder_seeds(rng, m))
    else:
        y = dst_codec.decode(encode(src_codec, x))
    squared = np.sum((apply(transform, x) - y) ** 2, axis=1)
    return float(squared.mean()), float(squared.std(ddof=1) / math.sqrt(m))


# ---------------------------------------------------------------------------
# Paper-check oracles: the 0-1 error, the population loss, exact moments


def zero_one_error(dist, f, f_star) -> float:
    """Mass of atoms where f and f_star disagree: E[1(f(X) != f_star(X))]."""
    return float(sum(w for atom, w in zip(dist.support, dist.weights) if f(atom) != f_star(atom)))


def population_loss(estimate, pair, codecs, spec) -> float:
    """Exact squared gap between the learned and ground-truth composites of ``pair``.

    The composite is scored as a stack of one map, decoded by codec stacks of one.
    """
    src, dst = (_codec(codecs, lang, spec)[None] for lang in pair)
    return _affine_losses(
        composite(estimate, *pair)[None], src, dst, spec.radius, target_noise=False
    )[0]


def affine_moments(f, latent_dim, nuisance_dim, radius) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of f(z, r) for an affine f of the latent and noise seed.

    z is uniform on the radius-B ball in R^d and r has independent truncated
    normal coordinates; both have mean zero and diagonal covariance. f is read
    at the origin and at each unit vector e_j: the mean is f(0, 0) and the
    covariance is sum_j var_j c_j c_j^T with c_j = f(e_j) - f(0, 0).
    """
    points = np.eye(1 + latent_dim + nuisance_dim, latent_dim + nuisance_dim, k=-1)
    values = np.asarray(f(points[:, :latent_dim], points[:, latent_dim:]), dtype=np.float64)
    mean = values[0]
    columns = values[1:] - mean
    var = np.repeat(
        [latent_second_moment(latent_dim, radius), NOISE_VARIANCE],
        [latent_dim, nuisance_dim],
    )
    return mean, (columns.T * var) @ columns


def moment_gap(a, b) -> tuple[float, float, bool]:
    """Norms of the mean and covariance differences of two (mean, cov) pairs, and a verdict.

    The verdict is True when both are at most 1e-9 times the largest
    covariance entry (at least 1), so the moments count as equal.
    """
    mean_gap = float(np.linalg.norm(a[0] - b[0]))
    cov_gap = float(np.linalg.norm(a[1] - b[1]))
    tol = 1e-9 * max(1.0, np.abs(a[1]).max(initial=0.0), np.abs(b[1]).max(initial=0.0))
    return mean_gap, cov_gap, mean_gap <= tol and cov_gap <= tol


def invariance_gap(codec, radius=1.0, inverse=None) -> tuple[float, float, bool]:
    """``moment_gap`` between inverse(decode(z, r)) and the latent itself.

    ``inverse`` maps sentences back to latents and defaults to ``encode``.
    The nuisance construction recovers latents exactly, so both gaps are zero
    up to rounding; a corrupted inverse shifts the mean or the covariance. Only
    the law is compared, so an inverse off by a rotation of the latent passes.
    """
    d = codec.latent_dim

    def recovered(z, r):
        x = codec.decode(z, r)
        return encode(codec, x) if inverse is None else inverse(x)

    round_trip = affine_moments(recovered, d, codec.nuisance_dim, radius)
    return moment_gap(round_trip, (np.zeros(d), latent_second_moment(d, radius) * np.eye(d)))


def target_moments(codecs_by_source, target, radius=1.0) -> dict:
    """Exact moments of the target half of each source's (source, target) corpus.

    ``codecs_by_source`` maps each source language to the codecs its corpus
    is decoded with. The target half is the target codec applied to the
    shared latent and fresh target noise, so Proposition 0 says the moments
    coincide when every corpus has the same target codec; a mapping with
    another target codec breaks that premise.
    """
    if len(codecs_by_source) < 2:
        raise ValueError("need at least two source languages")
    moments = {}
    for src, codecs in codecs_by_source.items():
        for lang in (src, target):
            if lang not in codecs:
                raise DomainError(f"no codec for language {lang!r}")
        decoder = codecs[target]
        moments[src] = affine_moments(
            decoder.decode, decoder.latent_dim, decoder.nuisance_dim, radius
        )
    return moments


def moment_tv_lower_bound(mean_a, mean_b, sup_norm) -> float:
    """A valid TV lower bound from the means of two laws on the sup_norm ball.

    Any unit direction u has |E_P(u.X) - E_Q(u.X)| <= 2 * sup_norm * TV(P, Q),
    so the mean gap divided by 2 * sup_norm underestimates TV.
    """
    if sup_norm <= 0:
        raise ValueError("sup_norm must be positive")
    return float(np.linalg.norm(np.subtract(mean_a, mean_b))) / (2.0 * sup_norm)


# ---------------------------------------------------------------------------
# One-map and out-of-place references for the stacked and in-place kernels


def scalar_affine_loss(transform, src, dst, radius, target_noise) -> float:
    """E||T(x) - y||^2 for one map, x decoded by ``src`` and y by ``dst``, one matrix at a time.

    The closed form ``translab.evaluation._affine_losses`` must reproduce bit
    for bit on every map of a stack.
    """
    d = src.latent_dim
    M = transform.linear @ src.decoder.linear
    offset = transform.linear @ src.decoder.offset + transform.offset - dst.decoder.offset
    loss = np.sum(offset**2) + latent_second_moment(d, radius) * np.sum(
        (M[:, :d] - dst.decoder.linear[:, :d]) ** 2
    )
    loss += src.sigma**2 * NOISE_VARIANCE * np.sum(M[:, d:] ** 2)
    if target_noise:
        loss += dst.sigma**2 * NOISE_VARIANCE * np.sum(dst.decoder.linear[:, d:] ** 2)
    return float(loss)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert two float64 arrays agree bit for bit: every entry's ``.hex()`` matches.

    The 64-bit patterns are compared at once, which is as strict as ``.hex()``
    on every number (and stricter on NaN payloads); a failure shows the
    first differing entry in hex.
    """
    assert actual.shape == expected.shape
    differ = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
    if differ.size:
        i = differ[0]
        a, b = actual.ravel()[i], expected.ravel()[i]
        raise AssertionError(
            f"{differ.size} of {actual.size} entries differ; first at flat index {i}: "
            f"{a.hex()} != {b.hex()}"
        )


def out_of_place_latent_sample(dim, radius, seed, m):
    """``LatentSampler(dim, radius, seed).sample(m)`` as fresh-array arithmetic."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((m, dim))
    norms = np.maximum(np.linalg.norm(gauss, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.random(m) ** (1.0 / dim)
    return gauss / norms * radii[:, None]


def whole_array_pairs(edge, codecs, n, sampler, seed) -> np.ndarray:
    """``generated_pairs(edge, codecs, n, sampler, seed)``, decoded as whole arrays.

    The latents come from ``out_of_place_latent_sample`` and the noise seeds
    from the out-of-place inverse CDF, in the generator's stream order; each
    side is then one ``decode`` call over all n rows.
    """
    from scipy.special import ndtr, ndtri

    a, b = edge
    latent = sampler.fork(seed, "latent", a, b)
    z = out_of_place_latent_sample(latent.dim, latent.radius, latent.seed, n)
    rng = np.random.default_rng(derive_seed(seed, "noise", sampler.seed, a, b))
    lo, hi = ndtr(-NOISE_CUTOFF), ndtr(NOISE_CUTOFF)
    seeds = [ndtri(lo + (hi - lo) * rng.random((n, codecs[lang].nuisance_dim))) for lang in edge]
    return np.stack([codecs[lang].decode(z, r) for lang, r in zip(edge, seeds)], axis=1)


def generated_pairs(edge, codecs, n, sampler, seed) -> np.ndarray:
    """The (n, 2, D) pairs that ``generate`` writes and ``randomized_generate`` sums.

    They are drawn for the edge and seed and decoded by ``EdgeDraws`` a row
    block at a time, as both do.
    """
    nuisance_dim, dim = codecs[edge[0]].nuisance_dim, codecs[edge[0]].decoder.dim
    draws = EdgeDraws(n, sampler.dim, nuisance_dim).draw(edge, codecs, n, sampler, seed)
    pairs = np.empty((n, 2, dim))
    for rows in _row_blocks(n):
        draws.decode(rows, pairs[rows, 0], pairs[rows, 1])
    return pairs


def corpus_pairs(corpus: CorpusGram, codecs, sampler) -> np.ndarray:
    """The pairs of a ``randomized_generate`` corpus, drawn again from its meta's seed."""
    assert corpus.meta["sampler_seed"] == sampler.seed
    return generated_pairs(corpus.edge, codecs, corpus.n, sampler, corpus.meta["seed"])


def rows_of_pairs(pairs) -> np.ndarray:
    """New rows [x, 1, y] holding ``pairs`` (..., n, 2, dim), stack axes kept."""
    pairs = np.asarray(pairs, dtype=np.float64)
    ones = np.ones((*pairs.shape[:-2], 1))
    return np.concatenate([pairs[..., 0, :], ones, pairs[..., 1, :]], axis=-1)


def pair_fill(pairs):
    """A ``fill(rows, x, y)`` that copies the sources and targets of ``pairs`` (n, 2, dim)."""

    def fill(rows, x, y):
        x[...], y[...] = pairs[rows, 0], pairs[rows, 1]

    return fill


def corpus_of_pairs(pairs, edge=("A", "B"), meta=None) -> CorpusGram:
    """The corpus of ``edge`` holding ``pairs`` (n, 2, dim), summed by ``stream_gram``."""
    n, _, dim = np.shape(pairs)
    gram, largest, _finite = stream_gram(n, dim, pair_fill(pairs))
    return CorpusGram(tuple(edge), {} if meta is None else meta, n, gram, largest)


def assert_gram_of_rows(gram: np.ndarray, rows: np.ndarray) -> None:
    """Assert ``gram`` is the Gram of ``rows`` [x, 1, y] as ``stream_gram`` sums it.

    A corpus of one row block (``ROW_BLOCK`` + 1 rows at most) has the bits
    of the one product of its rows; past that, the blocks' sum rounds
    differently, within 1e-13 of the largest entry.
    """
    whole = rows.T @ rows
    if len(rows) <= ROW_BLOCK + 1:
        assert_same_bits(gram, whole)
    else:
        assert gram.shape == whole.shape
        assert np.abs(gram - whole).max() <= 1e-13 * np.abs(whole).max()


def read_pairs(path) -> np.ndarray:
    """The pairs (n, 2, dim) of the corpus file at ``path``, as ``np.load`` reads them."""
    with np.load(path) as npz:
        return npz["pairs"]


def savez_corpus(edge, pairs, meta, path) -> None:
    """The corpus file as ``np.savez`` writes it: the reference for ``io.write_corpus``."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            pairs=np.asarray(pairs, dtype=np.float64),
            edge=np.array(list(edge)),
            meta=np.array(json.dumps(dict(meta), sort_keys=True)),
        )


def write_pairs(path, edge, pairs, meta) -> None:
    """``io.write_corpus`` of the pairs (n, 2, dim)."""
    n, _, dim = np.shape(pairs)
    io.write_corpus(path, edge, meta, n, dim, pair_fill(pairs))


def out_of_place_fit_edge(pairs, ridge=1e-10):
    """``fit_edge``'s (transform, loss) on pairs (n, 2, d), from a new ``np.hstack`` of [x, 1, y].

    The loss is the mean squared residual of the points, which ``fit_edge``
    reads off the Gram instead.
    """
    points, targets = pairs[:, 0], pairs[:, 1]
    n, d = points.shape
    stacked = np.hstack([points, np.ones((n, 1)), targets])
    gram = stacked.T @ stacked
    normal, rhs = gram[: d + 1, : d + 1], gram[: d + 1, d + 1 :]
    if np.linalg.cond(normal) > COND_LIMIT:
        normal = normal + ridge * np.eye(d + 1)
    theta = np.linalg.solve(normal, rhs)
    transform = AffineMap(theta[:d].T, theta[d])
    loss = float(np.mean(np.sum((apply(transform, points) - targets) ** 2, axis=1)))
    return transform, loss


def per_trial_sweep_rows(edge, codecs, n_list, trials, sampler, seed) -> list:
    """``sample_complexity_sweep``'s rows, one (n, trial) at a time.

    Each trial's corpus comes from ``randomized_generate``, is fitted by
    ``fit_edge`` and scored as a stack of one map against codec stacks of one
    (``c[None]``), the route the stacked sweep must reproduce bit for bit.
    """
    src, dst = (codecs[lang][None] for lang in edge)
    rows = []
    for n in n_list:
        for trial in range(trials):
            train = randomized_generate(
                edge, codecs, n, sampler, derive_seed(seed, "sweep-train", n, trial)
            )
            fitted = fit_edge(train)
            pop = _affine_losses(
                fitted.transform[None], src, dst, sampler.radius, target_noise=True
            )[0]
            gap = abs(pop - fitted.empirical_loss)
            rows.append(SweepRow(int(n), trial, fitted.empirical_loss, pop, gap))
    return rows


# ---------------------------------------------------------------------------
# Graph traversal reference


def random_connected_graph(rng: np.random.Generator, k: int, chords: int) -> TranslationGraph:
    """A random spanning tree plus up to ``chords`` extra edges, all listed in shuffled order.

    Language ids mix letters and numbers and are listed out of sorted order;
    each edge names its endpoints in a random order.
    """
    ids = rng.choice(26 * 10, size=k, replace=False)
    langs = [f"{chr(ord('a') + i % 26)}{i // 26}" for i in ids]
    edges = {tuple(sorted((langs[i], langs[rng.integers(i)]))) for i in range(1, k)}
    for _ in range(chords):
        a, b = rng.choice(k, size=2, replace=False)
        edges.add(tuple(sorted((langs[a], langs[b]))))
    listed = [(b, a) if rng.integers(2) else (a, b) for a, b in sorted(edges)]
    listed = [listed[i] for i in rng.permutation(len(listed))]
    return TranslationGraph(tuple(langs), tuple((a, b, 1) for a, b in listed))


def lexicographic_shortest_path(graph: TranslationGraph, src: str, dst: str) -> tuple:
    """The lexicographically smallest of all shortest ``src`` -> ``dst`` paths.

    Enumerates every simple path, one edge longer per round, from the edge
    list alone; independent of ``TranslationGraph``'s own traversal.
    """
    adjacent = {lang: set() for lang in graph.languages}
    for a, b, _n in graph.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    paths = [(src,)]
    while paths:
        arrived = [path for path in paths if path[-1] == dst]
        if arrived:
            return min(arrived)
        paths = [path + (nb,) for path in paths for nb in adjacent[path[-1]] if nb not in path]
    raise ValueError(f"no path from {src!r} to {dst!r}")


# ---------------------------------------------------------------------------
# Damaged instance documents for the loader and CLI tests


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _set(payload, path, value):
    _parent(payload, path)[path[-1]] = value
    return payload


def _drop(payload, path):
    del _parent(payload, path)[path[-1]]
    return payload


#: The three maps that had to agree, in the instance layout documents no longer use.
OLD_INSTANCE_MAPS = {
    "sentences": {"L0": [["L", "a0"], ["L", "a1"]], "L1": [["L", "b0"], ["L", "b1"]],
                  "L": ["y0", "y1"]},
    "marginals": {"L0->L": [0.75, 0.25], "L1->L": [0.25, 0.75]},
    "translators": {"L0->L": {"a0": "y0", "a1": "y1"}, "L1->L": {"b0": "y0", "b1": "y1"}},
}


def _repeat_key(instance, key: str, repeat: str) -> str:
    """The instance's document as JSON text, with the key ``key`` written as ``repeat``."""
    text = json.dumps(io.instance_to_dict(instance))
    assert text.count(f'"{key}": ') == 1
    return text.replace(f'"{key}": ', f'"{repeat}": ')


#: Defects of a ``make_worst_case(0.5)`` instance's document, each with a fragment
#: of its message. Each damage writes the instance's document and damages it; a
#: repeated key, which no dict can hold, is damaged in the document's JSON text.
WORST_CASE_DEFECTS = {
    "pair_nan_weight": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L0->L", 0, 1), math.nan),
        "pair 'L0->L' row 0: weight must be finite and nonnegative, got nan",
    ),
    "pair_negative_weight": (
        lambda i: _set(
            io.instance_to_dict(i), ("pairs", "L0->L"), [["a0", 1.5, "y0"], ["a1", -0.5, "y1"]]
        ),
        "pair 'L0->L' row 1: weight must be finite and nonnegative, got -0.5",
    ),
    "pair_weights_sum_to_0.9": (
        lambda i: _set(
            io.instance_to_dict(i), ("pairs", "L1->L"), [["b0", 0.5, "y0"], ["b1", 0.4, "y1"]]
        ),
        "pair 'L1->L' weights sum to 0.9",
    ),
    "pair_non_numeric_weight": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L0->L", 1, 1), "0.5"),
        "pair 'L0->L' row 1: field 'weight' must be a JSON number, got '0.5'",
    ),
    "unknown_pair_key": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L9->L"), [["z0", 1.0, "y0"]]),
        "pair 'L9->L' names unknown language 'L9'",
    ),
    "pair_and_language_keys": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L0"), [["a0", 1.0, "y0"]]),
        "pair key 'L0' must look like 'src->dst'",
    ),
    "pool_of_unknown_language": (
        lambda i: _set(io.instance_to_dict(i), ("pools", "L9"), ["z0"]),
        "'pools' has the keys ['L', 'L0', 'L1', 'L9'], not the languages ['L', 'L0', 'L1']",
    ),
    "pools_missing_a_language": (
        lambda i: _drop(io.instance_to_dict(i), ("pools", "L1")),
        "'pools' has the keys ['L', 'L0'], not the languages ['L', 'L0', 'L1']",
    ),
    "duplicate_pool_id": (
        lambda i: _set(io.instance_to_dict(i), ("pools", "L"), ["y0", "y1", "y0"]),
        "pool of 'L' lists 'y0' twice",
    ),
    "duplicate_sentence_in_a_pair": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L0->L", 1, 0), "a0"),
        "pair 'L0->L' row 1: sentence 'a0' already has a row",
    ),
    "translation_outside_the_pool": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L0->L", 0, 2), "nope"),
        "pair 'L0->L' row 0: translation 'nope' is not in the pool of 'L'",
    ),
    "row_of_the_wrong_length": (
        lambda i: _set(io.instance_to_dict(i), ("pairs", "L1->L", 1), ["b1", 0.75]),
        "pair 'L1->L' row 1: must be [sentence, weight, translation], got ['b1', 0.75]",
    ),
    "arrow_in_language_id": (
        lambda i: {"languages": ["a->b", "c"], "pools": {"a->b": [], "c": ["y"]},
                   "pairs": {"a->b->c": [["s", 1.0, "y"]]}},
        "language id 'a->b' holds '->'",
    ),
    "document_is_a_list": (lambda i: [io.instance_to_dict(i)], "JSON object"),
    "languages_is_a_number": (
        lambda i: _set(io.instance_to_dict(i), ("languages",), 3), "'languages'"
    ),
    "one_language": (
        lambda i: {"languages": ["L0"], "pools": {"L0": ["a"]}, "pairs": {}},
        "at least two languages",
    ),
    "old_layout": (
        lambda i: {"languages": ["L0", "L1", "L"], **OLD_INSTANCE_MAPS},
        "instance document missing key 'pools'",
    ),
    # the old maps would be dropped, and they may disagree with the new ones
    "old_and_new_layout": (
        lambda i: {**io.instance_to_dict(i), **OLD_INSTANCE_MAPS},
        "instance document has unknown key 'sentences'",
    ),
    # json.load would keep the second of two values for one key
    "repeated_pair_key": (
        lambda i: _repeat_key(i, "L1->L", "L0->L"), "JSON object repeats key 'L0->L'"
    ),
    "repeated_pool_key": (
        lambda i: _repeat_key(i, "L1", "L0"), "JSON object repeats key 'L0'"
    ),
}


def worst_case_defect_text(defect: str) -> str:
    """The JSON text of ``make_worst_case(0.5)``'s document damaged by ``defect``."""
    damaged = WORST_CASE_DEFECTS[defect][0](make_worst_case(0.5))
    return damaged if isinstance(damaged, str) else json.dumps(damaged)

LEAF_REPLACEMENTS = (math.nan, math.inf, -1, "x", [], {}, None)

#: Leaves of the wrong JSON type for an integer or number field, but which
#: ``int(...)`` or ``float(...)`` would turn into one.
MISTYPED_NUMBER_LEAVES = (3.7, 2.0, "1", True, False)


def _walk(node, path=()):
    """Yield (path, container, child) for every dict entry and list item of a JSON document."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield path + (key,), node, child
        yield from _walk(child, path + (key,))


def _damage(draw, payload, replacements=LEAF_REPLACEMENTS):
    """``payload`` with one dict key dropped or one leaf set to one of ``replacements``."""
    nodes = list(_walk(payload))
    if draw(st.booleans()):
        keys = [path for path, container, _child in nodes if isinstance(container, dict)]
        return _drop(payload, draw(st.sampled_from(keys)))
    leaves = [path for path, _container, child in nodes if not isinstance(child, (dict, list))]
    return _set(payload, draw(st.sampled_from(leaves)), draw(st.sampled_from(replacements)))


@st.composite
def damaged_instance_documents(draw):
    """A valid two-to-one or many-to-many document with one defect.

    The defect is one leaf replaced or one key dropped.
    """
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        instance = random_two_to_one_instance(rng)
    else:
        instance = random_many_to_many_instance(rng, n_languages=2, atom_budget=4)
    return _damage(draw, io.instance_to_dict(instance))


def _saved_document(save, *args) -> dict:
    """The JSON document that ``save(*args, path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        save(*args, path)
        return json.loads(path.read_text())


#: A valid document of each JSON input kind besides instances.
GRAPH_DOCUMENT = TranslationGraph(
    ("L0", "L1", "L2"), (("L0", "L1", 8), ("L1", "L2", 8))
).to_dict()
CODEC_DOCUMENT = _saved_document(
    io.save_codecs,
    dict(zip(("L0", "L1"), sample_randomized_codecs(FunctionClassSpec(dim=2), 2, 1, 0.1, 0))),
    FunctionClassSpec(dim=2),
)
ENCODER_DOCUMENT = _saved_document(
    io.save_encoders,
    EncoderEstimate(
        {
            "L0": AffineMap(np.eye(2, 3), np.zeros(2)),
            "L1": AffineMap(np.array([[2.0, 0.0, 1.0], [0.0, 0.5, 0.0]]), np.ones(2)),
        },
        {
            "L0": AffineMap(np.eye(3, 2), np.zeros(3)),
            "L1": AffineMap(np.array([[0.5, 0.0], [0.0, 2.0], [0.0, 0.0]]), [-0.5, -2.0, 0.0]),
        },
    ),
)


@st.composite
def damaged_documents(draw, template: dict, replacements=LEAF_REPLACEMENTS):
    """A copy of ``template`` with one leaf replaced or one key dropped."""
    return _damage(draw, copy.deepcopy(template), replacements)


# ---------------------------------------------------------------------------
# Damaged corpus files for the loader and CLI tests


def _not_a_json_object(text: str) -> bool:
    try:
        return not isinstance(json.loads(text), dict)
    except ValueError:
        return True


@st.composite
def damaged_corpus_fields(draw):
    """The fields of a valid ("L1", "L2") corpus NPZ with one defect, and the field it is in."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n, dim = draw(st.integers(4, 12)), draw(st.integers(1, 3))
    fields = {
        "pairs": rng.standard_normal((n, 2, dim)),
        "edge": np.array(["L1", "L2"]),
        "meta": np.array(json.dumps({"n": n})),
    }
    defect = draw(
        st.sampled_from(["non_finite", "ndim", "shape", "dtype", "missing", "edge", "meta"])
    )
    if defect == "non_finite":
        pairs = fields["pairs"].astype(draw(st.sampled_from([np.float64, np.float32])))
        pairs[tuple(draw(st.integers(0, size - 1)) for size in pairs.shape)] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        fields["pairs"] = pairs
        return fields, "pairs"
    if defect == "ndim":
        shape = draw(st.lists(st.integers(1, 4), max_size=5).filter(lambda s: len(s) != 3))
        fields["pairs"] = np.asarray(rng.standard_normal(shape))
        return fields, "pairs"
    if defect == "shape":
        shape = draw(
            st.tuples(st.integers(0, 6), st.integers(0, 4), st.integers(0, 3)).filter(
                lambda s: s[1] != 2 or 0 in s
            )
        )
        fields["pairs"] = rng.standard_normal(shape)
        return fields, "pairs"
    if defect == "dtype":
        pairs = fields["pairs"]
        fields["pairs"] = draw(
            st.sampled_from([pairs > 0, pairs.astype(str), pairs + 1j, pairs.astype(object)])
        )
        return fields, "pairs"
    if defect == "missing":
        name = draw(st.sampled_from(sorted(fields)))
        del fields[name]
        return fields, name
    if defect == "edge":
        fields["edge"] = draw(
            st.sampled_from(
                [
                    np.array(["L1"]),
                    np.array(["L1", "L2", "L3"]),
                    np.array([], dtype=str),
                    np.array("L1"),
                    np.array([1, 2]),
                    np.array([b"L1", b"L2"]),
                    np.array(["L1", "L2"], dtype=object),
                ]
            )
        )
        return fields, "edge"
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
    fields["meta"] = draw(
        st.one_of(
            text.filter(_not_a_json_object).map(np.array),
            st.one_of(st.integers(), st.lists(st.integers(), max_size=3), text).map(
                lambda value: np.array(json.dumps(value))
            ),
            st.sampled_from([np.array(3.0), np.array([1, 2]), np.array(b"{}")]),
        )
    )
    return fields, "meta"


# ---------------------------------------------------------------------------
# Literal-definition oracles for the impossibility side


@dataclass(frozen=True, eq=False)
class PartitionedRepresentation:
    """A representation set split into per-target blocks, plus the encoder into it."""

    atoms: tuple[Atom, ...]
    blocks: Mapping[str, frozenset]
    encoder: DeterministicTranslator

    def __post_init__(self):
        blocks = {lang: frozenset(block) for lang, block in dict(self.blocks).items()}
        union: set[Atom] = set()
        for lang, block in blocks.items():
            if union & block:
                raise ValueError(f"block for {lang!r} overlaps another block")
            union |= block
        if union != set(self.atoms):
            raise ValueError("blocks must partition the representation set")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "blocks", blocks)


def check_epsilon_universal(
    encoder: DeterministicTranslator,
    marginals: Sequence[FiniteDistribution],
    epsilon: float,
) -> bool:
    """True iff every pair of pushforward marginals is within epsilon in TV."""
    if len(marginals) < 2:
        raise ValueError("need at least two marginals to compare")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pushed = [pushforward(m, encoder) for m in marginals]
    for p, q in itertools.combinations(pushed, 2):
        if tv_distance(p, q) > epsilon + WEIGHT_TOL:
            return False
    return True


def check_epsilon_universal_partitioned(
    rep: PartitionedRepresentation,
    instance: ManyToManyInstance,
    epsilon: float,
) -> bool:
    """Per-target-block universality: support containment plus pairwise TV within blocks.

    A pushforward that leaks mass outside its target's block makes the check
    fail (returns False); it is not an error.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    by_target: dict[str, list[FiniteDistribution]] = {}
    for (src, dst) in instance.tasks.pairs:
        pushed = pushforward(instance.marginals[(src, dst)], rep.encoder)
        block = rep.blocks.get(dst, frozenset())
        leak = sum(w for atom, w in zip(pushed.support, pushed.weights) if atom not in block)
        if leak > WEIGHT_TOL:
            return False
        by_target.setdefault(dst, []).append(pushed)
    for pushed_list in by_target.values():
        for p, q in itertools.combinations(pushed_list, 2):
            if tv_distance(p, q) > epsilon + WEIGHT_TOL:
                return False
    return True


def dispatch_by_source_tag(
    translators: Mapping[str, DeterministicTranslator],
) -> DeterministicTranslator:
    """Combine per-source-language translators into one map over the union domain.

    Each input sentence is routed to the translator registered under its
    ``source_tag``; exactly one branch applies because sentence sets of
    distinct languages are disjoint.
    """
    combined: dict[Atom, Atom] = {}
    for lang in sorted(translators):
        f = translators[lang]
        for atom in f.mapping:
            tag = getattr(atom, "source_tag", None)
            if tag != lang:
                raise DomainError(
                    f"translator for {lang!r} lists atom {atom!r} tagged {tag!r}"
                )
            combined[atom] = f(atom)
    return DeterministicTranslator(combined)


def perfect_universal_translator(
    instance: ManyToManyInstance, target: str
) -> DeterministicTranslator:
    """The piecewise translator that dispatches each sentence to its pair's ground truth."""
    per_source = {
        src: instance.translators[(src, dst)]
        for (src, dst) in instance.tasks.pairs
        if dst == target
    }
    if not per_source:
        raise DomainError(f"instance has no translators into {target!r}")
    return dispatch_by_source_tag(per_source)
