"""Shared construction helpers for the test suite."""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from translab import io
from translab.affine import AffineMap
from translab.generative import FunctionClassSpec, TranslationGraph, sample_randomized_codecs
from translab.distributions import DeterministicTranslator, FiniteDistribution
from translab.impossibility import random_many_to_many_instance, random_two_to_one_instance
from translab.seeding import derive_seed
from translab.trainer import COND_LIMIT, EncoderEstimate


def random_distribution(rng: np.random.Generator, atoms) -> FiniteDistribution:
    atoms = tuple(atoms)
    raw = rng.random(len(atoms)) + 0.05
    return FiniteDistribution(atoms, raw / raw.sum())


def random_translator(rng: np.random.Generator, domain, codomain) -> DeterministicTranslator:
    codomain = tuple(codomain)
    return DeterministicTranslator(
        {atom: codomain[rng.integers(len(codomain))] for atom in domain}
    )


def encoder_map(codec) -> AffineMap:
    """The exact inverse of a noiseless codec's decoder, as one affine map."""
    return AffineMap(codec.W, codec.b).inverse()


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
        y = dst_codec.decode(src_codec.encode(x))
    squared = np.sum((transform(x) - y) ** 2, axis=1)
    return float(squared.mean()), float(squared.std(ddof=1) / math.sqrt(m))


# ---------------------------------------------------------------------------
# Out-of-place references for the in-place kernels


def out_of_place_latent_sample(dim, radius, seed, m):
    """``LatentSampler(dim, radius, seed).sample(m)`` as fresh-array arithmetic."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((m, dim))
    norms = np.maximum(np.linalg.norm(gauss, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.random(m) ** (1.0 / dim)
    return gauss / norms * radii[:, None]


def out_of_place_fit_edge(corpus, ridge=1e-10):
    """``fit_edge``'s (transform, loss) with an ``np.hstack`` design and a fresh residual."""
    points, targets = corpus.source_points, corpus.target_points
    n, d = points.shape
    design = np.hstack([points, np.ones((n, 1))])
    gram = design.T @ design
    if np.linalg.cond(gram) > COND_LIMIT:
        gram = gram + ridge * np.eye(d + 1)
    theta = np.linalg.solve(gram, design.T @ targets)
    transform = AffineMap(theta[:d].T, theta[d])
    loss = float(np.mean(np.sum((transform(points) - targets) ** 2, axis=1)))
    return transform, loss


# ---------------------------------------------------------------------------
# Damaged instance documents for the loader and CLI tests


def _parent(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


def _set(payload, path, value):
    _parent(payload, path)[path[-1]] = value
    return payload


#: Defects of a ``make_worst_case`` document, each with a fragment of its message.
WORST_CASE_DEFECTS = {
    "nan_weight": (lambda p: _set(p, ("marginals", "L0", 0), math.nan), "'L0' weight 0"),
    "negative_weight": (
        lambda p: _set(p, ("marginals", "L0"), [1.5, -0.5]), "'L0' weight 1"
    ),
    "weights_sum_to_0.9": (lambda p: _set(p, ("marginals", "L0"), [0.5, 0.4]), "sum"),
    "non_numeric_weight": (
        lambda p: _set(p, ("marginals", "L0", 0), "0.5"), "not a number"
    ),
    "duplicate_sentence": (
        lambda p: _set(p, ("sentences", "L0"), ["a0", "a0"]), "twice"
    ),
    "document_is_a_list": (lambda p: [p], "JSON object"),
    "languages_is_a_number": (lambda p: _set(p, ("languages",), 3), "'languages'"),
    "weight_count": (lambda p: _set(p, ("marginals", "L0"), [1.0]), "1 weights"),
}

LEAF_REPLACEMENTS = (math.nan, math.inf, -1, "x", [], {}, None)


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


def _damage(draw, payload):
    """``payload`` with one dict key dropped or one leaf set to a ``LEAF_REPLACEMENTS`` value."""
    nodes = list(_walk(payload))
    if draw(st.booleans()):
        keys = [path for path, container, _child in nodes if isinstance(container, dict)]
        path = draw(st.sampled_from(keys))
        del _parent(payload, path)[path[-1]]
        return payload
    leaves = [path for path, _container, child in nodes if not isinstance(child, (dict, list))]
    return _set(payload, draw(st.sampled_from(leaves)), draw(st.sampled_from(LEAF_REPLACEMENTS)))


@st.composite
def damaged_instance_documents(draw):
    """A valid two-to-one or many-to-many document with one leaf replaced or one key dropped."""
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
        {"L0": AffineMap.identity(2), "L1": AffineMap(np.diag([2.0, 0.5]), np.ones(2))}, "L0"
    ),
)
ENCODER_DOCUMENT["spec"] = FunctionClassSpec(dim=2).to_dict()


@st.composite
def damaged_documents(draw, template: dict):
    """A copy of ``template`` with one leaf replaced or one key dropped."""
    return _damage(draw, copy.deepcopy(template))


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
