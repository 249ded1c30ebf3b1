"""Shared construction helpers for the test suite."""

import numpy as np

from translab.affine import AffineMap
from translab.distributions import DeterministicTranslator, FiniteDistribution


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
