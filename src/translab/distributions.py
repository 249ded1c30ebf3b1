"""Finite probability distributions over sentence spaces and the maps between them.

Sentences are opaque atoms; the only structure the computations ever inspect is the
language tag (and, in the many-to-many setting, the target-language prefix).
Distributions are weight vectors over an explicit finite support, and
translators explicit tables, so ``impossibility`` turns an instance into
arrays once and computes pushforwards and total variation on them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .errors import DomainError

Atom = Hashable

#: Absolute tolerance for every weight/probability comparison in the package.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Sentence:
    """A sentence atom: owning-language tag, opaque body id, optional target prefix.

    Equality is field-wise; the body is never parsed. A sentence belongs to the
    language named by ``source_tag``, which keeps sentence sets of different
    languages disjoint by construction.
    """

    source_tag: str
    body: str
    target_tag: str | None = None

    def __repr__(self) -> str:
        if self.target_tag is None:
            return f"<{self.source_tag}>{self.body}"
        return f"<{self.target_tag}><{self.source_tag}>{self.body}"


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability weights over an ordered finite support.

    Atoms may be sentences, representation points, or (source, target) pairs.
    Weights are finite float64, nonnegative, and sum to one within ``WEIGHT_TOL``.
    Instances are immutable; all operations on them are pure functions.
    """

    support: tuple[Atom, ...]
    weights: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        weights = np.array(self.weights, dtype=np.float64).reshape(-1)
        if len(support) == 0:
            raise ValueError("a distribution needs a nonempty support")
        if weights.shape[0] != len(support):
            raise ValueError(
                f"{len(support)} atoms but {weights.shape[0]} weights"
            )
        duplicates = [atom for pos, atom in enumerate(support) if atom in support[:pos]]
        if duplicates:
            raise ValueError(f"duplicate atom in support: {duplicates[0]!r}")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"non-finite weight: {weights.tolist()}")
        if np.any(weights < -WEIGHT_TOL):
            raise ValueError(f"negative weight: {weights.min()}")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        weights = np.maximum(weights, 0.0)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True, eq=False)
class DeterministicTranslator:
    """A total map between finite atom sets, stored extensionally."""

    mapping: Mapping[Atom, Atom]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __call__(self, atom: Atom) -> Atom:
        try:
            return self.mapping[atom]
        except KeyError:
            raise DomainError(f"atom outside translator domain: {atom!r}") from None
