"""Finite probability distributions over sentence spaces and the maps between them.

Sentences are opaque atoms; the only structure the computations ever inspect is the
language tag (and, in the many-to-many setting, the target-language prefix).
Distributions are weight vectors over an explicit finite support, so total
variation and pushforwards are exact computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

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
    _index: dict[Atom, int] = field(init=False, repr=False)

    def __post_init__(self):
        support = tuple(self.support)
        weights = np.array(self.weights, dtype=np.float64).reshape(-1)
        if len(support) == 0:
            raise ValueError("a distribution needs a nonempty support")
        if weights.shape[0] != len(support):
            raise ValueError(
                f"{len(support)} atoms but {weights.shape[0]} weights"
            )
        index: dict[Atom, int] = {}
        for pos, atom in enumerate(support):
            if atom in index:
                raise ValueError(f"duplicate atom in support: {atom!r}")
            index[atom] = pos
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
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_dict(cls, masses: Mapping[Atom, float]) -> "FiniteDistribution":
        atoms = tuple(masses.keys())
        return cls(atoms, np.array([masses[a] for a in atoms]))

    def weight(self, atom: Atom) -> float:
        pos = self._index.get(atom)
        return 0.0 if pos is None else float(self.weights[pos])

    def items(self) -> Iterator[tuple[Atom, float]]:
        return zip(self.support, self.weights)

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

    @property
    def domain(self) -> tuple[Atom, ...]:
        return tuple(self.mapping.keys())

    def after(self, inner: "DeterministicTranslator") -> "DeterministicTranslator":
        """Composition self ∘ inner, total on inner's domain."""
        return DeterministicTranslator({a: self(inner(a)) for a in inner.domain})

    @classmethod
    def identity(cls, atoms: Iterable[Atom]) -> "DeterministicTranslator":
        return cls({a: a for a in atoms})

    @classmethod
    def constant(cls, atoms: Iterable[Atom], value: Atom) -> "DeterministicTranslator":
        return cls({a: value for a in atoms})


def tv_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance, computed as half the L1 gap over the unioned support.

    Atoms absent from one distribution carry weight zero.
    """
    gaps: dict[Atom, float] = {}
    for atom, w in p.items():
        gaps[atom] = w
    for atom, w in q.items():
        gaps[atom] = gaps.get(atom, 0.0) - w
    return 0.5 * float(sum(abs(v) for v in gaps.values()))


def pushforward(dist: FiniteDistribution, f: DeterministicTranslator) -> FiniteDistribution:
    """Distribution of f(X) for X ~ dist; raises DomainError if f is not total on it.

    Output atoms are ordered by first appearance of their preimages, which
    keeps the result deterministic for a given input.
    """
    masses: dict[Atom, float] = {}
    for atom, w in dist.items():
        image = f(atom)
        masses[image] = masses.get(image, 0.0) + float(w)
    return FiniteDistribution.from_dict(masses)

