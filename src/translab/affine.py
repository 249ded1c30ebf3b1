"""Invertible affine maps on R^d, the concrete function class used throughout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError

#: Smallest singular value below which a linear part is treated as singular.
SINGULAR_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> linear @ x + offset, applied row-wise to (m, d) point arrays."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        linear = np.array(self.linear, dtype=np.float64)
        offset = np.array(self.offset, dtype=np.float64).reshape(-1)
        if linear.ndim != 2 or linear.shape[0] != linear.shape[1]:
            raise ValueError(f"linear part must be square, got {linear.shape}")
        if offset.shape[0] != linear.shape[0]:
            raise ValueError("offset dimension does not match the linear part")
        linear.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.linear.T + self.offset

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: (self ∘ inner)(x) = self(inner(x))."""
        return AffineMap(
            self.linear @ inner.linear,
            self.linear @ inner.offset + self.offset,
        )

    def inverse(self) -> "AffineMap":
        if self.smallest_gain() < SINGULAR_TOL:
            raise ConditioningError("linear part is numerically singular")
        inv = np.linalg.inv(self.linear)
        return AffineMap(inv, -inv @ self.offset)

    def operator_norm(self) -> float:
        return float(np.linalg.norm(self.linear, 2))

    def smallest_gain(self) -> float:
        return float(np.linalg.svd(self.linear, compute_uv=False)[-1])

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    def max_entry_difference(self, other: "AffineMap") -> float:
        return float(
            max(
                np.abs(self.linear - other.linear).max(),
                np.abs(self.offset - other.offset).max(),
            )
        )

    def to_dict(self) -> dict:
        return {"W": self.linear.tolist(), "b": self.offset.tolist()}
