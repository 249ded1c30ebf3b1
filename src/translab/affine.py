"""Affine maps between real vector spaces, the concrete function class used throughout."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: Smallest singular value below which a linear part is treated as singular.
SINGULAR_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> linear @ x + offset; (m, n) rows of points map to points @ linear.T + offset.

    The linear part is (..., m, n), square or not, and the offsets (..., m); a
    map takes R^n to R^m. A stack of maps has leading stack axes. ``compose``
    and the singular values (computed once per object, kept by indexing and
    stacking) work per map with one map's arithmetic, and a single map
    broadcasts against a stack. ``stack`` and indexing move maps in and out
    (``m[None]`` is a stack of one); indexing keeps the memory layout, by
    which BLAS rounding differs.
    """

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        linear = np.array(self.linear, dtype=np.float64)
        offset = np.array(self.offset, dtype=np.float64)
        if linear.ndim < 2:
            raise ValueError(f"linear part must be a matrix, got {linear.shape}")
        if offset.shape != linear.shape[:-1]:
            raise ValueError("offset dimension does not match the linear part")
        linear.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def _of(cls, linear: np.ndarray, offset: np.ndarray) -> "AffineMap":
        """A map on arrays computed here, taken as they are: no copy, no checks."""
        linear.setflags(write=False)
        offset.setflags(write=False)
        new = object.__new__(cls)
        new.__dict__.update(linear=linear, offset=offset)
        return new

    @classmethod
    def stack(cls, maps: Sequence["AffineMap"]) -> "AffineMap":
        """The maps as one stack, in order, with C-ordered linear parts.

        The stack keeps the maps' singular values when every map has them.
        """
        new = cls._of(np.array([m.linear for m in maps]), np.array([m.offset for m in maps]))
        if all("singular_values" in m.__dict__ for m in maps):
            values = np.array([m.singular_values for m in maps])
            values.setflags(write=False)
            new.__dict__["singular_values"] = values
        return new

    def __getitem__(self, index) -> "AffineMap":
        """The maps at ``index`` on the stack axes."""
        new = AffineMap._of(self.linear[index], self.offset[index])
        if "singular_values" in self.__dict__:
            new.__dict__["singular_values"] = self.singular_values[index]
        return new

    @property
    def dim(self) -> int:
        """The dimension of the domain."""
        return self.linear.shape[-1]

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: (self ∘ inner)(x) = self(inner(x))."""
        return AffineMap._of(
            self.linear @ inner.linear,
            (self.linear @ inner.offset[..., None])[..., 0] + self.offset,
        )

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of each linear part, largest first: shape (..., min(m, n))."""
        values = np.linalg.svd(self.linear, compute_uv=False)
        values.setflags(write=False)
        return values

    @property
    def nonsingular(self) -> np.ndarray:
        """Whether each linear part's smallest singular value reaches ``SINGULAR_TOL``."""
        return self.singular_values[..., -1] >= SINGULAR_TOL
