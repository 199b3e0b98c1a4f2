"""Concrete carriers for linear maps between small operator spaces.

A :class:`Space` is either the full matrix algebra ``M_n`` carrying the
operator norm (``kind="matrix"``) or its dual, trace class, carrying the
trace norm (``kind="dual"``). A :class:`KernelMap` stores a map
``T: M_n -> M_m`` on the full algebra through its coefficient kernel ``G``,
an ``(n*m, n*m)`` matrix under the composite index convention of
:mod:`qxor.linalg`:

    ``T(x)[k, l] = sum_ij G[(i,k), (j,l)] x[i, j]``.

Its domain is always ``M_n``; the codomain is ``M_m`` or trace class. A map
from the diagonal algebra is a :class:`VectorMap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ValidationError, is_count
from .linalg import as_array, as_matrix, partial_contract_A

__all__ = [
    "Space",
    "full_matrix_space",
    "dual_space",
    "KernelMap",
    "VectorMap",
]


@dataclass(frozen=True)
class Space:
    kind: str  # "matrix" or "dual"
    dim: int   # matrix dimension N

    def __post_init__(self):
        if self.kind not in ("matrix", "dual"):
            raise ValidationError(f"unknown space kind {self.kind!r}")
        if not is_count(self.dim):
            raise ValidationError("space dimension must be a positive integer")


def full_matrix_space(n: int) -> Space:
    return Space("matrix", n)


def dual_space(n: int) -> Space:
    """Trace-class on C^n, the dual of the n x n matrix algebra."""
    return Space("dual", n)


@dataclass(frozen=True)
class KernelMap:
    """Linear map from the full matrix algebra ``M_n`` into ``M_m`` or
    trace class, stored by its kernel."""

    domain: Space
    codomain: Space
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.domain.kind != "matrix":
            raise ValidationError("a kernel map's domain must be a matrix space")
        g = as_matrix(self.kernel)
        n, m = self.domain.dim, self.codomain.dim
        if g.shape != (n * m, n * m):
            raise ValidationError(
                f"kernel shape {g.shape} does not match spaces ({n},{m})"
            )
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "kernel", g)

    @property
    def n(self) -> int:
        return self.domain.dim

    @property
    def m(self) -> int:
        return self.codomain.dim

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on a domain matrix."""
        x = as_matrix(x)
        if x.shape != (self.n, self.n):
            raise ValidationError("input shape does not match the domain")
        return partial_contract_A(self.kernel, x.T, self.n, self.m)


@dataclass(frozen=True)
class VectorMap:
    """Map from the diagonal algebra ell_infty^d into a Hilbert space,
    given by the images of the diagonal units."""

    vectors: tuple

    def __post_init__(self):
        vs = tuple(as_array(v).ravel() for v in self.vectors) if np.iterable(self.vectors) else ()
        if not vs:
            raise ValidationError("need at least one image vector")
        p = vs[0].size
        if any(v.size != p for v in vs):
            raise ValidationError("image vectors must share a dimension")
        if p == 0:
            raise ValidationError("image vectors must have a positive dimension")
        object.__setattr__(self, "vectors", vs)

    @property
    def d(self) -> int:
        return len(self.vectors)
