"""The package's error types, and what every validating constructor
accepts as an integer and as a count."""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """An input violates a structural invariant beyond repairable tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its cap; carries the residual diagnostic."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class MonotonicityError(AssertionError):
    """A block-coordinate sweep decreased its objective, which closed-form
    updates forbid; signals a formula bug rather than bad luck."""


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether ``value`` is a positive :func:`is_integer`."""
    return is_integer(value) and value >= 1
