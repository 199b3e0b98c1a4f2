"""The package's error types, what every validating constructor accepts
as an integer, a count and a real number, and how a message shows a
refused value."""

from __future__ import annotations

import math

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
    """Whether ``value`` is an ``int`` or numpy integer in the int64 range,
    the largest a numpy array takes, but not a ``bool``."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -2**63 <= value < 2**63)


def is_count(value) -> bool:
    """Whether ``value`` is a positive :func:`is_integer`."""
    return is_integer(value) and value >= 1


def is_real(value) -> bool:
    """Whether ``value`` is an ``int``, ``float`` or numpy real number that
    converts to a float without overflow, but not a ``bool``. NaN and the
    infinities are real here, so a caller bounds the value with
    comparisons, which NaN fails."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:  # a finite longdouble may round to inf
        return math.isfinite(float(value)) or not np.isfinite(value)
    except OverflowError:
        return False


def shown(value) -> str:
    """``repr(value)`` for a message, cut to 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."
