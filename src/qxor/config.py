"""The package's error types."""

from __future__ import annotations


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
