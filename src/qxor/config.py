"""Central numerical tolerances and the package's error types.

``TOL`` holds the fixed thresholds that the other modules read, so each is
defined in one place; no run changes them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # symmetry / structure violations accepted (and repaired) at construction
    construction: float = 1e-12
    # numeric identity checks (reconstruction residuals, bias formulas, ...)
    identity: float = 1e-10
    # slack allowed when ordering interval endpoints
    interval: float = 1e-9
    # eigenvalue slack for positive-semidefinite checks
    psd: float = 1e-10


TOL = Tolerances()


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
