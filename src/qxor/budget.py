"""Restart / sweep / seed budget shared by the iterative solvers, and the
see-saw driver that spends it."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .config import MonotonicityError, ValidationError


@dataclass(frozen=True)
class SolverBudget:
    restarts: int = 20
    max_sweeps: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_sweeps < 1:
            raise ValidationError("budget counts must be positive")
        if not (self.tol > 0):
            raise ValidationError("budget tolerance must be positive")

    def with_(self, **kw) -> "SolverBudget":
        return replace(self, **kw)

    def rng(self, *key) -> np.random.Generator:
        """Independent stream derived from (seed, key); restart batches keyed
        this way give results independent of evaluation order."""
        ints = [self.seed & 0xFFFFFFFF]
        for k in key:
            ints.append(k if isinstance(k, int) else zlib.crc32(str(k).encode()))
        return np.random.default_rng(np.random.SeedSequence(ints))


DEFAULT_BUDGET = SolverBudget()

_MONO_SLACK = 1e-9


def seesaw(starts: Iterable[tuple], sweep: Callable[[float, object], tuple],
           budget: SolverBudget, max_sweeps: Optional[int] = None,
           floor: float = -math.inf) -> tuple:
    """Block-coordinate ascent from each start; returns ``(value, state)``
    of the best one.

    ``starts`` yields ``(value, state)`` pairs and ``sweep(value, state)``
    returns the pair after one round of block updates. Contract:

    * sweeps are monotone: a value that drops by more than a relative 1e-9
      raises :class:`MonotonicityError`, because closed-form block updates
      cannot lower the objective unless a formula is wrong;
    * a start stops once a sweep gains at most ``budget.tol`` relative to
      the new value, or after ``max_sweeps`` sweeps (default
      ``budget.max_sweeps``);
    * the best start is the first whose final value is strictly greater
      than every earlier one and than ``floor``; when none beats ``floor``
      the result is ``(floor, None)``;
    * the driver draws no randomness: callers build their starts, so the
      ``budget.rng`` keys and the start order stay theirs.
    """
    cap = budget.max_sweeps if max_sweeps is None else max_sweeps
    best_val, best_state = floor, None
    for val, state in starts:
        for _ in range(cap):
            new, state = sweep(val, state)
            if new < val - _MONO_SLACK * max(1.0, abs(val)):
                raise MonotonicityError(f"see-saw objective decreased from {val!r} to {new!r}")
            done = new - val <= budget.tol * max(1.0, abs(new))
            val = new
            if done:
                break
        if val > best_val:
            best_val, best_state = val, state
    return best_val, best_state


def normalize_schedule(values, what: str) -> tuple:
    """Sorted, duplicate-free schedule, so warm starts only ever embed a
    smaller witness into a larger one."""
    schedule = tuple(sorted(set(values)))
    if not schedule:
        raise ValidationError(f"{what} schedule must be nonempty")
    return schedule
