"""Restart / sweep / seed budget shared by the iterative solvers, and the
see-saw driver that spends it."""

from __future__ import annotations

import logging
import math
import operator
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .config import MonotonicityError, ValidationError


@dataclass(frozen=True)
class SolverBudget:
    restarts: int = 20
    max_sweeps: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (is_count(self.restarts) and is_count(self.max_sweeps)):
            raise ValidationError("budget counts must be positive integers")
        if not (self.tol > 0):
            raise ValidationError("budget tolerance must be positive")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**32):
            raise ValidationError("budget seed must be an integer in [0, 2**32)")

    def rng(self, *key) -> np.random.Generator:
        """Independent stream derived from (seed, key); restart batches keyed
        this way give results independent of evaluation order."""
        ints = [self.seed]
        for k in key:
            ints.append(k if isinstance(k, int) else zlib.crc32(str(k).encode()))
        return np.random.default_rng(np.random.SeedSequence(ints))


def is_count(value) -> bool:
    """Whether ``value`` is a positive ``int`` or numpy integer."""
    return isinstance(value, (int, np.integer)) and value >= 1


DEFAULT_BUDGET = SolverBudget()

_MONO_SLACK = 1e-9

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeesawTrace:
    """How a :func:`seesaw` call spent its budget: per start, the final
    value, the sweeps run and why it stopped (``"converged"`` or
    ``"sweep_cap"``); the index of the winning start and that start's
    relative gain on its last sweep."""

    values: tuple
    sweeps: tuple
    stop_reasons: tuple
    winner: int
    final_gain: float


def seesaw(starts: Iterable[tuple], sweep: Callable[[np.ndarray, tuple], tuple],
           budget: SolverBudget) -> tuple:
    """Block-coordinate ascent from every start in lockstep; returns
    ``(value, state, trace)`` of the best start and a :class:`SeesawTrace`.

    ``starts`` yields ``(value, state)`` pairs with ``state`` a tuple of
    arrays of the same shapes in every start. The driver stacks each state
    component along a new leading start axis and calls ``sweep(values,
    states)`` with the values and stacked components of the starts still
    running; it returns them after one round of block updates, in the same
    layout, and must not write into its arguments. A row's result must not
    depend on the other rows, so a start runs as it would alone. Contract,
    per start:

    * sweeps are monotone: a value that drops by more than a relative 1e-9
      raises :class:`MonotonicityError`, because closed-form block updates
      cannot lower the objective unless a formula is wrong;
    * a start stops once a sweep gains at most ``budget.tol`` relative to
      the new value, or after ``budget.max_sweeps`` sweeps; a stopped start
      is never swept again;
    * the best start is the first whose final value is strictly greater
      than every earlier one, so the winner is always an index; its state
      row is returned;
    * the driver draws no randomness: callers build their starts, so the
      ``budget.rng`` keys and the start order stay theirs;
    * each start that stops at the sweep cap is logged at DEBUG on the
      ``qxor.budget`` logger.
    """
    starts = list(starts)
    # per-start bookkeeping in Python floats, which for a handful of starts
    # costs less than numpy calls; ``active`` maps the stack's rows to starts
    vals = [float(v) for v, _ in starts]
    sweeps = [0] * len(starts)
    gains = [math.inf] * len(starts)
    reasons = ["sweep_cap"] * len(starts)
    finals = [None] * len(starts)
    active = list(range(len(starts)))
    comps = tuple(np.stack(c) for c in zip(*(s for _, s in starts)))
    for _ in range(budget.max_sweeps):
        if not active:
            break
        new, comps = sweep(np.array([vals[i] for i in active]), comps)
        keep = []
        for row, (i, val) in enumerate(zip(active, np.asarray(new, dtype=float).tolist())):
            old = vals[i]
            if val < old - _MONO_SLACK * max(1.0, abs(old)):
                raise MonotonicityError(f"see-saw objective decreased from {old!r} to {val!r}")
            scale = max(1.0, abs(val))
            vals[i], gains[i], sweeps[i] = val, (val - old) / scale, sweeps[i] + 1
            if val - old <= budget.tol * scale:
                reasons[i], finals[i] = "converged", tuple(c[row] for c in comps)
            else:
                keep.append(row)
        if len(keep) < len(active):  # drop the stopped rows from the stack
            comps = tuple(np.asarray(c)[keep] for c in comps)
            active = [active[row] for row in keep]
    for row, i in enumerate(active):
        finals[i] = tuple(c[row] for c in comps)
    winner = 0
    for i, val in enumerate(vals):
        if val > vals[winner]:
            winner = i
    trace = SeesawTrace(tuple(vals), tuple(sweeps), tuple(reasons), winner, gains[winner])
    if _log.isEnabledFor(logging.DEBUG):
        for i, reason in enumerate(trace.stop_reasons):
            if reason == "sweep_cap":
                _log.debug("see-saw start %d of %d stopped at the sweep cap after %d sweeps: "
                           "value %r, last relative gain %.3g", i, len(starts),
                           trace.sweeps[i], trace.values[i], gains[i])
    return vals[winner], finals[winner], trace


def normalize_schedule(values, what: str, width: int = 0) -> tuple:
    """Sorted, duplicate-free schedule of positive levels, each at least the
    one before it in every component, so warm starts only ever embed a
    smaller witness into a larger one. A level is an integer or, with
    ``width``, a tuple (or list) of ``width`` integers; its shape is checked
    before anything is sorted, and every entry becomes a Python ``int``."""
    def level(v):
        if not width:
            return operator.index(v)
        if not (isinstance(v, (tuple, list)) and len(v) == width):
            raise TypeError
        return tuple(map(operator.index, v))

    try:
        schedule = tuple(sorted({level(v) for v in values}))
    except TypeError:
        shape = f"tuples of {width} integers" if width else "integers"
        raise ValidationError(f"{what} schedule entries must be {shape}") from None
    if not schedule:
        raise ValidationError(f"{what} schedule must be nonempty")
    levels = np.array(schedule)
    if levels.min() < 1:
        raise ValidationError(f"{what} schedule must be positive")
    if (np.diff(levels, axis=0) < 0).any():
        raise ValidationError(f"{what} schedule must grow in every component")
    return schedule
