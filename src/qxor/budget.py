"""Restart / sweep / seed budget shared by the iterative solvers, and the
see-saw driver that spends it."""

from __future__ import annotations

import logging
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .config import MonotonicityError, ValidationError, is_count, is_integer


@dataclass(frozen=True)
class SolverBudget:
    """What an iterative solver may spend, and the seed of its randomness.

    * ``restarts``: the random starts of each product see-saw and of a
      ladder's first see-saw level: the first level of an amplified-norm
      ladder, or the first entangled level above ``(1, 1)``. A later
      entangled or amplified-norm level is warm started from the level
      below, so it runs that witness, its core's deterministic starts and
      one random start (:func:`ladder_restarts`); a one-level solver runs
      only a first level. The one-way-classical ladder keeps its own count
      at every level, ``max(1, restarts // 2) + (d >= 3)``, and
      ``factor.gamma_rc_upper`` scales its search with it.
    * ``max_sweeps``: the sweeps a see-saw start may run before it stops.
    * ``tol``: the relative gain at or below which a start stops
      (:func:`stop_rule`), in ``(0, 1)``.
    * ``seed``: an integer in ``[0, 2**32)``; every random start draws
      from :meth:`rng`, keyed by it.

    No one count suits every caller, so only the CLI holds defaults for
    ``restarts`` and ``max_sweeps``.
    """

    restarts: int
    max_sweeps: int
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (is_count(self.restarts) and is_count(self.max_sweeps)):
            raise ValidationError("budget counts must be positive integers")
        if not (0 < self.tol < 1):
            raise ValidationError("budget tolerance must be positive and below 1")
        if not (is_integer(self.seed) and 0 <= self.seed < 2**32):
            raise ValidationError("budget seed must be an integer in [0, 2**32)")

    def rng(self, *key) -> np.random.Generator:
        """Independent stream derived from (seed, key); restart batches keyed
        this way give results independent of evaluation order."""
        ints = [self.seed]
        for k in key:
            ints.append(k if isinstance(k, int) else zlib.crc32(str(k).encode()))
        return np.random.default_rng(np.random.SeedSequence(ints))


def ladder_restarts(budget: SolverBudget, first: bool) -> int:
    """The random starts of a ladder's see-saw level: ``budget.restarts`` at
    its ``first`` see-saw level, one at a level warm started from a see-saw
    witness, where more random starts almost never win."""
    return budget.restarts if first else 1


_MONO_SLACK = 1e-9

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeesawTrace:
    """How a :func:`seesaw` call spent its budget: per start, the final
    value, the sweeps run, why it stopped (``"converged"`` or
    ``"sweep_cap"``), the extrapolated sweeps it tried and how many of
    those fell back to a plain sweep; the index of the winning start and
    that start's relative gain on its last sweep. A start ran
    ``sweeps + rejections`` row-sweeps."""

    values: tuple
    sweeps: tuple
    stop_reasons: tuple
    winner: int
    final_gain: float
    extrapolations: tuple
    rejections: tuple


def stop_rule(old: float, new: float, tol: float) -> tuple:
    """``(gain, stalled)`` of a see-saw step from ``old`` to ``new``: the gain
    relative to ``max(1, |new|)``, and whether it is at most ``tol`` of that
    scale. The one stop test of :func:`seesaw` and of every inner solve that
    must predict it."""
    scale = max(1.0, abs(new))
    return (new - old) / scale, new - old <= tol * scale


def squarem_length(nr: float, nv: float) -> float:
    """SQUAREM step length ``min(-nr / nv, -1)`` from the norms ``nr = |r|``
    and ``nv = |v|``; ``-1``, a plain step, when ``nv`` is zero or the
    square of the length is not a finite float."""
    a = min(-nr / nv, -1.0) if nv > 0 else -1.0
    return a if math.isfinite(a * a) else -1.0


def _squarem_point(past: list, comps: tuple, extrapolate: tuple) -> tuple:
    """``(point, tried)`` of :func:`seesaw`'s extrapolated sweep: ``past``
    holds the named components of the states ``x0``, ``x1`` and ``x2`` of
    the cycle, ``comps`` is the whole of ``x2``; ``point`` is every row's
    squared-extrapolation point, and ``tried`` marks the rows whose step
    length ``a`` is below -1, the only rows whose point is not ``x2``."""
    x0, x1, x2 = past
    rows = len(x2[0])
    r = [b - a for a, b in zip(x0, x1)]
    v = [c - 2 * b + a for a, b, c in zip(x0, x1, x2)]

    def norms(parts):  # one norm per row over all the named components
        return np.sqrt(sum(np.sum(np.abs(p.reshape(rows, -1)) ** 2, axis=1) for p in parts))

    a = np.array([squarem_length(nr, nv) for nr, nv in zip(norms(r).tolist(), norms(v).tolist())])
    tried = a < -1.0
    if not tried.any():
        return comps, tried
    point = list(comps)
    for j, c0, rj, vj, c2 in zip(extrapolate, x0, r, v, x2):
        shape = (rows,) + (1,) * (c2.ndim - 1)
        s = a.reshape(shape)
        point[j] = np.where(tried.reshape(shape), c0 - 2 * s * rj + s * s * vj, c2)
    return tuple(point), tried


def _rows_replaced(c, rows: np.ndarray, new) -> np.ndarray:
    """A copy of the stack ``c`` with its ``rows`` replaced by ``new``; a
    copy, since a sweep may return its arguments."""
    c = np.array(c)
    c[rows] = new
    return c


def seesaw(starts: Iterable[tuple], sweep: Callable[[np.ndarray, tuple], tuple],
           budget: SolverBudget, extrapolate: tuple = ()) -> tuple:
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
      the new value (:func:`stop_rule`), or after ``budget.max_sweeps``
      sweeps; a stopped start is never swept again;
    * the best start is the first whose final value is strictly greater
      than every earlier one, so the winner is always an index; its state
      row is returned;
    * the driver draws no randomness: callers build their starts, so the
      ``budget.rng`` keys and the start order stay theirs;
    * each start that stops at the sweep cap is logged at DEBUG on the
      ``qxor.budget`` logger.

    ``extrapolate`` names, by index, the state components that the sweep
    reads. A core may name them only if its sweep takes any point in those
    components, feasible or not, and returns a feasible state with its
    value. The first sweep of each start is plain, since a start need not
    lie where sweeps land (a random contraction is not a spectral sign).
    From then on the sweeps run in squared-extrapolation cycles (SQUAREM:
    Varadhan and Roland, Scand. J. Statist. 35, 335-353, 2008) of three.
    From the states ``x0``, ``x1 = sweep(x0)`` and ``x2 = sweep(x1)``, the
    third sweep of each running row starts from ``x0 - 2a r + a^2 v`` in
    the named components, with ``r = x1 - x0``, ``v = x2 - 2 x1 + x0`` and
    ``a`` the :func:`squarem_length` of ``|r|`` and ``|v|`` over the named
    components of that row, and from ``x2`` in the others. At ``a = -1``
    that point is ``x2``, so the sweep is a plain one. A row that an
    extrapolated sweep leaves below its current value is swept again from
    ``x2``, all such rows in one stacked call, and that plain sweep is the
    row's sweep: the rules above judge it, so no sweep loses value and a
    start still runs as it would alone.
    """
    starts = list(starts)
    # per-start bookkeeping in Python floats, which for a handful of starts
    # costs less than numpy calls; ``active`` maps the stack's rows to starts
    vals = [float(v) for v, _ in starts]
    sweeps = [0] * len(starts)
    tries = [0] * len(starts)
    rejects = [0] * len(starts)
    gains = [math.inf] * len(starts)
    reasons = ["sweep_cap"] * len(starts)
    finals = [None] * len(starts)
    active = list(range(len(starts)))
    comps = tuple(np.stack(c) for c in zip(*(s for _, s in starts)))
    past = []  # the named components before each sweep of the current cycle
    for k in range(budget.max_sweeps):
        if not active:
            break
        current = np.array([vals[i] for i in active])
        if extrapolate and k:
            past.append(tuple(np.asarray(comps[j]) for j in extrapolate))
        if len(past) < 3:
            new, comps = sweep(current, comps)
            new = np.asarray(new, dtype=float)
        else:
            point, tried = _squarem_point(past, comps, extrapolate)
            past = []
            new, out = sweep(current, point)
            new = np.array(new, dtype=float)
            lost = tried & ~(new >= current)
            if lost.any():  # sweep these rows again from x2, plainly
                back, redone = sweep(current[lost], tuple(np.asarray(c)[lost] for c in comps))
                new[lost] = back
                out = tuple(_rows_replaced(c, lost, b) for c, b in zip(out, redone))
            comps = out
            for row, i in enumerate(active):
                tries[i] += int(tried[row])
                rejects[i] += int(lost[row])
        keep = []
        for row, (i, val) in enumerate(zip(active, new.tolist())):
            old = vals[i]
            if val < old - _MONO_SLACK * max(1.0, abs(old)):
                raise MonotonicityError(f"see-saw objective decreased from {old!r} to {val!r}")
            gains[i], stalled = stop_rule(old, val, budget.tol)
            vals[i], sweeps[i] = val, sweeps[i] + 1
            if stalled:
                reasons[i], finals[i] = "converged", tuple(c[row] for c in comps)
            else:
                keep.append(row)
        if len(keep) < len(active):  # drop the stopped rows from the stack
            comps = tuple(np.asarray(c)[keep] for c in comps)
            past = [tuple(c[keep] for c in p) for p in past]
            active = [active[row] for row in keep]
    for row, i in enumerate(active):
        finals[i] = tuple(c[row] for c in comps)
    winner = 0
    for i, val in enumerate(vals):
        if val > vals[winner]:
            winner = i
    trace = SeesawTrace(tuple(vals), tuple(sweeps), tuple(reasons), winner, gains[winner],
                        tuple(tries), tuple(rejects))
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
    ``width``, a tuple (or list) of ``width`` integers, none a ``bool``; its
    shape is checked before anything is sorted, and every entry becomes a
    Python ``int``."""
    def level(v):
        if width and not (isinstance(v, (tuple, list)) and len(v) == width):
            raise TypeError
        parts = tuple(v) if width else (v,)
        if not all(map(is_integer, parts)):
            raise TypeError
        return tuple(map(int, parts)) if width else int(v)

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
