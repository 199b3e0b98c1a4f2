import math

import pytest

from qxor.budget import SolverBudget, normalize_schedule, seesaw
from qxor.config import MonotonicityError, ValidationError

BUDGET = SolverBudget(restarts=1, max_sweeps=50, tol=1e-6, seed=0)


def counting(step):
    """A sweep that maps value v to step(v) and counts its calls in the state."""
    def sweep(val, calls):
        return step(val), calls + 1
    return sweep


def test_dropping_sweep_raises():
    with pytest.raises(MonotonicityError):
        seesaw([(1.0, 0)], counting(lambda v: v - 0.1), BUDGET)


def test_drop_within_slack_is_tolerated():
    val, _ = seesaw([(1.0, 0)], counting(lambda v: v - 1e-12), BUDGET)
    assert val == pytest.approx(1.0 - 1e-12, abs=0)


def test_stops_at_tolerance():
    # gains halve each sweep: 1, 1/2, 1/4, ...; the run stops at the first
    # gain of at most tol * |value|
    val, calls = seesaw([(0.0, 0)], counting(lambda v: v + (2.0 - v) / 2), BUDGET)
    gains = [2.0 / 2 ** k for k in range(1, calls + 1)]
    assert gains[-1] <= BUDGET.tol * max(1.0, abs(val))
    assert gains[-2] > BUDGET.tol * 2.0
    assert calls < BUDGET.max_sweeps


def test_stops_at_sweep_cap():
    _, calls = seesaw([(0.0, 0)], counting(lambda v: v + 1.0), BUDGET)
    assert calls == BUDGET.max_sweeps
    val, calls = seesaw([(0.0, 0)], counting(lambda v: v + 1.0), BUDGET, max_sweeps=3)
    assert (val, calls) == (3.0, 3)


def test_tied_values_keep_the_earlier_start():
    starts = [(-math.inf, "first"), (-math.inf, "second")]
    val, state = seesaw(starts, lambda v, s: (1.0, s), BUDGET)
    assert (val, state) == (1.0, "first")
    val, state = seesaw(starts + [(2.0, "third")], lambda v, s: (v if v > 1 else 1.0, s), BUDGET)
    assert (val, state) == (2.0, "third")


def test_floor_returns_no_state_when_unbeaten():
    starts = [(-1.0, "a"), (0.0, "b")]
    assert seesaw(starts, lambda v, s: (v, s), BUDGET, floor=0.0) == (0.0, None)
    assert seesaw(starts, lambda v, s: (v, s), BUDGET) == (0.0, "b")


def test_normalize_schedule():
    assert normalize_schedule((4, 1, 2, 2), "message") == (1, 2, 4)
    assert normalize_schedule(((2, 2), (1, 1)), "ancilla") == ((1, 1), (2, 2))
    with pytest.raises(ValidationError):
        normalize_schedule((), "level")


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
def test_budget_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValidationError, match="tolerance must be positive"):
        SolverBudget(tol=tol)
