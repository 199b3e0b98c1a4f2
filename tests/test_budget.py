import dataclasses
import logging
import math

import numpy as np
import pytest

from conftest import gue, rng_for
from qxor import opnorms, solvers
from qxor.budget import SolverBudget, normalize_schedule, seesaw
from qxor.config import MonotonicityError, ValidationError
from qxor.games import mab_tensor, random_game
from qxor.maps import KernelMap, VectorMap, dual_space, full_matrix_space

BUDGET = SolverBudget(restarts=1, max_sweeps=50, tol=1e-6, seed=0)


def counting(step):
    """A stacked sweep that maps each value v to step(v) and counts each
    start's calls in its one-component state."""
    def sweep(vals, state):
        (calls,) = state
        return step(vals), (calls + 1,)
    return sweep


def test_dropping_sweep_raises():
    with pytest.raises(MonotonicityError):
        seesaw([(1.0, (0,))], counting(lambda v: v - 0.1), BUDGET)


def test_drop_within_slack_is_tolerated():
    val, _, _ = seesaw([(1.0, (0,))], counting(lambda v: v - 1e-12), BUDGET)
    assert val == pytest.approx(1.0 - 1e-12, abs=0)


def test_stops_at_tolerance():
    # gains halve each sweep: 1, 1/2, 1/4, ...; the run stops at the first
    # gain of at most tol * |value|
    val, (calls,), trace = seesaw([(0.0, (0,))], counting(lambda v: v + (2.0 - v) / 2), BUDGET)
    gains = [2.0 / 2 ** k for k in range(1, calls + 1)]
    assert gains[-1] <= BUDGET.tol * max(1.0, abs(val))
    assert gains[-2] > BUDGET.tol * 2.0
    assert calls < BUDGET.max_sweeps
    assert trace.sweeps == (calls,)
    assert trace.stop_reasons == ("converged",)
    assert trace.final_gain == pytest.approx(gains[-1] / val, rel=1e-9)


def test_stops_at_sweep_cap():
    _, (calls,), trace = seesaw([(0.0, (0,))], counting(lambda v: v + 1.0), BUDGET)
    assert calls == BUDGET.max_sweeps
    assert trace.stop_reasons == ("sweep_cap",)
    val, (calls,), _ = seesaw([(0.0, (0,))], counting(lambda v: v + 1.0),
                              dataclasses.replace(BUDGET, max_sweeps=3))
    assert (val, calls) == (3.0, 3)


def test_one_sweep_reports_the_cap_for_every_start():
    starts = [(float(k), (0,)) for k in range(4)]
    _, _, trace = seesaw(starts, counting(lambda v: v + 1.0),
                         dataclasses.replace(BUDGET, max_sweeps=1))
    assert trace.sweeps == (1, 1, 1, 1)
    assert trace.stop_reasons == ("sweep_cap",) * 4
    assert (trace.winner, trace.values) == (3, (1.0, 2.0, 3.0, 4.0))


def test_a_start_at_the_sweep_cap_is_logged_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="qxor")
    seesaw([(1.0, (0,)), (2.0, (0,))], counting(lambda v: v + 1.0),
           dataclasses.replace(BUDGET, max_sweeps=1))
    records = [r for r in caplog.records if r.name == "qxor.budget"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    assert "start 0 of 2 stopped at the sweep cap after 1 sweeps" in records[0].getMessage()
    assert "value 3.0" in records[1].getMessage()


def test_converged_starts_are_not_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="qxor")
    seesaw([(1.0, (0,))], counting(lambda v: v), BUDGET)
    assert not [r for r in caplog.records if r.name.startswith("qxor")]


def test_qxor_logger_is_silent_by_default():
    import qxor  # noqa: F401

    handlers = logging.getLogger("qxor").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_a_start_that_meets_the_tolerance_reports_converged():
    _, (calls,), trace = seesaw([(1.0, (0,))], counting(lambda v: v + 1e-9), BUDGET)
    assert calls == 1
    assert trace.stop_reasons == ("converged",)
    assert trace.final_gain == pytest.approx(1e-9, rel=1e-6)


def test_tied_values_keep_the_earlier_start():
    starts = [(-math.inf, ("first",)), (-math.inf, ("second",))]
    val, state, trace = seesaw(starts, lambda v, s: (np.ones_like(v), s), BUDGET)
    assert (val, state) == (1.0, ("first",))
    assert trace.winner == 0
    val, state, _ = seesaw(starts + [(2.0, ("third",))],
                           lambda v, s: (np.where(v > 1, v, 1.0), s), BUDGET)
    assert (val, state) == (2.0, ("third",))


def test_the_best_start_returns_its_state_and_index():
    starts = [(-1.0, ("a",)), (0.0, ("b",))]
    val, state, trace = seesaw(starts, lambda v, s: (v, s), BUDGET)
    assert (val, state, trace.winner, trace.final_gain) == (0.0, ("b",), 1, 0.0)


def test_a_stopped_start_is_never_swept_again():
    # start 0 halves its distance to 2 and meets the tolerance; start 1 gains
    # one per sweep and runs to the cap
    seen = []

    def sweep(vals, state):
        ids, calls = state
        seen.append(tuple(ids))
        return np.where(ids == 0, vals + (2.0 - vals) / 2, vals + 1.0), (ids, calls + 1)

    val, (row, calls), trace = seesaw([(0.0, (0, 0)), (0.0, (1, 0))], sweep, BUDGET)
    stop = trace.sweeps[0]
    assert 1 < stop < BUDGET.max_sweeps
    assert seen == [(0, 1)] * stop + [(1,)] * (BUDGET.max_sweeps - stop)
    assert trace.sweeps == (stop, BUDGET.max_sweeps)
    assert trace.stop_reasons == ("converged", "sweep_cap")
    assert (val, row, calls, trace.winner) == (BUDGET.max_sweeps, 1, BUDGET.max_sweeps, 1)
    assert trace.final_gain == 1.0 / BUDGET.max_sweeps
    assert trace.values[0] == pytest.approx(2.0, abs=1e-5)


def test_lockstep_equals_sequential(monkeypatch):
    # every see-saw call of the solvers below is rerun one start at a time
    calls = []

    def recording(starts, sweep, budget):
        starts = list(starts)
        together = seesaw(starts, sweep, budget)
        calls.append((starts, sweep, budget, together[2]))
        return together

    monkeypatch.setattr(solvers, "seesaw", recording)
    monkeypatch.setattr(opnorms, "seesaw", recording)
    budget = SolverBudget(restarts=3, max_sweeps=40, seed=3)
    for n in (2, 3):
        solvers.analyze_game(random_game(n, n, seed=70 + n), "g", budget,
                             d_schedule=(1, 2), ancilla_schedule=((1, 1), (2, 3)))
    rng = rng_for("lockstep")
    a, b = (x / np.linalg.norm(x) for x in (gue(2, rng), gue(2, rng)))
    sandwich = KernelMap(full_matrix_space(2), dual_space(2), mab_tensor(a, b))
    vectors = VectorMap(tuple(rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)))
    into_matrix = KernelMap(full_matrix_space(2), full_matrix_space(2), gue(4, rng))
    for u in (sandwich, vectors, into_matrix):
        opnorms.amplified_norm(u, 2, budget)
    # five per game (two product, two entangled, one owc) and one per map
    assert len(calls) == 13

    for starts, sweep, bud, trace in calls:
        alone = [seesaw([s], sweep, bud)[2].values[0] for s in starts]
        assert trace.values == pytest.approx(alone, rel=1e-12, abs=1e-12)
        assert trace.winner == alone.index(max(alone))


def test_normalize_schedule():
    assert normalize_schedule((4, 1, 2, 2), "message") == (1, 2, 4)
    assert normalize_schedule(((2, 2), (1, 1)), "ancilla") == ((1, 1), (2, 2))
    assert normalize_schedule(((1, 1), (2, 3), (2, 2)), "ancilla") == ((1, 1), (2, 2), (2, 3))
    with pytest.raises(ValidationError):
        normalize_schedule((), "level")
    with pytest.raises(ValidationError, match="message schedule must be positive"):
        normalize_schedule((0, 1), "message")
    with pytest.raises(ValidationError, match="ancilla schedule must grow in every component"):
        normalize_schedule(((1, 3), (2, 1)), "ancilla")


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
def test_budget_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValidationError, match="tolerance must be positive"):
        SolverBudget(tol=tol)


@pytest.mark.parametrize("seed", [-1, 2**32, 1.5])
def test_budget_rejects_a_seed_outside_32_bits(seed):
    # seeds 0 and 2**32 would otherwise give one solver stream
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*32\)"):
        SolverBudget(seed=seed)


@pytest.mark.parametrize("field", ["restarts", "max_sweeps"])
@pytest.mark.parametrize("count", [0, 2.5, 3.0, "3"])
def test_budget_rejects_a_count_that_is_not_a_positive_integer(field, count):
    # a fractional count would otherwise reach range() inside a solver
    with pytest.raises(ValidationError, match="counts must be positive integers"):
        SolverBudget(**{field: count})


def test_budget_takes_numpy_integer_counts():
    budget = SolverBudget(restarts=np.int64(2), max_sweeps=np.uint8(3))
    assert (budget.restarts, budget.max_sweeps) == (2, 3)


def test_budget_takes_the_largest_32_bit_seed():
    SolverBudget(seed=2**32 - 1).rng("key").random()
