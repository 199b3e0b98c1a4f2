import dataclasses
import logging
import math

import numpy as np
import pytest

from conftest import gue, rng_for
from qxor import budget as budget_module, opnorms, solvers
from qxor.budget import SolverBudget, normalize_schedule, seesaw, squarem_length, stop_rule
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


def halving(penalty):
    """A sweep that halves each start's distance to 2 and scores the result,
    less ``penalty`` if the point it read is 2 or more, which only an
    extrapolated point can be."""
    seen = []

    def sweep(vals, state):
        (x,) = state
        seen.append(x[:, 0].tolist())
        out = (x + 2) / 2
        return out[:, 0] - penalty * (x[:, 0] >= 2), (out,)
    return sweep, seen


def test_an_extrapolated_sweep_lands_on_the_limit_of_a_linear_iteration():
    # after the plain first sweep, x0, x1, x2 = 1, 1.5, 1.75 give a = -2
    # and the point 2, the fixed point; the next sweep gains nothing
    sweep, seen = halving(0.0)
    val, (x,), trace = seesaw([(0.0, (np.zeros(1),))], sweep, BUDGET, extrapolate=(0,))
    assert seen == [[0.0], [1.0], [1.5], [2.0], [2.0]]
    assert (val, x.tolist()) == (2.0, [2.0])
    assert trace.sweeps == (5,) and trace.stop_reasons == ("converged",)
    assert (trace.extrapolations, trace.rejections) == ((1,), (0,))


def test_an_extrapolated_sweep_that_loses_falls_back_to_a_plain_one():
    # every extrapolated point is 2, which scores 2 - 10, below the
    # current value; the row is swept again from x2, so the values still rise
    sweep, seen = halving(10.0)
    val, (x,), trace = seesaw([(0.0, (np.zeros(1),))], sweep,
                              dataclasses.replace(BUDGET, max_sweeps=7), extrapolate=(0,))
    assert seen == [[0.0], [1.0], [1.5], [2.0], [1.75], [1.875], [1.9375], [2.0], [1.96875]]
    assert (val, x.tolist()) == (1.984375, [1.984375])
    assert trace.sweeps == (7,) and trace.stop_reasons == ("sweep_cap",)
    assert (trace.extrapolations, trace.rejections) == ((2,), (2,))


def test_lockstep_equals_sequential_bit_for_bit_with_extrapolation():
    # a power iteration per start on its own PSD matrix, scored by its
    # Rayleigh quotient; on every other start, less a penalty on how far
    # the point read is from the unit sphere, where only extrapolated points
    # lie, so those starts fall back
    rng = rng_for("extrapolated lockstep")
    starts = []
    for k in range(6):
        g = gue(5, rng)
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        starts.append((-math.inf, (g @ g + 0.1 * np.eye(5), 100.0 * (k % 2),
                                   x / np.linalg.norm(x))))

    def sweep(_, state):
        m, penalty, x = state
        y = (m @ x[..., None])[..., 0]
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
        quotient = np.real(np.sum(y.conj() * (m @ y[..., None])[..., 0], axis=-1))
        return quotient - penalty * np.abs(1 - np.linalg.norm(x, axis=-1)), (m, penalty, y)

    budget = SolverBudget(restarts=1, max_sweeps=200, tol=1e-12, seed=0)
    together = seesaw(starts, sweep, budget, extrapolate=(2,))
    alone = [seesaw([s], sweep, budget, extrapolate=(2,)) for s in starts]
    trace = together[2]
    assert trace.values == tuple(a[2].values[0] for a in alone)
    for field in ("sweeps", "stop_reasons", "extrapolations", "rejections"):
        assert getattr(trace, field) == tuple(getattr(a[2], field)[0] for a in alone)
    assert np.array_equal(together[1][2], alone[trace.winner][1][2])
    assert all(trace.rejections[k] == 0 < trace.extrapolations[k] for k in (0, 2, 4))
    assert all(trace.rejections[k] > 0 for k in (1, 3, 5))


def test_lockstep_equals_sequential(monkeypatch):
    # every see-saw call of the solvers below is rerun one start at a time
    calls = []

    def recording(starts, sweep, budget, **kw):
        starts = list(starts)
        together = seesaw(starts, sweep, budget, **kw)
        calls.append((starts, sweep, budget, kw, together[2]))
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
    # four per game (two product, one entangled above the product rung, one
    # owc) and one per map
    assert len(calls) == 11

    for starts, sweep, bud, kw, trace in calls:
        alone = [seesaw([s], sweep, bud, **kw)[2].values[0] for s in starts]
        assert trace.values == pytest.approx(alone, rel=1e-12, abs=1e-12)
        assert trace.winner == alone.index(max(alone))


def test_normalize_schedule():
    assert normalize_schedule((4, 1, 2, 2), "message") == (1, 2, 4)
    assert normalize_schedule(((2, 2), (1, 1)), "ancilla", width=2) == ((1, 1), (2, 2))
    assert normalize_schedule(((1, 1), (2, 3), (2, 2)), "ancilla", width=2) == (
        (1, 1), (2, 2), (2, 3))
    with pytest.raises(ValidationError):
        normalize_schedule((), "level")
    with pytest.raises(ValidationError, match="message schedule must be positive"):
        normalize_schedule((0, 1), "message")
    with pytest.raises(ValidationError, match="ancilla schedule must grow in every component"):
        normalize_schedule(((1, 3), (2, 1)), "ancilla", width=2)


def test_normalize_schedule_reads_lists_as_tuples_and_entries_as_ints():
    schedule = normalize_schedule([[2, 2], [np.int64(1), 1]], "ancilla", width=2)
    assert schedule == ((1, 1), (2, 2))
    assert {type(c) for level in schedule for c in level} == {int}
    assert [type(v) for v in normalize_schedule(np.array([2, 1]), "message")] == [int, int]


@pytest.mark.parametrize("values", [(1.5,), (1, 2.0), ((1, 1.5),), ("2",), ([[1]],)])
def test_normalize_schedule_rejects_an_entry_that_is_not_an_integer(values):
    # a fractional level would otherwise be truncated, or reach a solver
    with pytest.raises(ValidationError, match="level schedule entries must be integers"):
        normalize_schedule(values, "level")


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf, 1.0])
def test_budget_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValidationError, match="tolerance must be positive"):
        SolverBudget(restarts=1, max_sweeps=1, tol=tol)


@pytest.mark.parametrize("seed", [-1, 2**32, 1.5, 2.0, True, np.bool_(True)])
def test_budget_rejects_a_seed_outside_32_bits(seed):
    # seeds 0 and 2**32 would otherwise give one solver stream
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*32\)"):
        SolverBudget(restarts=1, max_sweeps=1, seed=seed)


@pytest.mark.parametrize("field", ["restarts", "max_sweeps"])
@pytest.mark.parametrize("count", [0, 2.5, 3.0, "3"])
def test_budget_rejects_a_count_that_is_not_a_positive_integer(field, count):
    # a fractional count would otherwise reach range() inside a solver
    with pytest.raises(ValidationError, match="counts must be positive integers"):
        SolverBudget(**{"restarts": 1, "max_sweeps": 1, field: count})


def test_budget_takes_numpy_integer_counts():
    budget = SolverBudget(restarts=np.int64(2), max_sweeps=np.uint8(3))
    assert (budget.restarts, budget.max_sweeps) == (2, 3)


def test_budget_takes_the_largest_32_bit_seed():
    SolverBudget(restarts=1, max_sweeps=1, seed=2**32 - 1).rng("key").random()


@pytest.mark.parametrize("nr, nv", [(1.0, 0.0), (0.0, 0.0), (0.5, 1.0), (1.0, 1e-300)])
def test_squarem_length_is_a_plain_step_at_its_edges(nr, nv):
    # no curvature, a step shorter than plain, and a length whose square
    # overflows: the point x - 2ar + a^2 v would not be finite
    assert squarem_length(nr, nv) == -1.0


def test_the_shared_rules_equal_the_inline_expressions_they_replace():
    rng = rng_for("shared rules")
    size = 400
    old = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size=size)
    new = old + np.abs(rng.normal(size=size)) * 10.0 ** rng.integers(-14, 2, size=size)
    nr, nv = (np.abs(rng.normal(size=size)) * 10.0 ** rng.integers(-12, 12, size=size)
              for _ in range(2))
    tol = 1e-8
    # the owc redo's stacked test and carried gain, row by row
    scale = np.maximum(1.0, np.abs(new))
    stalled, gain = new - old <= tol * scale, (new - old) / scale
    for k, (o, v) in enumerate(zip(old.tolist(), new.tolist())):
        # the see-saw driver's inline rule
        s = max(1.0, abs(v))
        assert stop_rule(o, v, tol) == ((v - o) / s, v - o <= tol * s)
        assert stop_rule(o, v, tol) == (gain[k], stalled[k])
    for r, v in zip(nr.tolist(), nv.tolist()):
        a = min(-r / v, -1.0) if v > 0 else -1.0
        assert squarem_length(r, v) == (a if math.isfinite(a * a) else -1.0)
        # the fixed point's numpy form, wherever its square was finite
        a = min(-np.float64(r) / np.float64(v), -1.0)
        if math.isfinite(a * a):
            assert squarem_length(r, v) == a


@pytest.mark.parametrize("old, new, tol", [(0.5, 0.5 + 2.0**-20, 2.0**-20),
                                           (3.0 - 3 * 2.0**-10, 3.0, 2.0**-10)])
def test_a_gain_of_exactly_tol_times_the_scale_stalls(old, new, tol):
    gain, stalled = stop_rule(old, new, tol)
    assert stalled and gain == tol
    assert not stop_rule(old, new, tol * (1 - 2.0**-52))[1]


def test_the_solvers_run_the_rules_that_budget_defines(monkeypatch):
    assert solvers.stop_rule is budget_module.stop_rule
    assert solvers.squarem_length is budget_module.squarem_length
    calls = {}

    def counting(module, name):
        rule = getattr(module, name)

        def counted(*args):
            calls[module.__name__, name] = calls.get((module.__name__, name), 0) + 1
            return rule(*args)
        monkeypatch.setattr(module, name, counted)

    # the driver's stop test, the owc redo's, and the instrument fixed point's step
    for module, name in ((budget_module, "stop_rule"), (solvers, "stop_rule"),
                         (solvers, "squarem_length")):
        counting(module, name)
    solvers.beta_owc(random_game(2, 2, seed=5), 2, SolverBudget(restarts=3, max_sweeps=60, seed=4))
    assert set(calls) == {("qxor.budget", "stop_rule"), ("qxor.solvers", "stop_rule"),
                          ("qxor.solvers", "squarem_length")}
