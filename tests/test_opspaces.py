import itertools
import math

import numpy as np
import pytest

from conftest import gue, matrix_unit, random_unitary, rng_for, swap_matrix
from qxor import factor, opnorms, tuples
from qxor.budget import SolverBudget, seesaw
from qxor.config import ConvergenceError, ValidationError
from qxor.factor import tuple_rplus2c_upper_in_space, weight_sandwich_check
from qxor.linalg import operator_norm, regroup
from qxor.maps import KernelMap, Space, VectorMap, dual_space, full_matrix_space
from qxor.opnorms import (
    _amp_rc_codomain,
    amplified_norm,
    cb_norm_bounds,
    dual_tuple_cap,
    dual_tuple_caps,
    pietsch_pi2,
)
from qxor.tuples import (
    col_norm,
    mix_tuple,
    ordering_check,
    rc_norm,
    row_norm,
    rplus2c_split,
    rplusc_split,
)

BUDGET = SolverBudget(restarts=4, max_sweeps=120, seed=7)


def test_row_col_rc_matrix_units():
    t = [matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)]
    assert row_norm(t) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert col_norm(t) == pytest.approx(1.0, abs=1e-12)
    assert rc_norm(t) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_row_col_single_unitary():
    u = random_unitary(3, rng_for("tuple-unitary"))
    t = [u]
    assert row_norm(t) == pytest.approx(1.0, abs=1e-12)
    assert col_norm(t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("call", [row_norm, rplus2c_split])
@pytest.mark.parametrize("t, message", [
    ([], "tuple must contain at least one matrix"),
    ([np.eye(2), np.eye(3)], "tuple entries must share a shape"),
], ids=["empty", "ragged"])
def test_a_malformed_tuple_is_a_validation_error(call, t, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(t)


@pytest.mark.parametrize("call", [rplus2c_split, rplusc_split])
def test_a_warm_start_of_another_shape_is_refused_before_the_solve(call):
    t = rng_for("warm-shape").normal(size=(2, 2, 2))
    with pytest.raises(ValidationError, match="warm start must have the shape of the tuple"):
        call(t, inits=[t[:, :, :1]])
    # a stack of warm starts is a sequence of them, as a list is
    assert call(t, inits=np.stack([t / 2])).value == call(t, inits=[t / 2]).value


def test_the_weight_subadditivity_check_needs_tuples_in_one_space():
    x, y = np.ones((1, 2, 2)), np.ones((1, 3, 3))
    with pytest.raises(ValidationError, match="common space"):
        factor.weight_subadditivity_check(x, y, x_split=rplus2c_split(x),
                                          y_split=rplus2c_split(y))


@pytest.mark.parametrize("a", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]], "ab"],
                         ids=["nan", "ragged", "string"])
def test_a_malformed_mixing_matrix_is_refused(a):
    with pytest.raises(ValidationError):
        mix_tuple(a, np.ones((2, 2, 2)))


def test_tuple_norm_homogeneity():
    rng = rng_for("tuple-homog")
    t = np.stack([gue(3, rng) for _ in range(3)])
    for f in (row_norm, col_norm, rc_norm):
        assert f(2.5 * t) == pytest.approx(2.5 * f(t), rel=1e-12)


def test_rplus2c_single_element_closed_form():
    # for one element the infimum is attained at the half split:
    # min_y ||y||^2 + ||x - y||^2 = ||x||^2 / 2 by the triangle inequality
    rng = rng_for("rp2c-single")
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    val = rplus2c_split(np.stack([x])).value
    assert val == pytest.approx(np.linalg.norm(x, 2) / np.sqrt(2), rel=1e-6)
    assert rplus2c_split(np.stack([np.eye(4, dtype=complex)])).value == pytest.approx(
        1 / np.sqrt(2), rel=1e-8
    )


def test_rplus2c_grid_oracle_matrix_units():
    t = np.stack([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1)])
    val = rplus2c_split(t).value
    rng = rng_for("rp2c-grid")
    best = np.inf
    for _ in range(10_000):
        T = 0.6 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        best = min(best, np.sqrt(row_norm(T) ** 2 + col_norm(t - T) ** 2))
    for lam in np.linspace(0, 1, 51):
        best = min(best, np.sqrt(row_norm(lam * t) ** 2 + col_norm((1 - lam) * t) ** 2))
    assert 0.9 * best <= val <= best + 1e-9


def test_rplus2c_bounded_by_pure_splittings():
    rng = rng_for("rp2c-pure")
    for trial in range(10):
        t = np.stack([gue(3, rng) for _ in range(3)])
        assert rplus2c_split(t).value <= min(row_norm(t), col_norm(t)) + 1e-8


def test_rplus2c_contraction_mixing_monotone():
    rng = rng_for("rp2c-mix")
    for trial in range(5):
        t = np.stack([gue(3, rng) for _ in range(3)])
        res = rplus2c_split(t)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a /= max(1.0, np.linalg.norm(a, 2))
        mixed = mix_tuple(a, t)
        warm = [mix_tuple(a, res.row_part)]
        assert rplus2c_split(mixed, inits=warm).value <= res.value + 1e-8


def test_rplusc_single_element():
    rng = rng_for("rpc-single")
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert rplusc_split(np.stack([x])).value == pytest.approx(
        np.linalg.norm(x, 2), rel=1e-7
    )


def _split_test_tuples(key):
    """Seeded Hermitian 3x3 tuples and non-Hermitian rectangular ones,
    d, r, c in 1-4."""
    out = []
    for trial in range(6):
        rng = rng_for(key, "herm", trial)
        out.append(np.stack([gue(3, rng) for _ in range(int(rng.integers(1, 5)))]))
    for trial in range(10):
        rng = rng_for(key, "rect", trial)
        d, r, c = (int(v) for v in rng.integers(1, 5, size=3))
        out.append(rng.normal(size=(d, r, c)) + 1j * rng.normal(size=(d, r, c)))
    return out


@pytest.mark.parametrize("split, tol", [
    pytest.param(rplus2c_split, tuples._TOL, id="rplus2c"),
    pytest.param(rplusc_split, tuples._SEARCH_TOL, id="rplusc"),
])
def test_split_lower_is_certified_within_the_gap(split, tol):
    for t in _split_test_tuples("split-gap"):
        res = split(t)
        assert res.lower <= res.value
        assert res.converged
        assert res.value ** 2 - res.lower ** 2 <= tol * res.value ** 2
        assert np.abs(res.row_part + res.col_part - t).max() < 1e-12 * np.abs(t).max()


def test_rplusc_lower_never_above_a_grid_of_splittings():
    # every splitting T = lam x is feasible, so none may fall below the lower
    for t in _split_test_tuples("rpc-grid"):
        lower = rplusc_split(t).lower
        for lam in np.linspace(0, 1, 11):
            assert lower <= row_norm(lam * t) + col_norm((1 - lam) * t) + 1e-12


@pytest.mark.parametrize("split", [rplus2c_split, rplusc_split], ids=["rplus2c", "rplusc"])
def test_split_warm_start_competes_with_the_fixed_point(split, monkeypatch):
    # a splitting from a much tighter solve may only be improved on
    ts = _split_test_tuples("split-warm")[4:10]
    with monkeypatch.context() as m:
        m.setattr(tuples, "_TOL", 1e-11)
        m.setattr(tuples, "_SEARCH_TOL", 1e-9)
        tight = [split(t) for t in ts]
    for t, ref in zip(ts, tight):
        assert split(t, inits=[ref.row_part]).value <= ref.value


@pytest.mark.parametrize("power", [600, -600])
def test_rplus2c_is_exactly_homogeneous_at_extreme_scales(power):
    rng = rng_for("rp2c-scale")
    x = rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))
    factor = 2.0 ** power
    base, scaled = rplus2c_split(x), rplus2c_split(factor * x)
    assert scaled.value == pytest.approx(factor * base.value, rel=1e-12)
    assert scaled.lower == pytest.approx(factor * base.lower, rel=1e-12)
    for f in (row_norm, col_norm, rc_norm):
        assert f(factor * x) == pytest.approx(factor * f(x), rel=1e-12)


def test_tuples_make_no_scipy_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qxor.tuples called scipy.optimize.minimize")

    monkeypatch.setattr(tuples, "minimize", refuse)
    rng = rng_for("no-scipy")
    herm = np.stack([gue(3, rng) for _ in range(2)])
    rect = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    split = rplus2c_split(herm)
    rplusc_split(herm)
    rplusc_split(rect)
    assert weight_sandwich_check(herm, split=split).ok


def test_ordering_check_scaled_and_span():
    rng = rng_for("ordering")
    ys = np.stack([gue(3, rng) for _ in range(3)])
    ok, a = ordering_check(0.5 * ys, ys)
    assert ok
    assert np.abs(a - 0.5 * np.eye(3)).max() < 1e-9
    outside = np.concatenate([ys[:1] * 0 + gue(3, rng)[None], ys[1:]])
    # element orthogonalized against the span is not dominated
    flat = ys.reshape(3, -1)
    g = gue(3, rng).ravel()
    g = g - flat.conj().T @ np.linalg.pinv(flat.conj().T) @ g
    if np.linalg.norm(g) > 1e-8:
        xs = np.stack([g.reshape(3, 3)])
        ok, _ = ordering_check(xs, ys)
        assert not ok


def test_ordering_check_constructive_contraction():
    rng = rng_for("ordering-contr")
    for trial in range(10):
        ys = np.stack([gue(3, rng) for _ in range(4)])
        a0 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        a0 /= max(1.0, np.linalg.norm(a0, 2))
        xs = mix_tuple(a0, ys)
        ok, a = ordering_check(xs, ys)
        assert ok
        assert np.linalg.norm(a, 2) <= 1 + 1e-9


def test_ordering_implies_row_col_domination():
    rng = rng_for("ordering-mono")
    for trial in range(10):
        ys = np.stack([gue(3, rng) for _ in range(3)])
        a0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a0 /= max(1.0, np.linalg.norm(a0, 2))
        xs = mix_tuple(a0, ys)
        ok, _ = ordering_check(xs, ys)
        assert ok
        assert row_norm(xs) <= row_norm(ys) + 1e-8
        assert col_norm(xs) <= col_norm(ys) + 1e-8


def test_amplified_identity_map():
    n = 3
    gid = sum(
        np.kron(matrix_unit(n, i, j), matrix_unit(n, i, j))
        for i in range(n)
        for j in range(n)
    )
    ident = KernelMap(full_matrix_space(n), Space("matrix", n), gid)
    for L in (1, 2):
        iv, _ = amplified_norm(ident, L, BUDGET)
        assert iv.lower == pytest.approx(1.0, abs=1e-9)
        assert iv.upper >= 1.0


def test_amplified_transpose_matrix_codomain():
    # transpose with operator-norm output evaluation: the swap witness gives
    # the full level value at amplification two
    tau_mat = KernelMap(full_matrix_space(2), Space("matrix", 2), swap_matrix(2))
    iv, _ = amplified_norm(tau_mat, 2, BUDGET)
    assert iv.lower >= 2 - 1e-6
    iv1, _ = amplified_norm(tau_mat, 1, BUDGET)
    assert iv1.lower == pytest.approx(1.0, abs=1e-9)


def test_amplified_transpose_witness_level_two():
    # input witness: the swap contraction; image pairs to norm two against
    # the swap dual variable
    tau = KernelMap(full_matrix_space(2), dual_space(2), swap_matrix(2))
    w4 = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            w4[a, a, b, b] = 1.0  # blocks E_ab, the image of swap under id x tau
    v4 = swap_matrix(2).reshape(2, 2, 2, 2)
    p4 = np.einsum("arbs,isjr->iajb", w4, v4)
    witness_value = np.linalg.svd(p4.reshape(4, 4), compute_uv=False)[0]
    assert witness_value == pytest.approx(2.0, abs=1e-12)
    iv, _ = amplified_norm(tau, 2, BUDGET)
    assert iv.lower >= 2 - 1e-6


def test_amplified_scaling_homogeneity():
    rng = rng_for("amp-scale")
    g = gue(4, rng)
    u1 = KernelMap(full_matrix_space(2), dual_space(2), g)
    u2 = KernelMap(u1.domain, u1.codomain, u1.kernel * 0.35)
    iv1, _ = amplified_norm(u1, 2, BUDGET)
    iv2, _ = amplified_norm(u2, 2, BUDGET)
    assert iv2.lower == pytest.approx(0.35 * iv1.lower, rel=1e-9)
    assert iv2.upper == pytest.approx(0.35 * iv1.upper, rel=1e-9)


def test_amplified_lower_monotone_in_level():
    light = SolverBudget(restarts=2, max_sweeps=60, seed=7)
    for trial in range(50):
        rng = rng_for("amp-mono", trial)
        g = gue(4, rng)
        u = KernelMap(full_matrix_space(2), dual_space(2), g)
        res = cb_norm_bounds(u, schedule=(1, 2, 4), budget=light)
        levels = [v for _, v in res.per_level]
        assert all(levels[i] <= levels[i + 1] + 1e-9 for i in range(len(levels) - 1))


def test_cb_bounds_identity_interval():
    n = 3
    gid = sum(
        np.kron(matrix_unit(n, i, j), matrix_unit(n, i, j))
        for i in range(n)
        for j in range(n)
    )
    ident = KernelMap(full_matrix_space(n), Space("matrix", n), gid)
    res = cb_norm_bounds(ident, schedule=(1, 2), budget=BUDGET)
    assert res.interval.lower == pytest.approx(1.0, abs=1e-9)
    assert res.interval.upper == pytest.approx(n * n, abs=1e-9)


def test_cb_bounds_transpose_interval():
    tau = KernelMap(full_matrix_space(2), dual_space(2), swap_matrix(2))
    res = cb_norm_bounds(tau, schedule=(1, 2), budget=BUDGET)
    assert res.interval.lower >= 2 - 1e-9
    assert res.interval.upper == pytest.approx(4.0, abs=1e-9)


def test_pietsch_identity_and_duplicates():
    for n in (2, 3, 4):
        val = pietsch_pi2([np.eye(n)[k] for k in range(n)])
        assert val == pytest.approx(np.sqrt(n), rel=1e-6)
    f = np.array([0.3, 0.4j, 1.0])
    assert pietsch_pi2([f]) == pytest.approx(np.linalg.norm(f), rel=1e-6)
    assert pietsch_pi2([f, f]) == pytest.approx(2 * np.linalg.norm(f), rel=1e-6)


def _pair(rng, p):
    return [rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(2)]


def test_pietsch_two_vectors_closed_form():
    # for d = 2 the optimal X has off-diagonal entry of modulus one, so
    # pi2^2 = ||v1||^2 + ||v2||^2 + 2 |<v1, v2>|
    for trial in range(10):
        rng = rng_for("pi2-pair", trial)
        v1, v2 = _pair(rng, int(rng.integers(1, 5)))
        exact = math.sqrt(np.vdot(v1, v1).real + np.vdot(v2, v2).real + 2 * abs(np.vdot(v1, v2)))
        assert pietsch_pi2([v1, v2]) == pytest.approx(exact, rel=1e-9)


def test_pietsch_zero_and_collinear_vectors():
    f = np.array([0.3, 0.4j, 1.0])
    norm = np.linalg.norm(f)
    assert pietsch_pi2([np.zeros(3)]) == 0.0
    assert pietsch_pi2([np.zeros(3), np.zeros(3)]) == 0.0
    assert pietsch_pi2([f, np.zeros(3)]) == pytest.approx(norm, rel=1e-6)
    # a zero image next to two that need several steps keeps its column
    g = np.array([1.0, 0.5, -0.2j])
    assert pietsch_pi2([f, g, np.zeros(3)]) == pytest.approx(pietsch_pi2([f, g]), rel=1e-6)
    # collinear images add up their norms, whatever the phases
    assert pietsch_pi2([f, -2 * f, 1j * f]) == pytest.approx(4 * norm, rel=1e-6)


def test_pietsch_step_cap_raises(monkeypatch):
    rng = rng_for("pi2-cap")
    h = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(4)]
    with monkeypatch.context() as mp:
        mp.setattr(opnorms, "PI2_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError, match="step cap"):
            pietsch_pi2(h)
    pietsch_pi2(h)


# values of the cutting-plane LP this fixed point replaced, on the maps of
# rng_for("pi2-pinned", trial); both are certified within the default PI2_REL_TOL
PI2_PINNED = (
    4.228022245884964,
    4.390067065825689,
    3.5006403256954726,
    2.9294781303947626,
    5.520818112748887,
    3.322774155788287,
    3.6811978158414567,
    5.997698732758943,
    1.5636126324724278,
    5.948197543417339,
)


@pytest.mark.parametrize("trial", range(len(PI2_PINNED)))
def test_pietsch_matches_pinned_values(trial):
    rng = rng_for("pi2-pinned", trial)
    d, p = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    h = [rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d)]
    assert pietsch_pi2(h) == pytest.approx(PI2_PINNED[trial], rel=1e-6)


def test_pietsch_default_tolerance_stays_above_a_tight_solve(monkeypatch):
    inputs = []
    for trial in range(10):
        rng = rng_for("pi2-tight", trial)
        d, p = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        inputs.append([rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d)])
    default = [pietsch_pi2(h) for h in inputs]
    monkeypatch.setattr(opnorms, "PI2_REL_TOL", 1e-12)
    for h, value in zip(inputs, default):
        assert value ** 2 >= pietsch_pi2(h) ** 2 * (1 - 1e-12)


@pytest.mark.parametrize("power", [600, -600])
def test_pietsch_is_exactly_homogeneous_at_extreme_scales(power):
    rng = rng_for("pi2-scale")
    h = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
    factor = 2.0 ** power
    assert pietsch_pi2([factor * v for v in h]) == pytest.approx(
        factor * pietsch_pi2(h), rel=1e-12)


def test_pietsch_tiny_and_huge_inputs():
    # the Gram matrix of these underflows or overflows unscaled
    tiny = pietsch_pi2([[1e-200, 0], [1e-200, 1e-200]])
    exact = 1e-200 * math.sqrt(1 + 2 + 2)
    assert tiny == pytest.approx(exact, rel=1e-6) and tiny >= exact * (1 - 1e-12)
    assert pietsch_pi2([[1e200, 0], [0, 1e200]]) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_map_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="finite"):
        VectorMap(([1.0, 0.0], [0.0, bad]))
    with pytest.raises(ValidationError, match="finite"):
        pietsch_pi2([[1.0, complex(0.0, bad)]])


@pytest.mark.parametrize("vectors", [(np.zeros(0),), ([], [])])
def test_vector_map_rejects_empty_image_vectors(vectors):
    with pytest.raises(ValidationError, match="positive dimension"):
        VectorMap(vectors)


def test_a_fractional_level_is_rejected():
    vm = VectorMap(([1.0, 0.0], [0.0, 1.0]))
    with pytest.raises(ValidationError, match="level schedule entries must be integers"):
        cb_norm_bounds(vm, (1.5,), BUDGET)
    with pytest.raises(ValidationError, match="level schedule entries must be integers"):
        amplified_norm(vm, 1.5, BUDGET)


def test_a_level_beyond_the_int64_range_is_rejected():
    # numpy would otherwise refuse it as an array dimension inside the core
    vm = VectorMap(([1.0, 0.0], [0.0, 1.0]))
    with pytest.raises(ValidationError, match="level schedule entries must be integers"):
        amplified_norm(vm, 10**400, BUDGET)


@pytest.mark.parametrize("schedule", [None, (1, 2)])
def test_cb_norm_bounds_rejects_what_is_not_a_map(schedule):
    with pytest.raises(ValidationError, match="expects a KernelMap or VectorMap"):
        cb_norm_bounds(np.eye(2), schedule, BUDGET)


def test_cb_norm_bounds_computes_the_trace_class_cap_once(monkeypatch):
    calls = []
    trace_norm = opnorms.trace_norm

    def counted(x):
        calls.append(1)
        return trace_norm(x)

    u = KernelMap(full_matrix_space(2), dual_space(2), swap_matrix(2) / 2)
    light = SolverBudget(restarts=1, max_sweeps=20, seed=2)
    expected = cb_norm_bounds(u, (1, 2, 4), light)
    monkeypatch.setattr(opnorms, "trace_norm", counted)
    assert cb_norm_bounds(u, (1, 2, 4), light) == expected
    assert len(calls) == 1


def test_vector_nuclear_cap_does_not_underflow():
    vm = VectorMap(([1e-200, 0], [1e-200, 1e-200]))
    res = cb_norm_bounds(vm, (1, 2), BUDGET)
    assert res.interval.upper >= math.sqrt(2) * 1e-200
    assert res.interval.upper == pytest.approx((1 + math.sqrt(2)) * 1e-200, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zero", [
    KernelMap(full_matrix_space(2), dual_space(2), np.zeros((4, 4))),
    KernelMap(full_matrix_space(2), full_matrix_space(3), np.zeros((6, 6))),
    VectorMap((np.zeros(2), np.zeros(2), np.zeros(2))),
], ids=["into-trace-class", "into-M3", "vector"])
def test_cb_norm_bounds_of_a_zero_map_are_zero(zero):
    res = cb_norm_bounds(zero, (1, 2, 4), BUDGET)
    assert res.per_level == ((1, 0.0), (2, 0.0), (4, 0.0))
    assert (res.interval.lower, res.interval.upper) == (0.0, 0.0)


def test_pietsch_dominates_operator_norm():
    for trial in range(10):
        rng = rng_for("pi2-op", trial)
        d, p = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        h = [rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d)]
        pi2 = pietsch_pi2(h)
        sign_max = max(
            np.linalg.norm(sum(s * v for s, v in zip(signs, h)))
            for signs in itertools.product((-1, 1), repeat=d)
        )
        assert pi2 >= sign_max - 1e-9


def test_cb_vs_pietsch_small_cross_check():
    for trial in range(6):
        rng = rng_for("cb-pi2", trial)
        d, p = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h = tuple(rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d))
        vm = VectorMap(h)
        pi2 = pietsch_pi2(vm)
        res = cb_norm_bounds(
            vm, schedule=(1, 2, 4), budget=SolverBudget(restarts=8, max_sweeps=100, seed=trial)
        )
        assert res.interval.lower <= pi2 * 1.02
        assert res.interval.lower >= pi2 * 0.95


def test_operator_norm_is_the_spectral_norm_bit_for_bit():
    rng = rng_for("opnorm-bits")
    for rows, cols in [(1, 1), (16, 16)] + [tuple(rng.integers(1, 17, size=2)) for _ in range(40)]:
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        assert operator_norm(a) == np.linalg.norm(a, 2)


def _dual_cap_per_term(z, L, m):
    """The singular-term cap of an L x L block matrix over m x m trace
    class: sum_t s_t ||C_t|| ||F_t||_1 over the terms s_t C_t (x) F_t of the
    (level | space) cut above a relative 1e-15, one operator norm and one
    trace norm per term."""
    z4 = np.asarray(z, dtype=complex).reshape(L, m, L, m)
    r = np.ascontiguousarray(z4.transpose(0, 2, 1, 3).reshape(L * L, m * m))
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    cap = 0.0
    for t in range(s.size):
        if s[t] <= 1e-15 * s[0]:
            break
        op = np.linalg.norm(u[:, t].reshape(L, L), 2)
        tr = np.linalg.svd(vh[t].reshape(m, m), compute_uv=False).sum()
        cap += float(s[t]) * float(op) * float(tr)
    return cap


def _row_embed(x):
    """First-row block matrix of a tuple, an element of M_d(carrier)."""
    d, r, c = x.shape
    z = np.zeros((d * r, d * c), dtype=complex)
    for k in range(d):
        z[:r, k * c : (k + 1) * c] = x[k]
    return z


def _col_embed(x):
    """First-column block matrix of a tuple."""
    d, r, c = x.shape
    z = np.zeros((d * r, d * c), dtype=complex)
    for k in range(d):
        z[k * r : (k + 1) * r, :c] = x[k]
    return z


def test_dual_split_upper_equals_the_per_split_caps(monkeypatch):
    # at most six random splits, all capped in one stacked evaluation
    stacked = []

    def counting(stack):
        stacked.append(len(stack))
        return dual_tuple_caps(stack)

    monkeypatch.setattr(factor, "dual_tuple_caps", counting)
    for restarts in (5, 12):
        budget = SolverBudget(restarts=restarts, max_sweeps=1, seed=3)  # no see-saw runs
        splits = min(restarts, 6)
        for trial in range(6):
            rng = rng_for("dual-split-upper", trial)
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            x = rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))

            def cap(tpart, spart):
                return math.sqrt(_dual_cap_per_term(_row_embed(tpart), d, n) ** 2
                                 + _dual_cap_per_term(_col_embed(spart), d, n) ** 2)

            ref = min(cap(lam * x, (1 - lam) * x) for lam in np.linspace(0.0, 1.0, 9))
            split_rng = budget.rng("dual-split")
            for _ in range(splits):
                tpart = split_rng.uniform(0.0, 1.0, size=d)[:, None, None] * x
                ref = min(ref, cap(tpart, x - tpart))
            stacked.clear()
            got = tuple_rplus2c_upper_in_space(x, dual_space(n), budget)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
            assert stacked == [1 + 2 * splits]


def test_rc_seesaw_value_is_the_level_norm_of_its_witness():
    for trial in range(4):
        rng = rng_for("rc-witness", trial)
        d, p = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        vm = VectorMap(tuple(rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d)))
        h = np.stack(vm.vectors)
        for L in (1, 2, 3):
            val, state = _amp_rc_codomain(vm, L, BUDGET)
            blocks = state[0]
            assert max(operator_norm(b) for b in blocks) <= 1 + 1e-12
            w = np.einsum("kab,kr->arb", blocks, h)
            col = w.reshape(L * p, L)
            row = w.transpose(0, 2, 1).reshape(L, L * p)
            assert val == max(operator_norm(col), operator_norm(row))


def test_tuple_cap_is_the_row_and_the_column_cap():
    rng = rng_for("tuple-cap")
    tuples_ = []
    for trial in range(12):
        d, n = (int(v) for v in rng.integers(1, 5, size=2))
        # rank k over the d x n^2 stack; k < min(d, n^2) is rank-deficient
        k = int(rng.integers(1, min(d, n * n) + 1))
        left = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        right = rng.normal(size=(k, n * n)) + 1j * rng.normal(size=(k, n * n))
        tuples_.append((left @ right).reshape(d, n, n))
    # a singular value near 1e-14 of the largest sits just above the cut-off
    near_cut = (rng.normal(size=(3, 2)) * [1.0, 1e-14]) @ rng.normal(size=(2, 4))
    single = np.zeros((3, 2, 2), dtype=complex)
    single[1, 0, 1] = 2.5 - 1j
    tuples_ += [near_cut.reshape(3, 2, 2), single, np.zeros((2, 3, 3), dtype=complex)]
    for x in tuples_:
        d, n = x.shape[0], x.shape[1]
        cap = dual_tuple_cap(x)
        for embed in (_row_embed, _col_embed):
            assert cap == pytest.approx(_dual_cap_per_term(embed(x), d, n), rel=1e-12, abs=0)
    # the near-cut-off term counts: the cap exceeds its first term alone
    _, s, vh = np.linalg.svd(near_cut, full_matrices=False)
    assert 1e-15 < s[1] / s[0] < 1e-13
    first = s[0] * np.linalg.svd(vh[0].reshape(2, 2), compute_uv=False).sum()
    assert dual_tuple_cap(tuples_[-3]) > first
    assert dual_tuple_cap(single) == pytest.approx(abs(2.5 - 1j), rel=1e-15)
    assert dual_tuple_cap(tuples_[-1]) == 0.0


def _level_runs(kind, trial):
    """``run(L, budget, warm) -> (lower, state)`` for one seeded map of
    ``kind``."""
    rng = rng_for("warm-embed", trial)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    vm = VectorMap(tuple(rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)))
    u = {"dual": KernelMap(full_matrix_space(2), dual_space(2), g),
         "matrix": KernelMap(full_matrix_space(2), Space("matrix", 2), g),
         "vector": vm}[kind]

    core, *_ = opnorms._amp_solver(u)
    return lambda L, budget, warm: core(u, L, budget, warm=warm)


@pytest.mark.parametrize("kind", ["dual", "matrix", "vector"])
def test_a_level_starts_from_the_embedded_lower_level_witness(kind):
    # one sweep from three starts falls short of a converged level-one
    # witness on these maps, so only the embedded witness carries the bound
    tiny = SolverBudget(restarts=1, max_sweeps=1, seed=7)
    for trial in range(4):
        run = _level_runs(kind, trial)
        lower1, state = run(1, BUDGET, None)
        lower2, _ = run(2, tiny, state)
        assert lower2 >= lower1 * (1 - 1e-12)


def test_stacked_tuple_caps_are_the_single_caps_bit_for_bit():
    # one shape, ranks 0 to 4, so each row keeps its own number of terms
    rng = rng_for("tuple-caps-stack")
    xs = []
    for k in range(5):
        left = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
        right = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
        xs.append((left @ right).reshape(4, 2, 2) * 10.0 ** (40 * k - 80))
    caps = dual_tuple_caps(np.stack(xs))
    assert caps.tolist() == [dual_tuple_cap(x) for x in xs]
    assert caps[0] == 0.0 and (caps[1:] > 0).all()


@pytest.mark.parametrize("x, what", [
    (np.array([[[1.0, math.inf], [0, 0]]]), "finite"),
    (np.array([[[1.0, math.nan], [0, 0]]]), "finite"),
    (np.eye(2), "shape"),
    (np.zeros((2, 2, 3)), "shape"),
    (np.zeros((0, 2, 2)), "shape"),
    ([[[1.0, 0.0], [0.0]]], "complex numbers"),
], ids=["inf", "nan", "matrix", "rectangular", "empty", "ragged"])
def test_a_trace_class_cap_refuses_a_malformed_tuple(x, what):
    # an inf entry once gave a cap of 0.0 and a NaN one numpy's LinAlgError
    with pytest.raises(ValidationError, match=what):
        dual_tuple_cap(x)
    with pytest.raises(ValidationError, match=what):
        dual_tuple_caps(x)


def test_a_trace_class_cap_reads_a_nested_list_as_its_array():
    x = rng_for("tuple-cap-list").normal(size=(3, 2, 2))
    assert dual_tuple_cap(x.tolist()) == dual_tuple_cap(x)
    assert dual_tuple_caps([x.tolist()]).tolist() == [dual_tuple_cap(x)]


def test_a_trace_class_cap_beyond_the_float_range_is_inf():
    x = np.full((2, 2, 2), 1e308 + 0j)
    x[1] *= -0.5
    # the cap is homogeneous, and a quarter of the tuple has a cap above a
    # quarter of the largest float
    assert 4 * dual_tuple_cap(x / 4) == math.inf
    assert dual_tuple_cap(x) == math.inf
    # the splits are compared at the tuple's exact power-of-two scale, where
    # the cap and its squares stay finite, so the split bound does too
    budget = SolverBudget(restarts=3, max_sweeps=1)  # no see-saw runs
    split = tuple_rplus2c_upper_in_space(x, dual_space(2), budget)
    assert split == 1.5811388300841897e308
    assert split == 2**8 * tuple_rplus2c_upper_in_space(x * 2**-8, dual_space(2), budget)
    # below the float range the stack scale is exact
    assert dual_tuple_cap(x / 16) == 4 * dual_tuple_cap(x / 64)


def test_a_kernel_map_from_trace_class_is_rejected():
    # the identity S_1^2 -> S_1^2 has norm one; the see-saws range over the
    # unit ball of M_2, where the same kernel is the identity M_2 -> S_1^2 of
    # norm two
    ident = sum(np.kron(matrix_unit(2, i, j), matrix_unit(2, i, j))
                for i in range(2) for j in range(2))
    with pytest.raises(ValidationError, match="domain"):
        KernelMap(dual_space(2), dual_space(2), ident)
    iv, _ = amplified_norm(KernelMap(full_matrix_space(2), dual_space(2), ident), 1, BUDGET)
    assert iv.lower == pytest.approx(2.0, abs=1e-9)
    assert iv.upper == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# amplified-norm cores on rectangular maps (n != m)
# ---------------------------------------------------------------------------

RECT_SHAPES = [(2, 3), (3, 2), (1, 3)]
RECT_BUDGET = SolverBudget(restarts=3, max_sweeps=60, seed=11)


def _rect_map(kind, n, m):
    rng = rng_for("rect-map", kind, n, m)
    g = rng.normal(size=(n * m, n * m)) + 1j * rng.normal(size=(n * m, n * m))
    codomain = dual_space(m) if kind == "dual" else full_matrix_space(m)
    return KernelMap(full_matrix_space(n), codomain, g)


def _einsum_contractions(g4, z4, v4, ud, vd, um, vm):
    """Reference for the see-saw contractions on stacks with a leading
    axis ``k``: the image ``w4[a,r,b,s]``, the pairing ``P[i,a,j,b]``, the
    dual coefficient ``e4[i,s,j,r]``, the dual input coefficient and the
    matrix-codomain input coefficient ``c4[a,p,b,q]``."""
    w4 = np.einsum("prqs,kapbq->karbs", g4, z4)
    p = np.einsum("karbs,kisjr->kiajb", w4, v4)
    e4 = np.einsum("kia,kjb,karbs->kisjr", ud.conj(), vd, w4)
    gv = np.einsum("prqs,kisjr->kipjq", g4, v4)
    c4_dual = np.einsum("kia,kjb,kipjq->kapbq", ud.conj(), vd, gv)
    c4_matrix = np.einsum("kar,kbs,prqs->kapbq", um.conj(), vm, g4)
    return w4, p, e4, c4_dual, c4_matrix


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n, m", RECT_SHAPES)
@pytest.mark.parametrize("L", [1, 2, 4])
def test_amp_kernels_match_the_einsum_contractions(n, m, L):
    rng = rng_for("amp-kernels", n, m, L)

    def cplx(*shape):
        return rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)

    z4, v4 = cplx(L, n, L, n), cplx(L, m, L, m)
    ud, vd, um, vm = cplx(L, L), cplx(L, L), cplx(L, m), cplx(L, m)
    for kind in ("dual", "matrix"):
        u = _rect_map(kind, n, m)
        w4, p, e4, c4_dual, c4_matrix = _einsum_contractions(
            u.kernel.reshape(n, m, n, m), z4, v4, ud, vd, um, vm)
        image, pairing, dual_coeff, input_coeff = opnorms._amp_kernels(u, L)
        w = image(z4)
        _assert_close(w, w4.transpose(0, 1, 3, 2, 4).reshape(3, L * L, m * m))
        # the matrix codomain reads W as the block matrix [(a,r),(b,s)]
        _assert_close(regroup(w, (L, L, m, m), (0, 2, 1, 3)), w4.reshape(3, L * m, L * m))
        vt = v4.transpose(0, 4, 2, 1, 3).reshape(3, m * m, L * L)  # V~[(r,s),(i,j)]
        _assert_close(pairing(w, vt), p.reshape(3, L * L, L * L))
        x = opnorms._pair_matrix(ud, vd)
        _assert_close(dual_coeff(x, w), e4.reshape(3, L * m, L * m))
        _assert_close(input_coeff(x.swapaxes(-1, -2) @ vt.swapaxes(-1, -2)), c4_dual)
        _assert_close(input_coeff(opnorms._pair_matrix(um, vm)), c4_matrix)


# cb_norm_bounds(_rect_map(kind, n, m), (1, 2, 4), RECT_BUDGET) as (lower, upper),
# recorded when the see-saw cores ran the einsum contractions above
RECT_BOUNDS = {
    ("dual", 2, 3): (11.182886752912228, 17.879095715248337),
    ("dual", 3, 2): (12.140231247432315, 17.809407847683545),
    ("dual", 1, 3): (3.8570093977780973, 3.8570093977780973),
    ("matrix", 2, 3): (6.256112221457848, 12.726638097100063),
    ("matrix", 3, 2): (8.467045821439559, 21.580702655687748),
    ("matrix", 1, 3): (3.807498472776399, 3.807498472776399),
}


@pytest.mark.parametrize("kind, n, m", list(RECT_BOUNDS))
def test_cb_norm_bounds_of_rectangular_maps_match_the_recorded_bounds(kind, n, m):
    lower, upper = RECT_BOUNDS[kind, n, m]
    res = cb_norm_bounds(_rect_map(kind, n, m), (1, 2, 4), RECT_BUDGET)
    assert res.interval.lower == pytest.approx(lower, rel=1e-8, abs=0)
    assert res.interval.upper == upper


@pytest.mark.parametrize("kind", ["dual", "matrix"])
@pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
def test_a_level_four_witness_is_feasible_and_valued_block_by_block(kind, n, m):
    L, u = 4, _rect_map(kind, n, m)
    ladder = cb_norm_bounds(u, (1, 2, L), RECT_BUDGET)
    for iv, state in (amplified_norm(u, L, RECT_BUDGET), (ladder.interval, ladder.witness)):
        assert iv.lower < iv.upper  # the lower is the witness value, not the cap
        z4, uu, vv = state[0], state[-2], state[-1]
        assert operator_norm(z4.reshape(L * n, L * n)) <= 1 + 1e-12
        assert np.linalg.norm(uu) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(vv) == pytest.approx(1.0, abs=1e-12)
        image = {(a, b): u.apply(z4[a, :, b, :]) for a in range(L) for b in range(L)}
        if kind == "dual":
            v4 = state[1]
            assert operator_norm(v4.reshape(L * m, L * m)) <= 1 + 1e-12
            # P[(i,a),(j,b)] = tr(u(z_ab) v_ij) with v_ij[s,r] = v4[i,s,j,r]
            value = sum(uu[i, a].conj() * vv[j, b] * np.trace(image[a, b] @ v4[i, :, j, :])
                        for i, a, j, b in itertools.product(range(L), repeat=4))
        else:
            value = sum(uu[a].conj() @ image[a, b] @ vv[b] for a in range(L) for b in range(L))
        assert np.real(value) == pytest.approx(iv.lower, rel=1e-12, abs=0)


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("u", [
    _rect_map("dual", 2, 3),
    _rect_map("matrix", 3, 2),
    VectorMap(tuple(rng_for("amp-one-level").normal(size=(3, 2)))),
], ids=["into-trace-class", "into-M2", "vector"])
def test_amplified_norm_is_the_one_level_ladder(u, L):
    iv, state = amplified_norm(u, L, RECT_BUDGET)
    res = cb_norm_bounds(u, (L,), RECT_BUDGET)
    assert iv == res.interval
    assert iv.lower_method == "seesaw_schedule"
    assert len(state) == len(res.witness)
    assert all(np.array_equal(a, b) for a, b in zip(state, res.witness))


@pytest.mark.parametrize("lowers, best, level", [
    ({1: -1.0, 2: -0.5}, 0.0, 1),  # no level reaches zero: the first level's state
    ({1: 0.5, 2: 0.5}, 0.5, 2),  # a tie goes to the later level
], ids=["below-zero", "tie"])
def test_the_ladder_witness_is_the_state_of_the_level_behind_the_lower(monkeypatch, lowers,
                                                                        best, level):
    def core(u, L, budget, warm=None):
        return lowers[L], (np.full(L, float(L)),)

    monkeypatch.setattr(opnorms, "_amp_rc_codomain", core)
    res = cb_norm_bounds(VectorMap((np.ones(2),)), (1, 2), BUDGET)
    assert res.per_level == ((1, best), (2, best))
    assert np.array_equal(res.witness[0], np.full(level, float(level)))


@pytest.mark.parametrize("kind", ["dual", "matrix"])
def test_level_four_starts_give_the_same_values_in_lockstep_as_alone(kind, monkeypatch):
    calls = []

    def recording(starts, sweep, budget, **kw):
        starts = list(starts)
        calls.append((starts, sweep, budget, kw))
        return seesaw(starts, sweep, budget, **kw)

    monkeypatch.setattr(opnorms, "seesaw", recording)
    for n, m in RECT_SHAPES:
        amplified_norm(_rect_map(kind, n, m), 4, RECT_BUDGET)
    assert len(calls) == len(RECT_SHAPES)
    for starts, sweep, budget, kw in calls:
        together = seesaw(starts, sweep, budget, **kw)[2].values
        alone = [seesaw([s], sweep, budget, **kw)[2].values[0] for s in starts]
        assert together == tuple(alone)


def _amplified_start_counts(monkeypatch):
    """The number of starts of each amplified-norm see-saw call, in call order."""
    counts = []

    def counted(starts, sweep, budget, **kw):
        starts = list(starts)
        counts.append(len(starts))
        return seesaw(starts, sweep, budget, **kw)

    monkeypatch.setattr(opnorms, "seesaw", counted)
    return counts


def _vector_map():
    rng = rng_for("ladder-vectors")
    return VectorMap(tuple(rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)))


@pytest.mark.parametrize("u, fixed, upper", [
    (_rect_map("dual", 2, 2), 2, 0),
    (_rect_map("matrix", 2, 2), 2, 1),
    (_vector_map(), 1, 0),
], ids=["dual", "matrix", "vectors"])
def test_cb_ladder_spends_its_restarts_on_the_first_level(monkeypatch, u, fixed, upper):
    # the first level runs the core's deterministic starts and every
    # restart; a later level adds the warm witness, and only the matrix
    # codomain core runs one random start there
    counts = _amplified_start_counts(monkeypatch)
    cb_norm_bounds(u, (1, 2, 4), RECT_BUDGET)
    assert counts == [fixed + RECT_BUDGET.restarts] + [fixed + 1 + upper] * 2


def test_one_level_amplified_norm_runs_every_restart(monkeypatch):
    counts = _amplified_start_counts(monkeypatch)
    amplified_norm(_rect_map("dual", 2, 2), 2, RECT_BUDGET)
    assert counts == [2 + RECT_BUDGET.restarts]


@pytest.mark.parametrize("u, key", [
    (_rect_map("dual", 2, 2), "amp-dual"),
    (_rect_map("matrix", 2, 2), "amp-mat"),
    (_vector_map(), "amp-rc"),
], ids=["dual", "matrix", "vectors"])
def test_cb_ladder_draws_its_one_random_start_from_the_first_restart_key(monkeypatch, u, key):
    # a warm-started level of the matrix codomain core keys its random start
    # by its place among the starts, as that level's first random start when
    # it ran every restart; the other two cores draw only at the first level
    keys = []
    rng = SolverBudget.rng

    def recording(self, *k):
        keys.append(k)
        return rng(self, *k)

    monkeypatch.setattr(SolverBudget, "rng", recording)
    first = 1 if key == "amp-rc" else 2
    cb_norm_bounds(u, (1, 2, 4), RECT_BUDGET)
    upper = [(key, first + 1)] * 2 if key == "amp-mat" else []
    assert keys == [(key, first + i) for i in range(RECT_BUDGET.restarts)] + upper


def test_a_dual_sweep_is_three_svds_and_no_einsum(monkeypatch):
    # the contractions are matrix products on one kernel; the SVDs are the
    # top singular pair and the two polar updates
    live, per_sweep = {"einsum": 0, "svd": 0}, []

    def counting(name, real):
        def counted(*args, **kwargs):
            live[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))

    def recording(starts, sweep, budget, **kwargs):
        def counted_sweep(vals, states):
            before = dict(live)
            out = sweep(vals, states)
            per_sweep.append((live["einsum"] - before["einsum"], live["svd"] - before["svd"]))
            return out
        return seesaw(starts, counted_sweep, budget, **kwargs)

    monkeypatch.setattr(opnorms, "seesaw", recording)
    amplified_norm(_rect_map("dual", 2, 3), 4, RECT_BUDGET)
    assert per_sweep and set(per_sweep) == {(0, 3)}
