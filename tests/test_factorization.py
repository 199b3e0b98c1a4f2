import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import gue, matrix_unit, rng_for, swap_matrix
import qxor
from qxor.budget import SolverBudget
from qxor.config import ValidationError
from qxor.factor import (
    CB_VS_SUMMING_CONSTANT,
    MAB_FACTORIZATION_CONSTANT,
    TensorElement,
    chain_check,
    exhaustive_sign_one_norm,
    gamma_rc_upper,
    gamma_to_Gamma,
    mab_certify,
    tensor_from_kernel,
    tuple_rplus2c_upper_in_space,
    weight_homogeneity_check,
    weight_monotonicity_check,
    weight_sandwich_check,
    weight_subadditivity_check,
)
from qxor.games import associated_map, diagonal_game, hadamard_matrix, mab_tensor, random_game
from qxor.maps import Space, dual_space
from qxor.opnorms import dual_tuple_cap
from qxor.tuples import mix_tuple, rc_norm, rplus2c_split

BUDGET = SolverBudget(restarts=4, max_sweeps=80, seed=13)


def test_the_weight_of_a_tiny_tuple_stays_an_upper_bound():
    # the tuple of the CLI test of the same name at scale 1e-200: its
    # weight rplus2c**2 is below the normal float range and is rounded up
    rng = np.random.default_rng(3)
    t = [1e-200 * (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))) for _ in range(2)]
    split = rplus2c_split(t)
    w, value = split.weight, split.value
    assert w > 0
    assert Fraction(w) >= Fraction(value) ** 2


def test_weight_single_element():
    rng = rng_for("w-single")
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    # the quadratic splitting norm of one element is ||x|| / sqrt(2)
    assert rplus2c_split(np.stack([x])).weight == pytest.approx(
        np.linalg.norm(x, 2) ** 2 / 2, rel=1e-6
    )


def test_weight_homogeneity():
    rng = rng_for("w-homog")
    t = np.stack([gue(3, rng) for _ in range(3)])
    lhs, rhs, ok = weight_homogeneity_check(t, 2.7, split=rplus2c_split(t))
    assert ok


def test_weight_subadditivity():
    rng = rng_for("w-subadd")
    t = np.stack([gue(3, rng) for _ in range(3)])
    s = np.stack([gue(3, rng) for _ in range(2)])
    lhs, rhs, ok = weight_subadditivity_check(t, s, x_split=rplus2c_split(t),
                                              y_split=rplus2c_split(s))
    assert ok


def test_weight_monotonicity():
    rng = rng_for("w-mono")
    t = np.stack([gue(3, rng) for _ in range(3)])
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    a /= max(1.0, np.linalg.norm(a, 2))
    wx, wy, ok = weight_monotonicity_check(mix_tuple(a, t), t, ys_split=rplus2c_split(t))
    assert ok


def test_weight_sandwich_single_and_zero():
    rng = rng_for("w-sand")
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    single, zeros = np.stack([x]), np.zeros((2, 3, 3))
    ws = weight_sandwich_check(single, split=rplus2c_split(single))
    assert ws.ok
    assert ws.lower == pytest.approx(ws.w, rel=1e-6)  # half split is optimal here
    zero = weight_sandwich_check(zeros, split=rplus2c_split(zeros))
    assert zero.ok
    assert zero.w == pytest.approx(0.0, abs=1e-12)


def test_weight_sandwich_random_tuples():
    for trial in range(12):
        rng = rng_for("w-sand-rand", trial)
        d = int(rng.integers(1, 5))
        t = np.stack([gue(3, rng) for _ in range(d)])
        ws = weight_sandwich_check(t, split=rplus2c_split(t))
        assert ws.ok


def test_factor_bounds_scale_back_from_huge_tensors():
    # a tensor past the evaluable range is solved at the scale 2**-1010,
    # where it is the small tensor itself, so the bounds agree exactly
    rng = rng_for("factor-huge")
    k = rng.normal(size=(4, 4))
    k += k.T
    k /= 2 * np.abs(k).max()  # largest entry exactly 1/2
    small = tensor_from_kernel(k, 2, 2)
    big = tensor_from_kernel(np.ldexp(k, 1010), 2, 2)
    gs, gb = gamma_rc_upper(small, BUDGET), gamma_rc_upper(big, BUDGET)
    assert gb.gamma_upper == math.ldexp(gs.gamma_upper, 1010)
    assert gb.x_norm_upper == math.ldexp(gs.x_norm_upper, 505)
    assert gb.y_norm_upper == math.ldexp(gs.y_norm_upper, 505)
    assert np.abs(big.reconstruct(gb.xs, gb.ys) - big.coeff).max() < 1e-9 * 2.0 ** 1009
    ivs = gamma_to_Gamma(small, gs.gamma_upper, BUDGET, schedule=(1,))
    ivb = gamma_to_Gamma(big, gb.gamma_upper, BUDGET, schedule=(1,))
    assert ivb.lower == math.ldexp(ivs.lower, 1010)
    assert ivb.upper == math.ldexp(ivs.upper, 1010)
    # at a largest entry of 1.5e308 the bounds leave the float range: the
    # upper is unbounded, never 0.0
    huge = tensor_from_kernel(2 * k * 1.5e308, 2, 2)
    gh = gamma_rc_upper(huge, BUDGET)
    assert gh.gamma_upper == math.inf
    iv = gamma_to_Gamma(huge, gh.gamma_upper, BUDGET, schedule=(1,))
    assert iv.lower <= iv.upper == math.inf


def test_gamma_rank_one_single_term():
    rng = rng_for("gamma-r1")
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z = TensorElement(
        Space("matrix", 2), Space("matrix", 2),
        np.outer(x.ravel(), y.ravel()),
    )
    res = gamma_rc_upper(z, BUDGET)
    single = rc_norm(np.stack([x])) * rplus2c_split(np.stack([y])).value
    assert res.gamma_upper <= single + 1e-9
    recon = z.reconstruct(res.xs, res.ys)
    assert np.abs(recon - z.coeff).max() < 1e-9


def test_gamma_scaling():
    rng = rng_for("gamma-scale")
    coeff = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sp = Space("matrix", 2)
    v1 = gamma_rc_upper(TensorElement(sp, sp, coeff), BUDGET).gamma_upper
    v2 = gamma_rc_upper(TensorElement(sp, sp, 3.0 * coeff), BUDGET).gamma_upper
    assert v2 == pytest.approx(3.0 * v1, rel=1e-6)


def test_gamma_mixing_invariance():
    rng = rng_for("gamma-mix")
    coeff = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sp = Space("matrix", 2)
    z = TensorElement(sp, sp, coeff)
    res = gamma_rc_upper(z, BUDGET)
    r = res.xs.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    xs2 = mix_tuple(q, res.xs)
    ys2 = mix_tuple(np.linalg.inv(q).T, res.ys)
    assert np.abs(z.reconstruct(xs2, ys2) - z.coeff).max() < 1e-12
    assert rc_norm(xs2) == pytest.approx(rc_norm(res.xs), abs=1e-9)


def test_gamma_mab_reference_search():
    # the proof-backed reference level is 4; the search result is recorded,
    # not asserted, but it must stay a certified upper bound of the trivial
    # single-split evaluation
    rng = rng_for("gamma-mab")
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a /= np.linalg.norm(a, "fro")
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b /= np.linalg.norm(b, "fro")
    z = tensor_from_kernel(mab_tensor(a, b), 2, 2)
    res = gamma_rc_upper(z, BUDGET)
    assert np.isfinite(res.gamma_upper)
    assert res.gamma_upper > 0


def test_gamma_to_Gamma_zero_and_order():
    z = tensor_from_kernel(np.zeros((4, 4)), 2, 2)
    res = gamma_rc_upper(z, BUDGET)
    iv = gamma_to_Gamma(z, res.gamma_upper, BUDGET, schedule=(1, 2))
    assert iv.lower == pytest.approx(0.0, abs=1e-12)
    assert iv.upper == pytest.approx(0.0, abs=1e-12)


def test_gamma_to_Gamma_rank_one_mab_unit():
    e11 = matrix_unit(2, 0, 0)
    z = tensor_from_kernel(mab_tensor(e11, e11), 2, 2)
    res = gamma_rc_upper(z, BUDGET)
    iv = gamma_to_Gamma(z, res.gamma_upper, BUDGET, schedule=(1, 2))
    assert iv.lower <= iv.upper + 1e-9


def test_gamma_to_Gamma_transpose_lower():
    z = tensor_from_kernel(swap_matrix(2), 2, 2)
    res = gamma_rc_upper(z, BUDGET)
    iv = gamma_to_Gamma(z, res.gamma_upper, BUDGET, schedule=(1, 2))
    assert iv.lower >= 2 - 1e-6


def test_gamma_to_Gamma_random_games_never_invert():
    from qxor.games import random_game

    for seed in range(8):
        g = random_game(2, 2, seed=500 + seed)
        z = tensor_from_kernel(g.G, 2, 2)
        res = gamma_rc_upper(z, BUDGET)
        iv = gamma_to_Gamma(z, res.gamma_upper, BUDGET, schedule=(1, 2))
        assert iv.lower <= iv.upper + 1e-9


def test_mab_certify_unit_and_zero():
    e11 = matrix_unit(2, 0, 0)
    lo, ok = mab_certify(e11, e11, BUDGET, schedule=(1, 2))
    assert ok
    assert lo <= 1 + 1e-8  # the kernel is a rank-one trace-norm-one tensor
    lo, ok = mab_certify(np.zeros((2, 2)), e11, BUDGET, schedule=(1, 2))
    assert ok
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_mab_certify_random_pairs():
    for trial in range(10):
        rng = rng_for("mab-cert", trial)
        p = int(rng.integers(2, 4))
        a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        a /= np.linalg.norm(a, "fro")
        b = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        b /= np.linalg.norm(b, "fro")
        lo, ok = mab_certify(a, b, BUDGET, schedule=(1, 2))
        assert ok, lo


def test_mab_certify_rejects_large_factors():
    with pytest.raises(ValidationError):
        mab_certify(2 * np.eye(2), np.eye(2), BUDGET, schedule=(1, 2))


def test_chain_check_transpose_and_diagonal():
    for n in (2, 3):
        tau = associated_map(swap_matrix(n), n, n)
        lo, bound, ok = chain_check(tau, float(n), BUDGET, schedule=(1, 2))
        assert ok
        assert bound == pytest.approx(CB_VS_SUMMING_CONSTANT * n + 1e-4)
    rng = rng_for("chain-diag")
    m = rng.uniform(-0.2, 0.2, size=(2, 2))
    g = diagonal_game(m)
    lo, bound, ok = chain_check(associated_map(g), float(np.abs(m).sum()), BUDGET,
                                schedule=(1, 2))
    assert ok


def test_chain_check_zero_map():
    zero = associated_map(np.zeros((4, 4)), 2, 2)
    lo, bound, ok = chain_check(zero, 0.0, BUDGET, schedule=(1, 2))
    assert ok
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_hadamard_gap_direction():
    for n in (2, 4):
        coeffs = hadamard_matrix(n) / n**2
        pi1o = float(np.abs(coeffs).sum())
        sign_norm = exhaustive_sign_one_norm(coeffs)
        assert pi1o / sign_norm >= math.sqrt(n) / math.sqrt(2) - 1e-12


@pytest.mark.parametrize("M, message", [
    ([[1.0, math.nan]], "finite"),
    ([[1.0, math.inf]], "finite"),
    # 2**64 sign vectors would never finish; the refusal comes first
    (np.ones((1, 64)), r"at most 16 columns, got shape \(1, 64\)"),
], ids=["nan", "inf", "64-columns"])
def test_sign_oracle_refuses_non_finite_or_too_wide_matrices(M, message):
    with pytest.raises(ValidationError, match=message):
        exhaustive_sign_one_norm(M)


@pytest.mark.parametrize("M", [np.array([[1j, 1.0]]), [[1j, 1.0]]], ids=["array", "list"])
def test_sign_oracle_refuses_a_complex_entry(M):
    # an array once lost its imaginary part and gave 1.0
    with pytest.raises(ValidationError, match="finite real matrix"):
        exhaustive_sign_one_norm(M)


def test_sign_oracle_refuses_a_string():
    with pytest.raises(ValidationError, match="complex numbers"):
        exhaustive_sign_one_norm("ab")


SCALARS = pytest.mark.parametrize("value", [math.nan, -1.0, "x", None])


@SCALARS
def test_gamma_to_Gamma_takes_a_nonnegative_gamma_upper(value):
    z = tensor_from_kernel(np.eye(4) / 4, 2, 2)
    with pytest.raises(ValidationError, match="gamma_upper must be nonnegative"):
        gamma_to_Gamma(z, value, BUDGET, (1,))


def test_gamma_to_Gamma_takes_an_infinite_gamma_upper():
    z = tensor_from_kernel(np.eye(4) / 4, 2, 2)
    assert gamma_to_Gamma(z, math.inf, BUDGET, (1,)).upper == math.inf


@SCALARS
def test_chain_check_takes_a_nonnegative_summing_norm(value):
    # a NaN once gave (0.7071..., nan, False)
    with pytest.raises(ValidationError, match="known_pi1cb must be nonnegative"):
        chain_check(associated_map(np.eye(4) / 4, 2, 2), value, BUDGET, (1,))


@pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0, "x"])
def test_weight_homogeneity_takes_a_positive_finite_factor(factor):
    # -1.0 once raised "math domain error"
    t = rng_for("homog-factor").normal(size=(2, 2, 2))
    with pytest.raises(ValidationError, match="factor must be positive and finite"):
        weight_homogeneity_check(t, factor, split=rplus2c_split(t))


def test_a_real_beyond_the_float_range_is_refused_in_a_short_message():
    # gamma_to_Gamma once read 10**400 as inf, and the two checks raised an
    # OverflowError
    z = tensor_from_kernel(np.eye(4) / 4, 2, 2)
    t = rng_for("homog-factor").normal(size=(2, 2, 2))
    calls = {
        "gamma_upper must be nonnegative": lambda v: gamma_to_Gamma(z, v, BUDGET, (1,)),
        "known_pi1cb must be nonnegative":
            lambda v: chain_check(associated_map(np.eye(4) / 4, 2, 2), v, BUDGET, (1,)),
        "factor must be positive and finite":
            lambda v: weight_homogeneity_check(t, v, split=rplus2c_split(t)),
    }
    for message, call in calls.items():
        with pytest.raises(ValidationError, match=message) as err:
            call(10**400)
        assert str(err.value).endswith("got " + "1" + "0" * 36 + "...")


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 2)])
def test_tensor_from_kernel_checks_the_kernel_shape(shape):
    with pytest.raises(ValidationError, match=r"does not match registers \(2,2\)"):
        tensor_from_kernel(np.zeros(shape), 2, 2)


def test_constants():
    assert MAB_FACTORIZATION_CONSTANT == pytest.approx(4 * math.sqrt(2))
    assert CB_VS_SUMMING_CONSTANT == pytest.approx(8 * math.sqrt(2))


@pytest.mark.parametrize("x_kind", ["dual", "matrix"])
@pytest.mark.parametrize("y_kind", ["dual", "matrix"])
def test_gamma_factor_norms_bound_the_returned_factors(x_kind, y_kind):
    # BUDGET has at most six restarts, so it is the budget gamma_rc_upper
    # evaluates its factors with
    for trial in range(3):
        rng = rng_for("gamma-factor-norms", trial)
        coeff = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z = TensorElement(Space(x_kind, 2), Space(y_kind, 2), coeff)
        res = gamma_rc_upper(z, BUDGET)
        x_norm = rc_norm(res.xs) if x_kind == "matrix" else dual_tuple_cap(res.xs)
        y_norm = tuple_rplus2c_upper_in_space(res.ys, z.Y, BUDGET)
        assert res.x_norm_upper >= x_norm * (1 - 1e-12)
        assert res.y_norm_upper >= y_norm * (1 - 1e-12)
        assert res.x_norm_upper * res.y_norm_upper == pytest.approx(res.gamma_upper, rel=1e-12)


@pytest.mark.parametrize("scale", [2.0**-600, 1.0, 2.0**600], ids=["tiny", "unit", "huge"])
@pytest.mark.parametrize("nx, ny", [(2, 2), (2, 3), (3, 1)])
def test_a_search_step_gives_the_public_norms_exactly(nx, ny, scale):
    # a step takes its caps in one stacked call, each tuple at its own scale,
    # and reads the same numbers as the public routines, bit for bit
    rng = rng_for("gamma-step", nx, ny)
    xs = scale * (rng.normal(size=(3, nx, nx)) + 1j * rng.normal(size=(3, nx, nx)))
    ys = rng.normal(size=(3, ny, ny)) + 1j * rng.normal(size=(3, ny, ny))
    z = TensorElement(dual_space(nx), dual_space(ny), np.zeros((nx * nx, ny * ny)))
    for budget in (BUDGET, SolverBudget(restarts=9, max_sweeps=1, seed=2)):
        fracs = qxor.factor._split_fractions(budget, 3)
        val, xn, yn = qxor.factor._gamma_objective(z, xs, ys, fracs)
        assert xn == dual_tuple_cap(xs)
        assert yn == tuple_rplus2c_upper_in_space(ys, z.Y, budget)
        assert val == xn * yn


def test_the_search_draws_its_splits_once_and_converts_no_array(monkeypatch):
    # every step used to draw the same split fractions again and to convert
    # its own factors through as_matrix
    calls = Counter()
    rng, as_matrix = SolverBudget.rng, qxor.linalg.as_matrix

    def counted_rng(self, *key):
        calls[key] += 1
        return rng(self, *key)

    def counted_as_matrix(m):
        calls["as_matrix"] += 1
        return as_matrix(m)

    monkeypatch.setattr(SolverBudget, "rng", counted_rng)
    for module in vars(qxor).values():
        if getattr(module, "as_matrix", None) is as_matrix:
            monkeypatch.setattr(module, "as_matrix", counted_as_matrix)
    budget = SolverBudget(restarts=3, max_sweeps=60, seed=0)
    k = random_game(2, 2, seed=5).G
    for e, at_entry in ((0, 0), (1010, 1)):  # past 2**1000 the entry rescales z once
        z = tensor_from_kernel(qxor.linalg.pow2_times(k, e), 2, 2)
        calls.clear()
        res = gamma_rc_upper(z, budget)
        assert res.evaluations == 13
        assert calls == Counter({("gamma",): 1, ("dual-split",): 1, "as_matrix": at_entry})
