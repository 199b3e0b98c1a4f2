import itertools
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gue, random_unitary, rng_for, swap_matrix
from qxor.bounds import BoundInterval
from qxor.budget import SolverBudget
from qxor.factor import exhaustive_sign_one_norm
from qxor.config import MonotonicityError, ValidationError
from qxor.games import (
    EntangledStrategy,
    OwcStrategy,
    ProductStrategy,
    QuantumXorGame,
    associated_map,
    bias_of,
    chsh,
    diagonal_game,
    product_state_game,
    random_game,
    swap_game,
)
from qxor.linalg import partial_contract_A, sign_hermitian, zero_pad
from qxor.maps import KernelMap, VectorMap, dual_space, full_matrix_space
from qxor import opnorms, solvers
from qxor.opnorms import cb_norm_bounds
from qxor.solvers import (
    HierarchyReport,
    analyze_game,
    beta_entangled,
    beta_entangled_schedule,
    beta_owc,
    beta_owc_schedule,
    beta_owq,
    beta_product,
    pi1cb_bounds,
    pi1o_exact,
)

BUDGET = SolverBudget(restarts=6, max_sweeps=120, seed=11)


def diagonal_sign_oracle(M) -> float:
    """Best product bias of a diagonal game by exhausting sign observables;
    diagonal games only see the observable diagonals, whose extreme points
    are signs."""
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    best = -np.inf
    for s in itertools.product((-1, 1), repeat=n):
        for t in itertools.product((-1, 1), repeat=m):
            best = max(best, float(np.einsum("i,ij,j->", s, M, t)))
    return best


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan)])
def test_a_nan_interval_endpoint_is_rejected(lower, upper):
    with pytest.raises(ValueError, match="must not be NaN"):
        BoundInterval(lower, upper, "l", "u")


def test_an_interval_lower_may_pass_its_upper_only_by_the_slack():
    # the slack is 1e-9 times max(1, |lower|)
    with pytest.raises(ValueError, match="invalid interval"):
        BoundInterval(1 + 2e-9, 1.0, "l", "u")
    with pytest.raises(ValueError, match="invalid interval"):
        BoundInterval(-2.0, -2.0 - 3e-9, "l", "u")
    assert BoundInterval(1 + 5e-10, 1.0, "l", "u").lower == 1 + 5e-10
    assert BoundInterval(-2.0, -2.0 - 1.5e-9, "l", "u").upper == -2.0 - 1.5e-9


def test_an_infinite_interval_upper_is_written_as_none():
    assert BoundInterval(0.5, math.inf, "l", "u").to_dict() == {
        "lower": 0.5, "upper": None, "lower_method": "l", "upper_method": "u"}


def test_beta_owq_gallery():
    assert beta_owq(swap_game(2)) == pytest.approx(1.0, abs=1e-12)
    assert beta_owq(swap_game(3)) == pytest.approx(1.0, abs=1e-12)
    assert beta_owq(chsh()) == pytest.approx(1.0, abs=1e-12)
    rng = rng_for("owq-ps")
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a).real
    assert beta_owq(product_state_game(rho_a, np.eye(3) / 3)) == pytest.approx(1.0, abs=1e-10)


def test_owq_witness_attains_trace_norm():
    g = random_game(2, 2, seed=21)
    x = sign_hermitian(g.G)
    assert np.trace(g.G @ x).real == pytest.approx(beta_owq(g), abs=1e-10)


def test_beta_product_chsh_matches_sign_oracle():
    oracle = diagonal_sign_oracle(np.array([[1.0, 1.0], [1.0, -1.0]]) / 4)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    res = beta_product(chsh(), BUDGET)
    assert res.interval.lower == pytest.approx(oracle, abs=1e-6)


def test_beta_product_product_state_and_swap():
    rng = rng_for("bp-states")
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a).real
    res = beta_product(product_state_game(rho_a, np.eye(2) / 2), BUDGET)
    assert res.interval.lower == pytest.approx(1.0, abs=1e-8)
    # contractions satisfy |tr(AB)| <= n, attained at the identity pair
    for n in (2, 3):
        res = beta_product(swap_game(n), BUDGET)
        assert res.interval.lower == pytest.approx(1.0 / n, abs=1e-6)


def test_beta_product_upper_routes():
    res = beta_product(chsh(), BUDGET)
    assert res.interval.upper <= 1.0 + 1e-12
    if res.assisted_stabilized:
        assert res.interval.upper == pytest.approx(
            min(1.0, math.sqrt(2) * res.assisted_norm_estimate), abs=1e-9
        )


def test_sqrt2_assisted_norm_upper_keeps_its_margin():
    # the conditional upper bound is reported on seeded 3x3 games and stays
    # well above a much longer product search there (measured ratio 1.41);
    # on seed 504 the complex see-saw's winner stops at the sweep cap with
    # no other start near it, so the estimate is not stabilized
    for k in range(6):
        g = random_game(3, 3, seed=500 + k)
        res = beta_product(g, SolverBudget(restarts=3, max_sweeps=60, seed=0))
        if k == 4:
            assert res.interval.upper_method == "beta_owq"
            assert not res.assisted_stabilized
            continue
        assert res.interval.upper_method == "sqrt2_assisted_norm"
        long = beta_product(g, SolverBudget(restarts=40, max_sweeps=150, seed=1))
        assert res.interval.upper >= 1.2 * long.interval.lower


def test_assisted_stabilized_needs_a_second_start_at_the_winners_value(monkeypatch):
    # C4's r45: only the warm start reaches 0.63699, so the estimate is not
    # stabilized although every start of the complex see-saw converged
    outs = {}
    core = solvers._product_core

    def traced(game, budget, hermitian, key, **kw):
        outs[key] = core(game, budget, hermitian, key, **kw)
        return outs[key]

    monkeypatch.setattr(solvers, "_product_core", traced)
    res = beta_product(random_game(2, 2, seed=1045), C4_BUDGET)
    assert not res.assisted_stabilized
    assert res.interval.upper_method == "beta_owq"
    trace = outs["prod-c"][3]
    best = trace.values[trace.winner]
    assert trace.stop_reasons[trace.winner] == "converged"
    assert all(abs(v - best) > 1e-6 * max(1.0, abs(best))
               for i, v in enumerate(trace.values) if i != trace.winner)


def test_contraction_value_matches_partial_contraction():
    rng = rng_for("contraction-value")
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        g = random_game(n, m, seed=rng)
        for _ in range(3):
            a, b = random_unitary(n, rng), random_unitary(m, rng)
            val = solvers._contraction_value(g, a, b)
            ref = float(np.real(np.trace(partial_contract_A(g.G, a, n, m) @ b)))
            assert val == pytest.approx(ref, abs=1e-12)
            # factors are scaled back to contractions before the evaluation
            assert solvers._contraction_value(g, 2 * a, b) == pytest.approx(val, abs=1e-12)


def test_beta_entangled_chsh_tsirelson():
    res = beta_entangled(chsh(), 2, 2, BUDGET)
    assert res.interval.lower >= math.sqrt(2) / 2 - 1e-4
    # the standard minimizer argument caps correlations at sqrt(2)/2
    assert res.interval.lower <= math.sqrt(2) / 2 + 1e-6


def tsirelson_value(M) -> float:
    """Entangled bias of the classical 2 x m XOR game ``M``: the maximum over
    the cosine ``c`` between Alice's two unit vectors of
    ``sum_j |M_1j u_1 + M_2j u_2|``, a concave function of ``c`` that a
    ternary search maximizes."""
    def f(c):
        return sum(math.sqrt(max(0.0, x * x + y * y + 2 * x * y * c)) for x, y in zip(*M))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (a, hi) if f(a) < f(b) else (lo, b)
    return f((lo + hi) / 2)


@pytest.fixture(scope="module")
def two_row_classical_games():
    """``(M, row)`` of 120 classical 2 x m games on the diagonal, each with
    ``sum |M| = 1/1.1``, and their :func:`analyze_game` rows."""
    rng = np.random.default_rng(11)
    budget = SolverBudget(restarts=3, max_sweeps=60, seed=0)
    out = []
    for k in range(120):
        m = int(rng.integers(2, 5))
        M = rng.uniform(-1, 1, (2, m))
        M /= 1.1 * np.abs(M).sum()
        out.append((M, analyze_game(diagonal_game(M), f"d{k}", budget, (1,), ((1, 1), (2, 2)))))
    return out


def test_the_product_lower_of_a_classical_game_is_its_sign_oracle(two_row_classical_games):
    for M, row in two_row_classical_games:
        assert row.beta_product.lower == pytest.approx(exhaustive_sign_one_norm(M), rel=1e-9)


def test_the_entangled_lower_of_a_two_row_game_stays_under_tsirelson(two_row_classical_games):
    # one game of the 120 (index 6) ends 1.8% short of its value: a lower
    # bound, so only the upper side is asserted
    for M, row in two_row_classical_games:
        assert row.beta_entangled.lower <= tsirelson_value(M) * (1 + 1e-9), row.game_id


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def icosphere(levels: int) -> tuple[np.ndarray, float]:
    """``(points, rho)``: the vertices of the icosahedron subdivided
    ``levels`` times, each edge midpoint projected onto the unit sphere, and
    the smallest distance from the origin to a facet plane. The facets tile
    the sphere radially, so their hull holds the ball of radius ``rho``."""
    t = (1 + math.sqrt(5)) / 2
    points = [p / np.linalg.norm(p) for p in np.array(
        [[-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0], [0, -1, t], [0, 1, t],
         [0, -1, -t], [0, 1, -t], [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]])]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9),
             (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2),
             (3, 2, 6), (3, 6, 8), (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10),
             (8, 6, 7), (9, 8, 1)]
    for _ in range(levels):
        middle = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in middle:
                p = points[i] + points[j]
                points.append(p / np.linalg.norm(p))
                middle[key] = len(points) - 1
            return middle[key]

        faces = [f for a, b, c in faces
                 for f in ((a, mid(a, b), mid(c, a)), (b, mid(b, c), mid(a, b)),
                           (c, mid(c, a), mid(b, c)), (mid(a, b), mid(b, c), mid(c, a)))]
    p = np.array(points)
    tri = p[np.array(faces)]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    rho = np.abs(np.einsum("fx,fx->f", normal, tri[:, 0])) / np.linalg.norm(normal, axis=1)
    return p, float(rho.min())


@pytest.fixture(scope="module")
def two_by_two_product_oracles():
    """``(label, result, lower, upper)`` of :func:`beta_product` on 240
    random 2 x 2 games, with the exact oracle's bracket. Alice's Hermitian
    contractions are the hull of ``+-I`` and ``v . sigma`` for unit ``v``,
    so the product bias is the larger of ``||D(I)||_1`` and the maximum of
    the seminorm ``f(v) = ||D(v . sigma)||_1`` on the sphere, where ``D(A)``
    is the game contracted with ``A`` on Alice's register. Over the
    icosphere, ``max f / rho`` bounds that maximum above. Below, the better
    of two witnesses: Alice's ``I`` and her best point, each with Bob's
    spectral sign of ``D(A)``."""
    points, rho = icosphere(4)
    assert points.shape == (2562, 3) and rho == pytest.approx(0.998862, abs=5e-7)
    out = []
    for s in range(6):
        budget = SolverBudget(restarts=3, max_sweeps=60, seed=s)
        for i in range(40):
            g = random_game(2, 2, np.random.SeedSequence([s, i]))
            g4 = g.G.reshape(2, 2, 2, 2)
            d = np.einsum("ikjl,xji->xkl", g4, PAULIS)
            f = np.abs(np.linalg.eigvalsh(np.einsum("px,xkl->pkl", points, d))).sum(axis=1)
            d_id = np.einsum("ikil->kl", g4)
            upper = max(np.abs(np.linalg.eigvalsh(d_id)).sum(), f.max() / rho)
            lower = -np.inf
            for a in (np.eye(2), np.einsum("x,xkl->kl", points[f.argmax()], PAULIS)):
                w, u = np.linalg.eigh(np.einsum("ikjl,ji->kl", g4, a))
                b = (u * np.where(w < 0, -1.0, 1.0)) @ u.conj().T
                lower = max(lower, bias_of(g, ProductStrategy(a, b)))
            out.append((f"s={s}, i={i}", beta_product(g, budget), lower, upper))
    return out


def test_the_product_lower_of_a_2x2_game_stays_under_its_oracle(two_by_two_product_oracles):
    # a lower bound: 3 of the 240 fall short of the oracle's lower by more
    # than 1e-6, the worst (s=4, i=28) by 21%, so only this side is asserted
    for label, res, _, upper in two_by_two_product_oracles:
        assert res.interval.lower <= upper * (1 + 1e-12), label


def test_the_product_upper_of_a_2x2_game_stays_over_its_oracle(two_by_two_product_oracles):
    # the conditional sqrt2_assisted_norm uppers are included
    tags = [res.interval.upper_method for _, res, _, _ in two_by_two_product_oracles]
    assert "sqrt2_assisted_norm" in tags
    for label, res, lower, _ in two_by_two_product_oracles:
        assert res.interval.upper >= lower * (1 - 1e-12), label


@pytest.mark.parametrize("n", [3, 4])
def test_the_product_upper_of_a_larger_game_stays_over_a_restarts_80_witness(n):
    # The reference is the value of the product witness at 80 restarts, a
    # lower bound on the product bias, so every product upper (the
    # conditional sqrt2_assisted_norm ones included) must stay above it.
    # The full sets take i in 0-39; this is their prefix i in 0-9. The
    # shipped lowers may fall short of the reference: they are logged only.
    tags, short = [], []
    for s in (1, 2, 3):
        for i in range(10):
            g = random_game(n, n, np.random.SeedSequence([s, 100 + i]))
            res = beta_product(g, SolverBudget(restarts=3, max_sweeps=60, seed=s))
            wide = SolverBudget(restarts=80, max_sweeps=60, seed=s)
            reference = bias_of(g, solvers._product_witness(g, wide))
            assert res.interval.upper >= reference * (1 - 1e-12), (s, i)
            tags.append(res.interval.upper_method)
            if res.interval.lower < reference - 1e-6:
                short.append((s, i, 1 - res.interval.lower / reference))
    assert "sqrt2_assisted_norm" in tags
    logging.getLogger(__name__).info("%d x %d: %d of 30 product lowers short of the "
                                     "restarts-80 witness by more than 1e-6: %s", n, n,
                                     len(short), short)


def test_beta_entangled_trivial_ancilla_matches_product():
    g = random_game(2, 2, seed=33)
    ent = beta_entangled(g, 1, 1, BUDGET)
    prod = beta_product(g, BUDGET)
    # the (1, 1) rung is the product witness, so only bias_of's rounding differs
    assert ent.interval.lower == pytest.approx(prod.interval.lower, rel=1e-12)


def test_beta_entangled_product_state_game():
    rng = rng_for("be-ps")
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a).real
    res = beta_entangled(product_state_game(rho_a, np.eye(2) / 2), 2, 2, BUDGET)
    assert res.interval.lower == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n,m,dA,dB", [(2, 3, 1, 2), (3, 2, 3, 4), (2, 2, 4, 1)])
def test_entangled_kernels_match_einsum(n, m, dA, dB):
    # the see-saw's matrix products against the plain tensor contractions
    rng = rng_for("ent-kernels", n, m, dA, dB)
    g, a, b, rho = gue(n * m, rng), gue(n * dA, rng), gue(m * dB, rng), gue(dA * dB, rng)
    g4, a4 = g.reshape(n, m, n, m), a.reshape(n, dA, n, dA)
    b4, rho4 = b.reshape(m, dB, m, dB), rho.reshape(dA, dB, dA, dB)
    eff, alice, bob = solvers._entangled_kernels(g4, dA, dB)
    expected = np.einsum("iajc,kbld,jlik->abcd", a4, b4, g4).reshape(dA * dB, dA * dB)
    assert np.abs(eff(a, b) - expected).max() <= 1e-12
    expected = np.einsum("kbld,jlik,cdab->jcia", b4, g4, rho4).reshape(n * dA, n * dA)
    assert np.abs(alice(b, rho) - expected).max() <= 1e-12
    expected = np.einsum("iajc,jlik,cdab->ldkb", a4, g4, rho4).reshape(m * dB, m * dB)
    assert np.abs(bob(a, rho) - expected).max() <= 1e-12
    # the sweep value, Re tr(db B)
    value = np.real(np.sum(bob(a, rho) * b.T))
    assert value == pytest.approx(
        np.real(np.einsum("iajc,kbld,jlik,cdab->", a4, b4, g4, rho4)), abs=1e-12)


def test_entangled_kernels_take_a_batch():
    # three inputs in one call against the kernels applied to each alone
    n, m, dA, dB = 3, 2, 2, 3
    rng = rng_for("ent-kernels-batch")
    g4 = gue(n * m, rng).reshape(n, m, n, m)
    a, b, rho = (np.stack([gue(k, rng) for _ in range(3)]) for k in (n * dA, m * dB, dA * dB))
    eff, alice, bob = solvers._entangled_kernels(g4, dA, dB)
    for stacked, single in (
        (eff(a, b), [eff(a[i], b[i]) for i in range(3)]),
        (alice(b, rho), [alice(b[i], rho[i]) for i in range(3)]),
        (bob(a, rho), [bob(a[i], rho[i]) for i in range(3)]),
    ):
        assert stacked.shape == (3,) + single[0].shape
        assert np.abs(stacked - np.stack(single)).max() <= 1e-12


def test_beta_owc_d1_equals_product_shared_seeds():
    for seed in (1, 2, 3):
        g = random_game(2, 2, seed=seed)
        budget = SolverBudget(restarts=4, max_sweeps=80, seed=5 * seed)
        assert (
            beta_owc(g, 1, budget).interval.lower
            == beta_product(g, budget).interval.lower
        )


def test_beta_owc_chsh_measure_and_forward():
    # explicit protocol: Alice measures her basis, forwards the index, and
    # answers +1; Bob answers the sign of the coefficient row
    g = chsh()
    e_plus = np.zeros((2, 2, 2), dtype=complex)
    e_plus[0, 0, 0] = 1.0
    e_plus[1, 1, 1] = 1.0
    e_minus = np.zeros((2, 2, 2), dtype=complex)
    m_signs = np.sign(np.array([[1.0, 1.0], [1.0, -1.0]]))
    obs = np.stack([np.diag(m_signs[k]).astype(complex) for k in range(2)])
    protocol = OwcStrategy(2, e_plus, e_minus, obs)
    assert bias_of(g, protocol) == pytest.approx(1.0, abs=1e-12)
    res = beta_owc(g, 2, BUDGET)
    assert res.interval.lower >= 1 - 1e-6
    assert res.interval.lower <= 1 + 1e-9


def test_beta_owc_swap_warm_start_dominance():
    for n in (2, 3):
        g = swap_game(n)
        prod = beta_product(g, BUDGET)
        owc = beta_owc(g, 1, BUDGET)
        assert owc.interval.lower >= prod.interval.lower - 1e-12
        assert owc.interval.lower >= 1.0 / n - 1e-6


def random_instrument(j, n, rng):
    x = rng.normal(size=(j, n, n)) + 1j * rng.normal(size=(j, n, n))
    return solvers._normalize_instrument(x @ x.conj().transpose(0, 2, 1))


def instrument_value(h, e):
    return float(np.real(np.einsum("kab,kba->", h, e)))


def assert_instrument(e, tol=1e-12):
    assert np.abs(e - e.conj().transpose(0, 2, 1)).max() <= tol
    assert min(np.linalg.eigvalsh(e).min(), 0.0) >= -tol
    assert np.abs(e.sum(axis=0) - np.eye(e.shape[1])).max() <= tol


def test_normalize_instrument_is_exact():
    rng = rng_for("owc-normalize")
    for j, n in ((2, 2), (4, 3), (8, 4)):
        assert_instrument(random_instrument(j, n, rng))


def test_instrument_gap_weak_duality():
    # value + gap is the value of a dual-feasible point, so no instrument,
    # the fixed point's included, can exceed it
    rng = rng_for("owc-gap")
    for trial in range(20):
        j, n = 2 * int(rng.integers(1, 4)), int(rng.integers(2, 5))
        h = np.stack([gue(n, rng) for _ in range(j)])
        e = random_instrument(j, n, rng)
        val, gap = solvers._instrument_gap(h, e)
        assert gap >= -1e-12
        assert val == pytest.approx(instrument_value(h, e), abs=1e-12)
        best = solvers._instrument_fixed_point(h, e, BUDGET.tol)
        for other in (random_instrument(j, n, rng), best):
            assert instrument_value(h, other) <= val + gap + 1e-12


def test_instrument_fixed_point_from_zero_padded_warm_start():
    rng = rng_for("owc-warm")
    n = 3
    prev = random_instrument(2, n, rng)
    warm = np.concatenate([zero_pad(prev[:1], (2, n, n)), zero_pad(prev[1:], (2, n, n))])
    h = np.stack([gue(n, rng) for _ in range(4)])
    best = solvers._instrument_fixed_point(h, warm, BUDGET.tol)
    assert_instrument(best)
    assert instrument_value(h, best) >= instrument_value(h, warm)


def test_instrument_fixed_point_grows_a_zero_block():
    # the start never uses block 2, which is the best answer on |1>; a
    # multiplicative update from the start itself could not move
    h = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0]),
                  np.zeros((2, 2))]).astype(complex)
    start = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2)),
                      np.zeros((2, 2))]).astype(complex)
    best = solvers._instrument_fixed_point(h, start, BUDGET.tol)
    assert_instrument(best)
    assert instrument_value(h, start) == pytest.approx(1.0)
    assert instrument_value(h, best) == pytest.approx(2.0, abs=1e-6)
    assert solvers._instrument_gap(h, best)[1] <= 1e-6


def test_instrument_fixed_point_stays_between_the_start_and_its_dual_bound():
    # the extrapolated points are clipped back to instruments, so from any
    # start and at any tolerance the result is an exact instrument, no worse
    # than the start and no better than the start's value plus its dual gap;
    # the 1e-12 slack covers the two contraction orders that evaluate a value
    rng = rng_for("owc-bracket")
    for j, n in ((4, 2), (6, 3), (8, 4)):
        vecs = rng.normal(size=(j, n, 1)) + 1j * rng.normal(size=(j, n, 1))
        signs = rng.choice([-1.0, 1.0], size=(j, 1, 1))
        objectives = {
            "random": np.stack([gue(n, rng) for _ in range(j)]),
            "zero-padded": zero_pad(np.stack([gue(n - 1, rng) for _ in range(j)]), (j, n, n)),
            "rank-one": signs * vecs @ vecs.conj().transpose(0, 2, 1),
        }
        starts = (random_instrument(j, n, rng),
                  np.concatenate([random_instrument(j // 2, n, rng),
                                  np.zeros((j - j // 2, n, n), dtype=complex)]))
        tols = (BUDGET.tol, 1e-2, 0.5)
        for (kind, h), e, tol in itertools.product(objectives.items(), starts, tols):
            val, gap = solvers._instrument_gap(h, e)
            best = solvers._instrument_fixed_point(h, e, tol)
            assert_instrument(best)
            assert instrument_value(h, e) - 1e-12 <= instrument_value(h, best), (kind, j, n)
            assert instrument_value(h, best) <= val + gap + 1e-12, (kind, j, n)


def test_instrument_fixed_point_logs_a_solve_that_stops_at_its_cap(monkeypatch, caplog):
    # one cycle of three evaluations cannot close the gap to 1e-12
    monkeypatch.setattr(solvers, "_FIXED_POINT_ITERS", 3)
    caplog.set_level(logging.DEBUG, logger="qxor.solvers")
    rng = rng_for("owc-cap")
    h = np.stack([gue(2, rng) for _ in range(4)])
    start = np.stack([np.eye(2, dtype=complex) / 4] * 4)
    best = solvers._instrument_fixed_point(h, start, 1e-12)
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert sum("stopped at its cap of 3 evaluations" in msg for msg in messages) == 1
    assert_instrument(best)
    assert instrument_value(h, best) >= instrument_value(h, start)


C4_BUDGET = SolverBudget(restarts=3, max_sweeps=60, seed=4)


def test_owc_inner_solves_are_extrapolated(monkeypatch):
    # every fixed-point step and every clip normalises one instrument; the
    # squared extrapolation needs 643 normalisations here, the plain
    # fixed point took 1286
    calls = []
    normalize = solvers._normalize_instrument

    def counted(x):
        calls.append(x.shape)
        return normalize(x)

    monkeypatch.setattr(solvers, "_normalize_instrument", counted)
    beta_owc(random_game(2, 2, seed=5), 2, C4_BUDGET)
    assert len(calls) <= 770


def test_owc_logs_the_tight_redo_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="qxor")
    beta_owc(random_game(2, 2, seed=5), 2, C4_BUDGET)
    messages = [r.getMessage() for r in caplog.records if r.name == "qxor.solvers"]
    assert any(re.fullmatch(r"owc sweep at d=2 redoes [1-9]\d* of \d+ loose rows tight", m)
               for m in messages), messages


def test_owc_debug_records_stay_off_stderr_without_logging_configured():
    # the records are made (the logger is at DEBUG) but only the package's
    # NullHandler sees them
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (f"import sys, logging; sys.path[:0] = [{str(src)!r}]\n"
             "from qxor.budget import SolverBudget\n"
             "from qxor.games import random_game\n"
             "from qxor.solvers import beta_owc\n"
             "logging.getLogger('qxor').setLevel(logging.DEBUG)\n"
             "beta_owc(random_game(2, 2, seed=5), 2, SolverBudget(restarts=3, max_sweeps=60, seed=4))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stderr == ""


def test_owc_loose_sweep_that_stalls_is_redone_tight():
    # on this game a loose inner solve stalls in a sweep; taken as the
    # see-saw's stop, that start would end early and the bound at 0.78352
    g = random_game(2, 2, seed=5)
    assert beta_owc(g, 2, C4_BUDGET).interval.lower >= 0.78999


def test_an_owc_sweep_contracts_the_whole_stack_at_once(monkeypatch, caplog):
    # Bob's contraction of an instrument stack (rows, 2d, n, n): "B"; an
    # inner solve "F", which is a tight redo "R" once the sweep has logged
    # that it redoes rows
    events, rows, traces = [], [], []
    to_bob, fixed_point, seesaw = solvers._to_bob, solvers._instrument_fixed_point, solvers.seesaw

    def counted_to_bob(g4, a):
        if a.ndim == 4:  # the product see-saw contracts stacks (rows, n, n)
            events.append("B")
            rows.append(a.shape[0])
        return to_bob(g4, a)

    def counted_fixed_point(h, e, tol):
        events.append("F")
        return fixed_point(h, e, tol)

    def traced(*args, **kw):
        out = seesaw(*args, **kw)
        traces.append(out[2])
        return out

    class Redoes(logging.Handler):
        def emit(self, record):
            if "redoes" in record.getMessage():
                events.append("|")

    monkeypatch.setattr(solvers, "_to_bob", counted_to_bob)
    monkeypatch.setattr(solvers, "_instrument_fixed_point", counted_fixed_point)
    monkeypatch.setattr(solvers, "seesaw", traced)
    caplog.set_level(logging.DEBUG, logger="qxor.solvers")
    logger, handler = logging.getLogger("qxor.solvers"), Redoes()
    logger.addHandler(handler)
    try:
        beta_owc(random_game(2, 2, seed=5), 2, C4_BUDGET)
    finally:
        logger.removeHandler(handler)
    log = re.sub(r"\|(F+)", lambda redo: "R" * len(redo.group(1)), "".join(events))
    # one contraction for the starts, then per sweep one for the stack and
    # one more for the rows it redoes
    assert re.fullmatch(r"B(F+B(R+B)?)+", log), log
    # each contraction takes the rows solved just before it, all at once
    assert [len(solves) for solves in re.findall(r"[FR]+", log)] == rows[1:]
    # the see-saw's sweeps and the winner's final tight solve
    assert len(re.findall(r"F+B", log)) == max(traces[-1].sweeps) + 1
    assert "R" in log
    assert rows[1] >= 2 and rows[-1] == 1


def test_a_sweep_that_loses_value_raises(monkeypatch):
    # no sweep keeps a start's old state: a drop reaches the driver's
    # monotonicity guard, whether the instrument or a polar step is wrong
    def uniform(h, e, *_):
        return np.broadcast_to(np.eye(e.shape[-1]) / e.shape[0], e.shape).astype(complex)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_instrument_fixed_point", uniform)
        with pytest.raises(MonotonicityError):
            beta_owc(random_game(2, 2, seed=5), 2, C4_BUDGET)
    monkeypatch.setattr(opnorms, "polar_stack", np.zeros_like)
    vm = VectorMap(([1.0, 0.5], [0.0, 1.0], [0.5, -0.5]))
    with pytest.raises(MonotonicityError):
        cb_norm_bounds(vm, (1, 2), C4_BUDGET)


def test_the_solvers_leave_the_validated_contractions_to_bias_of():
    # bias_of re-evaluates every witness on a path that no optimizer uses
    assert not hasattr(solvers, "partial_contract_A")


def test_owc_three_messages_on_c4_games():
    # r20: a three-outcome instrument beats the two-message value 0.872636,
    # found by the extra random start at d >= 3
    r20 = beta_owc_schedule(random_game(2, 2, seed=1020), (1, 2, 3), C4_BUDGET)[-1]
    assert r20.interval.lower >= 0.87383
    # r32: the winner's final tight sweep brings its dual gap under 1e-4,
    # with room to spare once the see-saw runs the budget's 60 sweeps
    r32 = beta_owc_schedule(random_game(2, 2, seed=1032), (1, 2, 3), C4_BUDGET)[-1]
    assert r32.instrument_converged
    assert r32.duality_gap <= 5e-5


def test_beta_owc_monotone_in_messages():
    g = random_game(2, 2, seed=44)
    results = beta_owc_schedule(g, (1, 2, 4), BUDGET)
    lows = [r.interval.lower for r in results]
    assert all(lows[i] <= lows[i + 1] + 1e-8 for i in range(len(lows) - 1))


def test_beta_entangled_monotone_in_ancillas():
    g = random_game(2, 2, seed=45)
    results = beta_entangled_schedule(g, ((1, 1), (2, 2), (3, 3)), BUDGET)
    lows = [r.interval.lower for r in results]
    assert all(lows[i] <= lows[i + 1] + 1e-8 for i in range(len(lows) - 1))


def test_all_lower_bounds_below_owq():
    for seed in range(6):
        g = random_game(2, 2, seed=100 + seed)
        owq = beta_owq(g)
        small = SolverBudget(restarts=3, max_sweeps=60, seed=seed)
        assert beta_product(g, small).interval.lower <= owq + 1e-8
        assert beta_entangled(g, 2, 2, small).interval.lower <= owq + 1e-8
        assert beta_owc(g, 2, small).interval.lower <= owq + 1e-8


def test_claim_sqrt2_consistency():
    # the associated-map norm sits between the sign bias and sqrt(2) times it
    for seed in range(20):
        g = random_game(2, 2, seed=200 + seed)
        res = beta_product(g, SolverBudget(restarts=50, max_sweeps=150, seed=seed))
        herm = res.interval.lower
        cplx = res.assisted_norm_estimate
        assert herm <= cplx + 1e-9
        assert cplx <= math.sqrt(2) * herm + 5e-3


def test_owc_lower_vs_known_summing_values():
    # gallery families with analytically known (1, cb)-summing values: the
    # one-way bias may undershoot them by at most the factor four
    budget = SolverBudget(restarts=5, max_sweeps=100, seed=77)
    for n in (2, 3):
        g = swap_game(n)
        known = 1.0 / n  # transpose kernel scaled to unit trace norm
        owc = beta_owc_schedule(g, (1, 2), budget)
        best = max(r.interval.lower for r in owc)
        assert best >= known / 4 - 1e-6
    M = np.array([[0.3, -0.2], [0.1, 0.25]])
    g = diagonal_game(M)
    known = float(np.abs(M).sum())
    owc = beta_owc_schedule(g, (1, 2), budget)
    best = max(r.interval.lower for r in owc)
    assert best >= known / 4 - 1e-6


def test_swap_family_no_communication_advantage():
    # for the swap family the one-way-classical and entangled witnesses both
    # settle at the product value 1/n: messages buy nothing here
    budget = SolverBudget(restarts=5, max_sweeps=100, seed=19)
    for n in (2, 3):
        g = swap_game(n)
        owc = beta_owc_schedule(g, (1, 2, n), budget)
        ent = beta_entangled_schedule(g, ((1, 1), (2, 2)), budget)
        best_owc = max(r.interval.lower for r in owc)
        assert best_owc == pytest.approx(1.0 / n, abs=1e-6)
        assert ent[-1].interval.lower == pytest.approx(1.0 / n, abs=1e-6)


def test_pi1o_values():
    for n in (2, 3):
        tau = associated_map(swap_matrix(n), n, n)
        assert pi1o_exact(tau) == pytest.approx(n * n, abs=1e-8)
    g = random_game(2, 2, seed=7)
    assert pi1o_exact(g) == pytest.approx(beta_owq(g), abs=1e-12)
    M = np.array([[0.3, -0.2], [0.1, 0.25]])
    assert pi1o_exact(diagonal_game(M)) == pytest.approx(np.abs(M).sum(), abs=1e-10)


def test_summing_norms_reject_a_map_into_matrices():
    # the summing norms read a kernel as a game, which is a map into trace
    # class; the same kernel into M_2 is a different map
    tau = associated_map(swap_matrix(2), 2, 2)
    into_matrix = KernelMap(full_matrix_space(2), full_matrix_space(2), tau.kernel)
    with pytest.raises(ValidationError, match="trace class"):
        pi1o_exact(into_matrix)
    with pytest.raises(ValidationError, match="trace class"):
        pi1cb_bounds(into_matrix, (1,), BUDGET)
    assert pi1o_exact(tau) == pytest.approx(4.0, abs=1e-8)


def test_pi1cb_bounds_names_the_hermitian_kernel_it_needs():
    # pi1o is the trace norm of any kernel; pi1cb reads the kernel as a game
    rng = np.random.default_rng(0)
    k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = KernelMap(full_matrix_space(2), dual_space(2), k)
    assert pi1o_exact(u) == pytest.approx(7.966, abs=1e-3)
    with pytest.raises(ValidationError,
                       match="^pi1cb_bounds needs a Hermitian kernel, that is a game up to scale; "
                             "matrix is not Hermitian"):
        pi1cb_bounds(u, (1,), BUDGET)


def test_pi1o_rejects_a_bare_matrix():
    # a matrix names no map: it is neither a game nor a map into trace class
    with pytest.raises(ValidationError, match="expected a QuantumXorGame or KernelMap"):
        pi1o_exact(np.eye(4))


def test_pi1cb_transpose_bracket():
    for n in (2, 3):
        tau = associated_map(swap_matrix(n), n, n)
        res = pi1cb_bounds(tau, (1, 2), BUDGET)
        assert res.interval.lower >= n - 1e-6
        assert res.interval.upper <= n * n + 1e-8
        assert res.interval.lower_method == "owc_and_assisted_norm"


def test_pi1cb_lower_takes_the_product_assisted_norm_estimate():
    g = random_game(3, 3, seed=0)
    small = SolverBudget(restarts=3, max_sweeps=60, seed=0)
    res = pi1cb_bounds(g, (1,), small)
    assert res.interval.lower >= beta_product(g, small).assisted_norm_estimate - 1e-12


def test_pi1cb_diagonal_reaches_mass():
    M = np.array([[0.3, -0.2], [0.1, 0.25]])
    g = diagonal_game(M)
    res = pi1cb_bounds(g, (1, g.n), BUDGET)
    mass = float(np.abs(M).sum())
    assert res.interval.lower >= mass - 1e-6
    assert res.interval.upper >= mass - 1e-10
    assert res.interval.lower <= res.interval.upper + 1e-9


def test_pi1cb_zero_game():
    g = QuantumXorGame(1, 1, np.zeros((1, 1)))
    res = pi1cb_bounds(g, (1, 2), SolverBudget(restarts=2, max_sweeps=30, seed=0))
    assert res.interval.lower == pytest.approx(0.0, abs=1e-12)
    assert res.interval.upper == pytest.approx(0.0, abs=1e-12)


def test_hierarchy_report_small():
    games = [(f"g{k}", random_game(2, 2, seed=300 + k)) for k in range(3)]
    small = SolverBudget(restarts=3, max_sweeps=60, seed=9)
    rep = HierarchyReport.of(analyze_game(g, gid, small, (1, 2), ((1, 1), (2, 2)))
                             for gid, g in games)
    assert rep.violations == ()
    assert len(rep.rows) == 3
    assert [r.game_id for r in rep.rows] == sorted(r.game_id for r in rep.rows)
    for row in rep.rows:
        assert row.beta_product.lower <= row.beta_owq + 1e-8
        assert row.pi1cb.lower <= row.pi1cb.upper + 1e-9


def test_hierarchy_report_empty():
    rep = HierarchyReport.of([])
    assert rep.rows == ()
    assert rep.max_ratio == 0.0


@pytest.mark.parametrize("solve", [
    lambda g: beta_owc(g, 1.5, BUDGET),
    lambda g: beta_owc(g, 2.0, BUDGET),
    lambda g: beta_entangled(g, 1.5, 1, BUDGET),
    lambda g: beta_entangled(g, 1, 2.0, BUDGET),
], ids=["owc-fraction", "owc-float", "entangled-fraction", "entangled-float"])
def test_a_level_that_is_not_an_integer_is_rejected(solve):
    with pytest.raises(ValidationError, match="schedule entries must be (tuples of 2 )?integers"):
        solve(chsh())


@pytest.mark.parametrize("dims", [[(1, 1, 1)], [1, (2, 2)], [()], [1, 2]],
                         ids=["triple", "mixed", "empty-level", "integers"])
def test_an_ancilla_level_that_is_not_a_pair_is_rejected(dims):
    with pytest.raises(ValidationError, match="ancilla schedule entries must be tuples of 2 integers"):
        beta_entangled_schedule(chsh(), dims, SolverBudget(restarts=1, max_sweeps=2))


def test_an_ancilla_schedule_of_lists_runs_as_tuples():
    small = SolverBudget(restarts=2, max_sweeps=30, seed=1)
    g = random_game(2, 2, seed=49)
    lists = beta_entangled_schedule(g, [[2, 2], [1, 1]], small)
    tuples = beta_entangled_schedule(g, ((1, 1), (2, 2)), small)
    assert [r.interval for r in lists] == [r.interval for r in tuples]


def test_entangled_schedule_runs_four_symmetric_ancillas():
    res = beta_entangled_schedule(chsh(), ((1, 1), (2, 2), (3, 3), (4, 4)),
                                  SolverBudget(restarts=2, max_sweeps=40, seed=1))
    assert [(r.strategy.dA, r.strategy.dB) for r in res] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    lowers = [r.interval.lower for r in res]
    assert lowers[0] == pytest.approx(0.5, abs=1e-9)
    assert lowers[1:] == pytest.approx([math.sqrt(2) / 2] * 3, abs=1e-9)


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(example, scope)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5 and float(printed[0]) == pytest.approx(1.0)
    # the last line is pi1cb_bounds at messages (1, 2), on the example's budget
    res = pi1cb_bounds(chsh(), (1, 2), scope["budget"])
    assert printed[-1] == repr(res.interval)
    assert [d for d, _ in res.per_d] == [1, 2]
    assert (res.interval.lower, res.interval.upper) == pytest.approx((1.0, 1.0))


def test_analyze_game_sorts_schedules():
    g = random_game(2, 2, seed=46)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=1)
    row = analyze_game(g, "g", small, d_schedule=(2, 1), ancilla_schedule=((2, 2), (1, 1)))
    assert [d for d, _ in row.beta_owc_per_d] == [1, 2]
    assert row.entangled_dims == (2, 2)


def test_analyze_game_runs_the_product_seesaw_once(monkeypatch):
    keys = []
    core = solvers._product_core

    def counted(game, budget, hermitian, key, **kw):
        keys.append(key)
        return core(game, budget, hermitian, key, **kw)

    monkeypatch.setattr(solvers, "_product_core", counted)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=1)
    analyze_game(random_game(2, 2, seed=47), "g", small, (1, 2), ((1, 1), (2, 2)))
    assert keys.count("prod") == 1
    assert sorted(keys) == ["prod", "prod-c"]


@pytest.mark.parametrize("schedule, expected", [
    ((1, 2), ["prod", "prod-c"]),
    ((2,), ["prod", "prod-c"]),
])
def test_pi1cb_bounds_shares_the_product_seesaw(monkeypatch, schedule, expected):
    keys = []
    core = solvers._product_core

    def counted(game, budget, hermitian, key, **kw):
        keys.append(key)
        return core(game, budget, hermitian, key, **kw)

    monkeypatch.setattr(solvers, "_product_core", counted)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=1)
    pi1cb_bounds(random_game(2, 2, seed=47), schedule, small)
    assert sorted(keys) == expected


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), m=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
def test_random_games_keep_the_class_order(n, m, seed, dims):
    game = random_game(n, m, seed=seed)
    tiny = SolverBudget(restarts=1, max_sweeps=10, seed=seed)
    row = analyze_game(game, "g", tiny, d_schedule=(1, 2), ancilla_schedule=((1, 1), (2, 2)))
    assert row.violations == ()
    owc = [iv for _, iv in row.beta_owc_per_d]
    for iv in (row.beta_product, row.beta_entangled, row.pi1cb, *owc):
        assert iv.lower <= iv.upper
    best_owc = max(iv.lower for iv in owc)
    assert row.beta_product.lower <= best_owc + 1e-8
    assert best_owc <= row.beta_owq + 1e-8
    assert row.beta_entangled.lower <= row.beta_owq + 1e-8
    # the see-saw's own value agrees with the independent witness evaluation
    dA, dB = dims
    warm = EntangledStrategy(n, m, 1, 1, [1], np.eye(n), np.eye(m))
    val, psi, a, b = solvers._entangled_core(game, dA, dB, tiny, warm)
    assert val == pytest.approx(bias_of(game, EntangledStrategy(n, m, dA, dB, psi, a, b)),
                                abs=1e-10)


def test_analyze_game_rejects_an_ancilla_schedule_that_is_not_a_chain():
    # (1, 3) and (2, 1) are not comparable, so no warm start links them and
    # the lower bounds need not rise; the schedule is refused, not flagged
    small = SolverBudget(restarts=3, max_sweeps=60, seed=0)
    with pytest.raises(ValidationError, match="grow in every component"):
        analyze_game(random_game(3, 2, seed=5), "g", small, d_schedule=(1,),
                     ancilla_schedule=((1, 3), (2, 1)))


def _game_level_runs(kind, game):
    """``(run(level, budget, warm) -> (lower, strategy), lower level, higher level)``."""
    if kind == "entangled":
        def run(dims, budget, warm):
            if warm is None:
                strategy = beta_entangled(game, *dims, budget).strategy
            else:
                _, psi, a, b = solvers._entangled_core(game, *dims, budget, warm)
                strategy = EntangledStrategy(game.n, game.m, *dims, psi, a, b)
            return bias_of(game, strategy), strategy
        return run, (1, 1), (2, 2)

    def run(d, budget, warm):
        if warm is None:
            strategy = beta_owc(game, d, budget).strategy
        else:
            strategy, _, _ = solvers._owc_level(game, d, budget, warm)
        return bias_of(game, strategy), strategy
    return run, 2, 3


@pytest.mark.parametrize("kind", ["entangled", "owc"])
def test_a_game_level_starts_from_the_embedded_lower_witness(kind):
    # one sweep from the other starts need not reach a converged lower-level
    # witness, so only the embedded witness carries the bound
    tiny = SolverBudget(restarts=1, max_sweeps=1, seed=7)
    for seed in range(6):
        run, low, high = _game_level_runs(kind, random_game(2, 2, seed=600 + seed))
        lower, strategy = run(low, BUDGET, None)
        higher, _ = run(high, tiny, strategy)
        assert higher >= lower * (1 - 1e-12)


def test_owc_schedule_runs_each_start_once(monkeypatch):
    # the padded one-message witness is the product instrument, so it is
    # not run again as a start of its own
    counts = []
    seesaw = solvers.seesaw

    def counted(starts, sweep, budget, **kw):
        starts = list(starts)
        if sweep.__qualname__.startswith("_owc_level."):
            counts.append(len(starts))
        return seesaw(starts, sweep, budget, **kw)

    monkeypatch.setattr(solvers, "seesaw", counted)
    small = SolverBudget(restarts=4, max_sweeps=30, seed=1)
    beta_owc_schedule(random_game(2, 2, seed=48), (1, 2), small)
    assert counts == [2 + max(1, small.restarts // 2)]


def _entangled_start_counts(monkeypatch):
    """The number of starts of each entangled see-saw call, in call order."""
    counts = []
    seesaw = solvers.seesaw

    def counted(starts, sweep, budget, **kw):
        starts = list(starts)
        if sweep.__qualname__.startswith("_entangled_core."):
            counts.append(len(starts))
        return seesaw(starts, sweep, budget, **kw)

    monkeypatch.setattr(solvers, "seesaw", counted)
    return counts


def test_entangled_ladder_runs_each_start_once(monkeypatch):
    # the product witness is the only warm start; no identity start replays
    # it. (2, 3), warm started from (2, 2)'s witness, runs one random start
    counts = _entangled_start_counts(monkeypatch)
    small = SolverBudget(restarts=3, max_sweeps=30, seed=1)
    g = random_game(2, 2, seed=48)
    beta_entangled_schedule(g, ((1, 1), (2, 2), (2, 3)), small)
    beta_entangled(g, 2, 2, small)
    analyze_game(g, "g", small, d_schedule=(1,), ancilla_schedule=((1, 1), (2, 2)))
    assert counts == [1 + small.restarts, 2, 1 + small.restarts, 1 + small.restarts]


@pytest.mark.parametrize("dims, expected", [
    (((1, 1), (2, 2), (3, 3), (4, 4)), [4, 2, 2]),
    (((3, 3), (4, 4)), [4, 2]),
], ids=["from-1", "from-3"])
def test_entangled_ladder_spends_its_restarts_on_the_first_see_saw_level(
        monkeypatch, dims, expected):
    # the level warm started from the product witness runs every restart,
    # each later one its warm witness and one random start
    counts = _entangled_start_counts(monkeypatch)
    beta_entangled_schedule(random_game(3, 3, seed=50), dims,
                            SolverBudget(restarts=3, max_sweeps=20, seed=1))
    assert counts == expected


def test_one_level_beta_entangled_runs_every_restart(monkeypatch):
    counts = _entangled_start_counts(monkeypatch)
    beta_entangled(random_game(3, 3, seed=50), 3, 3, SolverBudget(restarts=5, max_sweeps=20))
    assert counts == [6]


def test_entangled_ladder_draws_its_one_random_start_from_the_first_restart_key(monkeypatch):
    # the one random start above the first level is the first start the
    # level drew when it ran every restart
    keys = []
    rng = SolverBudget.rng

    def recording(self, *key):
        if key[0] == "ent":
            keys.append(key)
        return rng(self, *key)

    monkeypatch.setattr(SolverBudget, "rng", recording)
    beta_entangled_schedule(random_game(2, 2, seed=51), ((1, 1), (2, 2), (3, 3)),
                            SolverBudget(restarts=3, max_sweeps=20, seed=4))
    assert keys == [("ent", 2, 2, 0), ("ent", 2, 2, 1), ("ent", 2, 2, 2), ("ent", 3, 3, 0)]


def test_analyze_game_solves_the_product_class_once(monkeypatch):
    # beta_product's witness is the entangled (1, 1) rung and its warm start
    levels, keys = [], []
    entangled_core, product_core = solvers._entangled_core, solvers._product_core

    def entangled(game, dA, dB, *args):
        levels.append((dA, dB))
        return entangled_core(game, dA, dB, *args)

    def product(game, budget, hermitian, key, **kw):
        keys.append(key)
        return product_core(game, budget, hermitian, key, **kw)

    monkeypatch.setattr(solvers, "_entangled_core", entangled)
    monkeypatch.setattr(solvers, "_product_core", product)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=2)
    analyze_game(random_game(3, 3, seed=49), "g", small, d_schedule=(1, 2),
                 ancilla_schedule=((1, 1), (2, 2), (3, 3)))
    assert levels == [(2, 2), (3, 3)]
    assert keys == ["prod", "prod-c"]


def test_analyze_game_reads_the_trace_norm_the_game_computed(monkeypatch):
    # the game takes its trace norm once, when it is built; no solver takes it again
    import qxor
    from qxor import games, linalg

    game = random_game(3, 3, seed=50)
    calls = []
    real = linalg.trace_norm

    def counted(m):
        calls.append(1)
        return real(m)

    for module in (qxor, linalg, games, solvers, opnorms):
        monkeypatch.setattr(module, "trace_norm", counted)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=2)
    row = analyze_game(game, "g", small, d_schedule=(1,),
                       ancilla_schedule=((1, 1), (2, 2), (3, 3), (4, 4)))
    assert calls == []
    assert row.beta_owq == game.trace_norm == real(game.G)
    assert solvers.pi1o_exact(game) == game.trace_norm


def test_a_bias_above_the_trace_norm_raises_before_any_flag_could(monkeypatch):
    # every lower that analyze_game compares with beta_owq is bias_of of a
    # witness, which raises 1e-9 above the trace norm; a flag 1e-8 above it
    # could never fire
    from qxor import games

    game = random_game(2, 2, seed=51)
    monkeypatch.setattr(games, "_entangled_bias", lambda g, s: g.trace_norm + 5e-9)
    with pytest.raises(ValidationError, match="bias exceeds the trace-norm bound"):
        analyze_game(game, "g", SolverBudget(restarts=1, max_sweeps=10, seed=2), (1,),
                     ((1, 1), (2, 2)))


@pytest.mark.parametrize("n", [2, 3])
def test_every_entangled_rung_is_at_least_the_product_lower(n):
    small = SolverBudget(restarts=2, max_sweeps=40, seed=5)
    for seed in range(4):
        g = random_game(n, n, seed=900 + seed)
        prod = beta_product(g, small)
        floor = prod.interval.lower - 1e-12 * abs(prod.interval.lower)
        ladders = (
            solvers._entangled_ladder(g, ((1, 1), (2, 2), (3, 3)), small, prod.strategy),
            beta_entangled_schedule(g, ((1, 1), (2, 2), (3, 3)), small),
            [beta_entangled(g, 2, 2, small)],
        )
        for ladder in ladders:
            assert all(r.interval.lower >= floor for r in ladder), (seed, prod.interval)


@pytest.mark.parametrize("d", [2, 3])
def test_owc_without_a_warm_witness_starts_from_the_one_message_witness(d):
    g = random_game(2, 2, seed=49)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=2)
    ladder = beta_owc_schedule(g, (1, d), small)
    assert beta_owc(g, d, small).interval.lower == ladder[-1].interval.lower


def test_owc_ladder_warm_started_from_the_product_witness_is_the_standalone_ladder():
    small = SolverBudget(restarts=2, max_sweeps=30, seed=3)
    for seed in range(6):
        g = random_game(2, 2, seed=700 + seed)
        prod = beta_product(g, small)
        warm = solvers._owc_ladder(g, (1, 2, 3), small, prod.strategy)
        cold = beta_owc_schedule(g, (1, 2, 3), small)
        assert [r.interval for r in warm] == [r.interval for r in cold]
        assert warm[0].interval.lower == prod.interval.lower


def test_the_owc_instrument_solver_never_runs_at_one_message(monkeypatch):
    # the one-message rung is the product witness, built by the ladder itself
    levels = []
    level = solvers._owc_level

    def counted(game, d, *args):
        levels.append(d)
        return level(game, d, *args)

    monkeypatch.setattr(solvers, "_owc_level", counted)
    small = SolverBudget(restarts=2, max_sweeps=30, seed=1)
    g = random_game(2, 2, seed=51)
    beta_owc_schedule(g, (1, 2, 3), small)
    pi1cb_bounds(g, (1, 2), small)
    analyze_game(g, "g", small, (1, 2), ((1, 1), (2, 2)))
    assert levels == [2, 3, 2, 2]


@pytest.mark.parametrize("call", [
    lambda g, b: beta_owc_schedule(g, (0, 1), b),
    lambda g, b: beta_owc_schedule(g, (1.5,), b),
    lambda g, b: beta_owc(g, 0, b),
    lambda g, b: beta_entangled_schedule(g, ((1, 3), (2, 1)), b),
    lambda g, b: beta_entangled_schedule(g, (2, 2), b),
    lambda g, b: beta_entangled(g, 0, 1, b),
], ids=["owc-schedule-zero", "owc-schedule-fraction", "owc-zero",
        "entangled-schedule-chain", "entangled-schedule-shape", "entangled-zero"])
def test_a_malformed_schedule_is_refused_before_the_product_seesaw(monkeypatch, call):
    keys = []
    core = solvers._product_core

    def counted(game, budget, hermitian, key, **kw):
        keys.append(key)
        return core(game, budget, hermitian, key, **kw)

    monkeypatch.setattr(solvers, "_product_core", counted)
    small = SolverBudget(restarts=1, max_sweeps=5, seed=0)
    with pytest.raises(ValidationError, match="schedule"):
        call(random_game(2, 2, seed=52), small)
    assert keys == []


def test_the_one_message_rung_refuses_a_drifted_reduction(monkeypatch):
    # the wrapped measurement must keep the product value; a relative drift
    # of 1e-9 is far above rounding and raises
    bias = solvers.bias_of

    def drifted(game, strategy):
        value = bias(game, strategy)
        return value * (1 + 1e-9) if isinstance(strategy, OwcStrategy) else value

    small = SolverBudget(restarts=1, max_sweeps=10, seed=0)
    g = random_game(2, 2, seed=53)
    prod = beta_product(g, small)
    assert solvers._owc_ladder(g, (1,), small, prod.strategy)[0].interval.lower == (
        prod.interval.lower)
    monkeypatch.setattr(solvers, "bias_of", drifted)
    with pytest.raises(ValidationError, match="single-message reduction drifted"):
        solvers._owc_ladder(g, (1,), small, prod.strategy)
