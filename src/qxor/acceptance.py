"""Acceptance criteria: one callable per criterion, each raising
``AssertionError`` with a diagnostic on failure.

These are the package's exit conditions at desk scale (registers up to
four-dimensional, ancillas up to four, minutes of total runtime). Every
tolerance is pinned here, except the 1e-6 slack of the weight checks (C7),
which is ``qxor.factor._CHECK_TOL``; the CLI ``selftest`` subcommand and the
pytest acceptance module both execute this registry.

C3 and C4 run :func:`~qxor.solvers.analyze_game`, the pipeline users run,
and its soundness flags are C4's monotonicity checks of both ladders.
"""

from __future__ import annotations

import filecmp
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .budget import SolverBudget
from .factor import (
    chain_check,
    exhaustive_sign_one_norm,
    gamma_rc_upper,
    gamma_to_Gamma,
    mab_certify,
    tensor_from_kernel,
    weight_homogeneity_check,
    weight_monotonicity_check,
    weight_sandwich_check,
    weight_subadditivity_check,
)
from .games import (
    OwcStrategy,
    associated_map,
    bias_of,
    chsh,
    diagonal_game,
    hadamard_matrix,
    product_state_game,
    random_game,
    swap_game,
)
from .maps import VectorMap
from .opnorms import amplified_norm, cb_norm_bounds, pietsch_pi2
from .solvers import analyze_game, beta_owq, pi1cb_bounds, pi1o_exact
from .tuples import mix_tuple, rplus2c_split


def _gue(n: int, rng) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def criterion_exact_values():
    """Gallery values that are exact, not intervals."""
    for n in (2, 3):
        v = beta_owq(swap_game(n))
        assert abs(v - 1.0) <= 1e-10, f"swap game owq bias {v} at n={n}"
        tau = associated_map(swap_game(n).G * n**2, n, n)
        p = pi1o_exact(tau)
        assert abs(p - n * n) <= 1e-8, f"transpose 1-summing value {p} at n={n}"
    rng = np.random.default_rng(100)
    for trial in range(5):
        m = rng.uniform(-1, 1, size=(2, 3))
        m /= 1.25 * np.abs(m).sum()
        mass = float(np.abs(m).sum())
        p = pi1o_exact(diagonal_game(m))
        assert abs(p - mass) <= 1e-10, f"diagonal 1-summing {p} vs mass {mass}"


def criterion_transpose_bracket():
    """The transpose kernel: summing-norm interval and amplified witness."""
    budget = SolverBudget(restarts=4, max_sweeps=100, seed=2)
    for n in (2, 3):
        tau = associated_map(swap_game(n).G * n**2, n, n)
        res = pi1cb_bounds(tau, (1, 2), budget)
        assert res.interval.lower >= n - 1e-6, f"pi1cb lower {res.interval.lower} at n={n}"
        assert res.interval.upper <= n * n + 1e-8, f"pi1cb upper at n={n}"
    # explicit amplification witness at level two: the swap input pairs to
    # value two against the swap dual variable
    w4 = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            w4[a, a, b, b] = 1.0
    v4 = (swap_game(2).G * 4).reshape(2, 2, 2, 2)
    p4 = np.einsum("arbs,isjr->iajb", w4, v4)
    witness = float(np.linalg.svd(p4.reshape(4, 4), compute_uv=False)[0])
    assert abs(witness - 2.0) <= 1e-10, f"explicit witness value {witness}"
    tau2 = associated_map(swap_game(2).G * 4, 2, 2)
    iv, _ = amplified_norm(tau2, 2, budget)
    assert iv.lower >= 2 - 1e-6, f"amplified lower {iv.lower}"


def criterion_chsh_oracles():
    """Sign-strategy and protocol oracles for the basic classical game."""
    g = chsh()
    budget = SolverBudget(restarts=6, max_sweeps=100, seed=3)
    coeffs = np.array([[1.0, 1.0], [1.0, -1.0]]) / 4
    oracle = max(
        float(np.einsum("i,ij,j->", s, coeffs, t))
        for s in itertools.product((-1, 1), repeat=2)
        for t in itertools.product((-1, 1), repeat=2)
    )
    assert abs(oracle - 0.5) <= 1e-12
    row = analyze_game(g, "chsh", budget, (1, 2), ((1, 1), (2, 2)))
    assert abs(row.beta_product.lower - oracle) <= 1e-6, row.beta_product

    e_plus = np.zeros((2, 2, 2), dtype=complex)
    e_plus[0, 0, 0] = 1.0
    e_plus[1, 1, 1] = 1.0
    obs = np.stack([np.diag(np.sign(coeffs[k])).astype(complex) for k in range(2)])
    protocol = OwcStrategy(2, e_plus, np.zeros((2, 2, 2), dtype=complex), obs)
    assert abs(bias_of(g, protocol) - 1.0) <= 1e-12
    owc = row.beta_owc_per_d[-1][1]
    assert owc.lower >= 1 - 1e-6, owc
    assert row.beta_entangled.lower >= 0.7071 - 1e-3, row.beta_entangled


def criterion_interval_soundness():
    """No certified bound may cross a theorem-backed comparison."""
    budget = SolverBudget(restarts=3, max_sweeps=60, seed=4)
    games = [(f"r{k}", random_game(2, 2, seed=1000 + k)) for k in range(50)]
    rng = np.random.default_rng(5)
    rho = _gue(2, rng)
    rho = rho @ rho.conj().T + 0.1 * np.eye(2)
    rho /= np.trace(rho).real
    games += [("swap2", swap_game(2)), ("chsh", chsh()),
              ("prod", product_state_game(rho, np.eye(2) / 2))]
    for gid, g in games:
        row = analyze_game(g, gid, budget, (1, 2), ((1, 1), (2, 2)))
        owq, prod = row.beta_owq, row.beta_product.lower
        assert prod <= owq + 1e-8, gid
        owc = [iv.lower for _, iv in row.beta_owc_per_d]
        assert owc[0] == prod, f"{gid}: single-message bias differs from the product bias"
        # the flags are the monotonicity checks of both ladders, at 1e-8
        assert not row.violations, (gid, row.violations)
        assert owc[-1] <= owq + 1e-8, gid
        assert row.beta_entangled.lower <= owq + 1e-8, gid
        z = tensor_from_kernel(g.G, g.n, g.m)
        gres = gamma_rc_upper(z, budget)
        iv = gamma_to_Gamma(z, gres.gamma_upper, budget, schedule=(1, 2))
        assert iv.lower <= iv.upper + 1e-9, gid


def criterion_mab_certificates():
    """Certified cb lowers for sandwich maps stay under the factorization
    constant on one hundred normalized pairs."""
    budget = SolverBudget(restarts=3, max_sweeps=60, seed=6)
    rng = np.random.default_rng(7)
    for trial in range(100):
        p = int(rng.integers(2, 4))
        a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        a /= np.linalg.norm(a, "fro")
        b = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        b /= np.linalg.norm(b, "fro")
        lo, ok = mab_certify(a, b, budget, schedule=(1, 2, 4))
        assert ok, f"trial {trial}: cb lower {lo} exceeded the certificate bound"


def criterion_chain_known_values():
    """cb lower versus the summing comparison on known-value maps."""
    budget = SolverBudget(restarts=3, max_sweeps=60, seed=8)
    for n in (2, 3):
        tau = associated_map(swap_game(n).G * n**2, n, n)
        lo, bound, ok = chain_check(tau, float(n), budget, schedule=(1, 2))
        assert ok, f"transpose chain at n={n}: {lo} > {bound}"
    rng = np.random.default_rng(9)
    for trial in range(20):
        shape = (2, 2) if trial % 2 == 0 else (2, 3)
        m = rng.uniform(-1, 1, size=shape)
        m /= 1.1 * np.abs(m).sum()
        g = diagonal_game(m)
        known = float(np.abs(m).sum())
        lo, bound, ok = chain_check(associated_map(g), known, budget, schedule=(1, 2))
        assert ok, f"diagonal chain trial {trial}: {lo} > {bound}"


def criterion_weight_axioms():
    """Homogeneity, subadditivity, monotonicity, and the half-to-one
    sandwich for the splitting weight on one hundred random tuples."""
    rng = np.random.default_rng(10)
    prev = prev_split = None
    for trial in range(100):
        d = int(rng.integers(1, 5))
        t = np.stack([_gue(3, rng) for _ in range(d)])
        split = rplus2c_split(t)  # the solve is deterministic, so each check reuses it
        ws = weight_sandwich_check(t, split=split)
        assert ws.ok, f"trial {trial}: sandwich {ws}"
        lhs, rhs, ok = weight_homogeneity_check(t, float(rng.uniform(0.3, 3.0)), split=split)
        assert ok, f"trial {trial}: homogeneity {lhs} vs {rhs}"
        if prev is not None:
            l2, r2, ok = weight_subadditivity_check(t, prev, x_split=split, y_split=prev_split)
            assert ok, f"trial {trial}: subadditivity {l2} vs {r2}"
        da = int(rng.integers(1, d + 1))
        a = rng.normal(size=(da, d)) + 1j * rng.normal(size=(da, d))
        a /= max(1.0, np.linalg.norm(a, 2))
        wx, wy, ok = weight_monotonicity_check(mix_tuple(a, t), t, ys_split=split)
        assert ok, f"trial {trial}: monotonicity {wx} vs {wy}"
        prev, prev_split = t, split


def criterion_two_summing_cross_check():
    """The amplified lower bound into the row-intersect-column structure
    reproduces the 2-summing norm within the stated band."""
    budget = SolverBudget(restarts=50, max_sweeps=100, seed=12)
    rng = np.random.default_rng(13)
    for trial in range(30):
        d = int(rng.integers(2, 5))
        p = int(rng.integers(2, 5))
        h = tuple(rng.normal(size=p) + 1j * rng.normal(size=p) for _ in range(d))
        vm = VectorMap(h)
        pi2 = pietsch_pi2(vm)
        res = cb_norm_bounds(vm, schedule=(1, 2, 4), budget=budget)
        lo = res.interval.lower
        assert lo <= pi2 * 1.02, f"trial {trial}: cb lower {lo} above pi2 {pi2}"
        assert lo >= pi2 * 0.95, f"trial {trial}: cb lower {lo} below 95% of pi2 {pi2}"


def criterion_sign_pattern_gap():
    """Sign-pattern coefficient matrices separate the 1-summing value from
    the exhaustively computed diagonal-carrier norm at the square-root rate."""
    for n in (2, 4):
        coeffs = hadamard_matrix(n) / n**2
        pi1o = float(np.abs(coeffs).sum())
        sign_norm = exhaustive_sign_one_norm(coeffs)
        ratio = pi1o / sign_norm
        target = math.sqrt(n) / math.sqrt(2)
        assert ratio >= target - 1e-12, f"n={n}: ratio {ratio} below {target}"


def criterion_report_determinism():
    """Identical seeds must produce byte-identical JSON reports."""
    from .cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"report{i}.json") for i in (0, 1)]
        for path in paths:
            code = main([
                "hierarchy", "--count", "4", "--n", "2", "--m", "2",
                "--seed", "7", "--restarts", "3", "--sweeps", "60",
                "--messages", "1,2", "--ancilla", "1,2",
                "--format", "json", "--out", path,
            ])
            assert code == 0, f"hierarchy run exited {code}"
        assert filecmp.cmp(*paths, shallow=False), "reports differ between runs"


@dataclass(frozen=True)
class Criterion:
    id: str
    title: str
    run: callable


CRITERIA = (
    Criterion("C1", "exact gallery norm values", criterion_exact_values),
    Criterion("C2", "transpose kernel norm bracketing", criterion_transpose_bracket),
    Criterion("C3", "classical game oracles", criterion_chsh_oracles),
    Criterion("C4", "interval soundness across strategy classes", criterion_interval_soundness),
    Criterion("C5", "sandwich-map certificates", criterion_mab_certificates),
    Criterion("C6", "cb-versus-summing chain on known values", criterion_chain_known_values),
    Criterion("C7", "splitting-weight axioms", criterion_weight_axioms),
    Criterion("C8", "2-summing cross-check", criterion_two_summing_cross_check),
    Criterion("C9", "sign-pattern gap direction", criterion_sign_pattern_gap),
    Criterion("C10", "report determinism", criterion_report_determinism),
)
