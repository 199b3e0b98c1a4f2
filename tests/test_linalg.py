import math

import numpy as np
import pytest

from conftest import gue, random_herm_contraction, random_unitary, rng_for, swap_matrix
from qxor import linalg
from qxor.config import ConvergenceError, ValidationError
from qxor.linalg import (
    eigh_desc,
    eigh_stack,
    operator_norm,
    partial_contract_A,
    polar_stack,
    pow2_restore,
    pow2_scaled,
    require_hermitian,
    sign_hermitian,
    sign_stack,
    trace_norm,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eigh_diagonal_already_sorted():
    w, u = eigh_desc(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [3.0, 1.0])
    assert np.abs(np.abs(u) - np.eye(2)).max() < 1e-12


def test_eigh_pauli_x_spectrum():
    w, _ = eigh_desc(PAULI_X)
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)


def test_eigh_reconstruction_residual_random():
    for trial in range(5):
        m = gue(6, rng_for("eigh", trial))
        w, u = eigh_desc(m)
        scale = 1.0 + np.abs(m).max()
        assert np.abs((u * w) @ u.conj().T - m).max() <= 1e-10 * scale
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-10
        assert np.all(np.diff(w) <= 1e-12)


def test_trace_norm_identity_and_swap():
    assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-10)
    assert trace_norm(swap_matrix(2)) == pytest.approx(4.0, abs=1e-10)


def test_trace_norm_rank_one():
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3) * np.sqrt(3)  # norm^2 = 3
    assert trace_norm(np.outer(v, v.conj())) == pytest.approx(3.0, abs=1e-10)


def test_trace_norm_unitarily_invariant():
    rng = rng_for("tn-unitary")
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert abs(trace_norm(u @ m @ v) - trace_norm(m)) <= 1e-9


def test_trace_norm_dominates_operator_norm():
    rng = rng_for("tn-op")
    for _ in range(20):
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        assert trace_norm(m) >= operator_norm(m) - 1e-12


def test_sign_hermitian_examples():
    assert np.allclose(sign_hermitian(np.diag([2.0, -3.0])), np.diag([1.0, -1.0]))
    assert np.allclose(sign_hermitian(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(sign_hermitian(PAULI_X), PAULI_X, atol=1e-12)


def test_sign_hermitian_attains_trace_norm_and_dominates():
    rng = rng_for("sign-opt")
    d = gue(4, rng)
    x = sign_hermitian(d)
    val = np.trace(d @ x).real
    assert val == pytest.approx(trace_norm(d), abs=1e-10)
    for _ in range(100):
        y = random_herm_contraction(4, rng)
        assert np.trace(d @ y).real <= val + 1e-10


def test_polar_contraction_examples():
    rng = rng_for("polar")
    w = random_unitary(3, rng)
    assert np.abs(polar_stack(w) - w.conj().T).max() < 1e-10
    assert np.allclose(polar_stack(np.diag([2.0, -3.0])), np.diag([1.0, -1.0]))
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = polar_stack(m)
    assert operator_norm(x) <= 1 + 1e-12
    assert np.trace(m @ x).real == pytest.approx(trace_norm(m), abs=1e-10)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_polar_contraction_of_a_rectangular_matrix(shape):
    rng = rng_for("polar-rect", shape)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x = polar_stack(m)
    assert x.shape == shape[::-1]
    assert operator_norm(x) <= 1 + 1e-12
    assert np.trace(m @ x).real == pytest.approx(trace_norm(m), rel=1e-12)


def test_pow2_scaling_is_exact():
    rng = rng_for("pow2")
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    for power in (-1070, -600, 0, 600, 1020):
        scaled, e = pow2_scaled(a * 2.0 ** (power // 2) * 2.0 ** (power - power // 2))
        big = max(np.abs(scaled.real).max(), np.abs(scaled.imag).max())
        assert 0.5 <= big < 1
        if abs(power) < 1000:
            assert (scaled * 2.0 ** (e - power) == a).all()
    assert pow2_scaled(np.zeros((2, 2), dtype=complex))[1] == 0
    assert pow2_restore(0.75, -1) == 0.375
    assert pow2_restore(1.0, 1024) == math.inf


def test_stacks_equal_the_matrices_one_at_a_time():
    rng = rng_for("stacks")
    for n in (2, 3, 5):
        h = np.stack([gue(n, rng) for _ in range(4)])
        x = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        w, u = eigh_stack(h)
        signs, polars = sign_stack(h), polar_stack(x)
        for i in range(4):
            wi, ui = eigh_desc(h[i])
            assert (w[i] == wi).all() and (u[i] == ui).all()
            assert (signs[i] == sign_hermitian(h[i])).all()
            assert (polars[i] == polar_stack(x[i])).all()


@pytest.mark.parametrize("solver, call", [
    ("eigh", lambda a: eigh_stack(a)),
    ("eigh", lambda a: sign_stack(a)),
    ("svd", lambda a: polar_stack(a)),
])
def test_stacked_solver_failure_is_a_convergence_error(monkeypatch, solver, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(linalg.np.linalg, solver, fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        call(np.eye(2, dtype=complex)[None])


def test_partial_contract_product_operator():
    rng = rng_for("pc-prod")
    p = gue(2, rng)
    q = gue(3, rng)
    g = np.kron(p, q)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(partial_contract_A(g, a, 2, 3) - np.trace(p @ a) * q).max() < 1e-12


def test_partial_contract_swap_is_identity_map():
    s = swap_matrix(3)
    rng = rng_for("pc-swap")
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(partial_contract_A(s, a, 3, 3) - a).max() < 1e-12


def test_partial_contract_identity_gives_partial_trace():
    rng = rng_for("pc-id")
    g = gue(6, rng)
    g4 = g.reshape(2, 3, 2, 3)
    pt_first = np.einsum("ikil->kl", g4)
    assert np.abs(partial_contract_A(g, np.eye(2), 2, 3) - pt_first).max() < 1e-12


def test_partial_contract_three_way_agreement():
    rng = rng_for("pc-3way")
    for trial in range(10):
        g = gue(6, rng)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = np.trace(g @ np.kron(a, b))
        via_a = np.trace(partial_contract_A(g, a, 2, 3) @ b)
        assert abs(direct - via_a) < 1e-10


def test_partial_contract_dimension_mismatch():
    with pytest.raises(ValidationError):
        partial_contract_A(np.eye(6), np.eye(4), 2, 3)
    with pytest.raises(ValidationError, match="declared registers"):
        partial_contract_A(np.eye(5), np.eye(2), 2, 3)


def test_require_hermitian_rejects_large_defect():
    with pytest.raises(ValidationError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
