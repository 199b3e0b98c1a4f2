"""Norms of finite matrix tuples: row, column, their max, and the two
splitting norms (quadratic and linear combination), plus the ordering test
between tuples.

For a tuple ``x = (x_1, ..., x_d)`` of matrices embedded concretely in a
matrix algebra:

* ``row_norm(x)  = || sum_k x_k x_k^dagger ||^(1/2)``
* ``col_norm(x)  = || sum_k x_k^dagger x_k ||^(1/2)``
* ``rc_norm(x)   = max(row, col)``
* ``rplus2c_norm(x) = inf over splittings x = T + S of
  sqrt(row(T)^2 + col(S)^2)`` (entrywise tuple sum)
* ``rplusc_split(x)`` is the same infimum of ``row(T) + col(S)``.

The splitting infima are convex; they are computed by minimizing a
log-sum-exp smoothing of the largest eigenvalue with a decreasing
temperature schedule, warm-started from the better pure splitting. The
returned value is the exact objective at the achieved splitting, hence a
certified upper bound on the infimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .config import ValidationError
from .linalg import as_matrix, operator_norm

__all__ = [
    "MatrixTuple",
    "as_stack",
    "row_norm",
    "col_norm",
    "rc_norm",
    "SplitResult",
    "rplus2c_split",
    "rplus2c_norm",
    "rplusc_split",
    "mix_tuple",
    "ordering_check",
]


@dataclass(frozen=True)
class MatrixTuple:
    entries: tuple = field(repr=False)

    def __post_init__(self):
        mats = tuple(as_matrix(e) for e in self.entries)
        if not mats:
            raise ValidationError("tuple must contain at least one matrix")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValidationError("tuple entries must share a shape")
        object.__setattr__(self, "entries", mats)

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def shape(self):
        return self.entries[0].shape


def as_stack(t) -> np.ndarray:
    """Coerce a MatrixTuple / sequence of matrices to a (d, r, c) stack."""
    if isinstance(t, MatrixTuple):
        return np.stack(t.entries)
    if isinstance(t, np.ndarray) and t.ndim == 3:
        return t.astype(complex)
    return np.stack([as_matrix(e) for e in t])


def row_norm(t) -> float:
    x = as_stack(t)
    return float(np.sqrt(max(0.0, operator_norm(np.einsum("kab,kcb->ac", x, x.conj())))))


def col_norm(t) -> float:
    x = as_stack(t)
    return float(np.sqrt(max(0.0, operator_norm(np.einsum("kba,kbc->ac", x.conj(), x)))))


def rc_norm(t) -> float:
    return max(row_norm(t), col_norm(t))


def mix_tuple(a, t) -> np.ndarray:
    """Apply a mixing matrix to a tuple: out_k = sum_l a[k,l] x_l."""
    x = as_stack(t)
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ValidationError("mixing matrix shape does not match the tuple length")
    return np.einsum("kl,lab->kab", a, x)


# ---------------------------------------------------------------------------
# splitting solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    value: float
    row_part: np.ndarray = field(repr=False)
    col_part: np.ndarray = field(repr=False)
    converged: bool = True


def _smoothed_lambda_max(h: np.ndarray, tau: float):
    """tau-smoothed largest eigenvalue of a Hermitian matrix and its
    derivative weight matrix (Hermitian, PSD, unit trace)."""
    w, u = np.linalg.eigh(h)
    shifted = (w - w[-1]) / tau
    e = np.exp(shifted)
    z = e.sum()
    val = w[-1] + tau * np.log(z)
    weights = e / z
    grad = (u * weights) @ u.conj().T
    return val, grad


def _pack(t: np.ndarray) -> np.ndarray:
    return np.concatenate([t.real.ravel(), t.imag.ravel()])


def _unpack(v: np.ndarray, shape) -> np.ndarray:
    half = v.size // 2
    return v[:half].reshape(shape) + 1j * v[half:].reshape(shape)


def _split_objective(x: np.ndarray, tau: float, quadratic: bool, eps: float):
    """Smoothed objective and gradient as a function of the row part T."""

    def fun(v):
        t = _unpack(v, x.shape)
        s = x - t
        r = np.einsum("kab,kcb->ac", t, t.conj())
        c = np.einsum("kba,kbc->ac", s.conj(), s)
        fr, wr = _smoothed_lambda_max(r, tau)
        fc, wc = _smoothed_lambda_max(c, tau)
        # d row^2 / dT = 2 Wr T_k ; d col^2 / dT = -2 S_k Wc
        g_t = 2 * np.einsum("ab,kbc->kac", wr, t)
        g_s = 2 * np.einsum("kab,bc->kac", s, wc)
        if quadratic:
            val = fr + fc
            grad = g_t - g_s
        else:
            sr = np.sqrt(max(fr, 0.0) + eps)
            sc = np.sqrt(max(fc, 0.0) + eps)
            val = sr + sc
            grad = g_t / (2 * sr) - g_s / (2 * sc)
        return val, np.concatenate([grad.real.ravel(), grad.imag.ravel()])

    return fun


def _exact_split_value(x: np.ndarray, t: np.ndarray, quadratic: bool) -> float:
    r = row_norm(t)
    c = col_norm(x - t)
    return float(np.sqrt(r * r + c * c)) if quadratic else float(r + c)


def _solve_split(t, quadratic: bool, inits: Optional[Sequence] = None,
                 maxiter: int = 80) -> SplitResult:
    x = as_stack(t)
    scale = max(rc_norm(x), 1e-30)
    if scale <= 1e-30:
        return SplitResult(0.0, np.zeros_like(x), np.zeros_like(x), True)
    # the problem is convex; the pure splittings bracket the solution well
    starts = [x / 2, x.copy() if row_norm(x) <= col_norm(x) else np.zeros_like(x)]
    if inits is not None:
        starts = [as_stack(i) for i in inits] + starts
    best_t = None
    best_val = np.inf
    best_ok = True
    eps = (1e-9 * scale) ** 2
    for start in starts:
        # the start itself stays a candidate, so warm starts are never lost
        # to smoothing drift
        val0 = _exact_split_value(x, start, quadratic)
        if val0 < best_val:
            best_val, best_t, best_ok = val0, start, True
        cur = start
        ok = True
        for tau in (0.2, 0.05, 0.01, 0.002, 0.0005):
            fun = _split_objective(x, tau * scale**2, quadratic, eps)
            res = minimize(fun, _pack(cur), jac=True, method="L-BFGS-B",
                           options={"maxiter": maxiter, "ftol": 1e-13, "gtol": 1e-11})
            cur = _unpack(res.x, x.shape)
            ok = ok and bool(np.isfinite(res.fun))
        val = _exact_split_value(x, cur, quadratic)
        if val < best_val:
            best_val = val
            best_t = cur
            best_ok = ok
    return SplitResult(best_val, best_t, x - best_t, best_ok)


def rplus2c_split(t, inits: Optional[Sequence] = None) -> SplitResult:
    """Quadratic splitting infimum with the achieved splitting attached."""
    return _solve_split(t, quadratic=True, inits=inits)


def rplus2c_norm(t, inits: Optional[Sequence] = None) -> float:
    return rplus2c_split(t, inits=inits).value


def rplusc_split(t, inits: Optional[Sequence] = None) -> SplitResult:
    """Linear splitting infimum, inf row(T) + col(S)."""
    return _solve_split(t, quadratic=False, inits=inits)


# ---------------------------------------------------------------------------
# ordering of positive tuple forms
# ---------------------------------------------------------------------------


def ordering_check(xs, ys, tol: float = 1e-9):
    """Decide whether the positive form of ``xs`` is dominated by ``ys``.

    Solves ``x_i = sum_j a[i,j] y_j`` by minimal-norm least squares on the
    span of ``ys``; dominated means the residual vanishes and the minimal
    solution is a contraction. Returns ``(dominated, witness_or_None)``.
    """
    x = as_stack(xs)
    y = as_stack(ys)
    if x.shape[1:] != y.shape[1:]:
        raise ValidationError("tuples must live in a common space")
    xf = x.reshape(x.shape[0], -1)
    yf = y.reshape(y.shape[0], -1)
    a = xf @ np.linalg.pinv(yf, rcond=1e-10)
    residual = float(np.abs(a @ yf - xf).max(initial=0.0))
    scale = max(1.0, float(np.abs(xf).max(initial=0.0)))
    if residual > tol * scale:
        return False, None
    if operator_norm(a) > 1 + tol:
        return False, None
    return True, a
