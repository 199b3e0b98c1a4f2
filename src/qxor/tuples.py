"""Norms of finite matrix tuples ``x = (x_1, ..., x_d)``: row, column, their
max and the two splitting norms, plus the ordering test between tuples.

* ``row_norm(x) = || sum_k x_k x_k^dagger ||^(1/2)``,
  ``col_norm(x) = || sum_k x_k^dagger x_k ||^(1/2)``, ``rc_norm`` their max;
* ``rplus2c_split(x)``: the infimum over splittings ``x = T + S`` of
  ``sqrt(row(T)^2 + col(S)^2)``; ``rplusc_split(x)``: that of ``row(T) + col(S)``.

Their squares are ``W(1/2) / 2`` and ``min_theta W(theta)`` for
``W(theta) = inf_T row(T)^2 / theta + col(S)^2 / (1 - theta)``. A minimax
swap gives ``W(theta) = sup h`` over density matrices ``U diag(p) U^dagger``
and ``V diag(q) V^dagger``, where with ``y_k = U^dagger x_k V``
``h = sum_k sum_ij |y_k[i,j]|^2 p_i q_j / ((1 - theta) p_i + theta q_j)``,
attained at ``T_k = U t_k V^dagger`` with ``t_k[i,j] = y_k[i,j] theta q_j /
((1 - theta) p_i + theta q_j)``. So each pair gives a certified lower bound
``h`` and a splitting whose exact objective is a certified upper bound;
exponentiated-gradient steps on the logs of the pair close the gap, and a
golden-section search finds theta. All norms are computed at the exact
power-of-two scale of the largest entry, so no square under- or overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import ValidationError
from .linalg import as_matrix, operator_norm, pow2_restore, pow2_scaled, pow2_times

__all__ = [
    "as_stack",
    "row_norm",
    "col_norm",
    "rc_norm",
    "SplitResult",
    "rplus2c_split",
    "rplusc_split",
    "mix_tuple",
    "ordering_check",
]


# Nothing in qxor calls scipy, and importing qxor does not load it. The
# benchmark's tracer still counts calls to ``qxor.tuples.minimize`` and looks
# the name up with a getattr that has no default, so this hook imports the
# scipy function on first access. Delete it once the benchmark drops that
# counter.
def __getattr__(name):
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def as_stack(t) -> np.ndarray:
    """The ``(d, r, c)`` complex stack of a nonempty sequence of matrices of
    one shape; the one validator of tuples."""
    mats = [as_matrix(e) for e in t]
    if not mats:
        raise ValidationError("tuple must contain at least one matrix")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValidationError("tuple entries must share a shape")
    return np.stack(mats)


def row_norm(t) -> float:
    x, e = pow2_scaled(as_stack(t))
    return pow2_restore(math.sqrt(operator_norm(np.einsum("kab,kcb->ac", x, x.conj()))), e)


def col_norm(t) -> float:
    x, e = pow2_scaled(as_stack(t))
    return pow2_restore(math.sqrt(operator_norm(np.einsum("kba,kbc->ac", x.conj(), x))), e)


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


_TOL = 1e-7  # relative gap of the squared value at which a solve stops
_MAX_STEPS = 5_000
# the inexact solves of the linear norm's search over theta, which bound its gap
_SEARCH_TOL, _SEARCH_STEPS, _SEARCH_WIDTH = 1e-5, 100, 1e-3
_GOLDEN = (math.sqrt(5) - 1) / 2
_LOG_RANGE = 30.0  # eigenvalues of log rho, log sigma stay within this of the top


@dataclass(frozen=True)
class SplitResult:
    """``value``, the exact objective at the splitting ``row_part + col_part``,
    bounds the infimum from above and ``lower`` from below; ``converged``: their
    squares are within ``_TOL`` relative (``_SEARCH_TOL`` for the linear norm)."""
    value: float
    row_part: np.ndarray = field(repr=False)
    col_part: np.ndarray = field(repr=False)
    converged: bool
    lower: float

    @property
    def weight(self) -> float:
        """``value`` squared, an upper bound on the squared infimum: a square
        below the normal float range is rounded up, never to zero."""
        w = self.value * self.value
        return math.nextafter(w, math.inf) if 0 < self.value and w < sys.float_info.min else w


def _density(log_m: np.ndarray):
    """``U``, ``p`` of ``exp(L) / tr exp(L) = U diag(p) U^dagger`` and ``L``
    shifted to top eigenvalue 0 and clipped at ``-_LOG_RANGE``, so it cannot
    drift and a small weight grows back fast."""
    l, u = np.linalg.eigh(log_m)
    l = np.maximum(l - l[-1], -_LOG_RANGE)
    p = np.exp(l)
    return u, p / p.sum(), (u * l) @ u.conj().T


def _dual_point(x: np.ndarray, theta: float, logs):
    """``h``, the exact weighted objective at its minimiser ``T``, ``T``, the
    gradient of ``h`` in (rho, sigma) and the clipped logs."""
    (u, p, lr), (v, q, lc) = _density(logs[0]), _density(logs[1])
    y = u.conj().T @ x @ v
    p, q = p[:, None], q[None, :]
    a = theta * q / ((1 - theta) * p + theta * q)
    t = a * y
    s = y - t
    h = float(np.sum(np.abs(y) ** 2 * p * a)) / theta
    gr = np.einsum("kab,kcb->ac", t, t.conj()) / theta
    gc = np.einsum("kba,kbc->ac", s.conj(), s) / (1 - theta)
    upper = float(np.linalg.eigvalsh(gr)[-1] + np.linalg.eigvalsh(gc)[-1])
    uh, vh = u.conj().T, v.conj().T
    return h, upper, u @ t @ vh, (u @ gr @ uh, v @ gc @ vh), (lr, lc)


def _solve(x: np.ndarray, theta: float, logs, tol: float, max_steps: int):
    """Exponentiated-gradient ascent on ``h`` with Nesterov momentum until the
    gap of the best bounds is within ``tol``: the step grows 5% while ``h``
    rises; a drop beyond rounding halves it (to at least 1% of its start) and
    restarts the momentum. Returns both bounds, ``T``, the logs and success."""
    h, upper, t_best, grads, logs = _dual_point(x, theta, logs)
    best_h, best_logs, prev, run = h, logs, logs, 0
    eta = eta0 = 4.0 / rc_norm(x) ** 2
    for _ in range(max_steps):
        if upper - best_h <= tol * upper:
            break
        beta = run / (run + 3)
        trial = tuple(l + eta * g + beta * (l - o) for l, g, o in zip(logs, grads, prev))
        prev = logs
        h_new, upper_new, t, grads, logs = _dual_point(x, theta, trial)
        if upper_new < upper:
            upper, t_best = upper_new, t
        if h_new >= h - 1e-14 * h:
            eta, run = eta * 1.05, run + 1
        else:
            eta, run = max(eta / 2, eta0 / 100), 0
        h = h_new
        if h > best_h:
            best_h, best_logs = h, logs
    return upper, best_h, t_best, best_logs, upper - best_h <= tol * upper


def _golden(f, width: float) -> float:
    """Golden-section search for the minimiser of a convex ``f`` on (0, 1)."""
    a, b = 0.0, 1.0
    c, d = 1 - _GOLDEN, _GOLDEN
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return c if fc <= fd else d


def _linear_lower_sq(x: np.ndarray, duals) -> float:
    """Certified lower bound on the squared linear norm by weak duality: the
    minimum over theta of the convex max of ``h`` over the pairs in
    ``duals``, less ``width`` times its steepest slope at the point found."""
    parts = []
    for logs in duals:
        (u, p, _), (v, q, _) = _density(logs[0]), _density(logs[1])
        w = np.sum(np.abs(u.conj().T @ x @ v) ** 2, axis=0)
        parts.append((w * np.outer(p, q), p[:, None], q[None, :]))
    wpq, p, q = (np.stack(z) for z in zip(*parts))

    def terms(theta, power):
        den = (1 - theta) * p + theta * q
        return np.sum(wpq / den * ((p - q) / den) ** power, axis=(1, 2))

    width = 1e-9
    theta = _golden(lambda th: float(terms(th, 0).max()), width)
    slope = float(np.abs(terms(theta, 1)).max())
    return max(0.0, float(terms(theta, 0).max()) - width * slope)


def _solve_split(t, quadratic: bool, inits: Optional[Sequence] = None) -> SplitResult:
    x, e = pow2_scaled(as_stack(t))
    if not x.any():
        return SplitResult(0.0, np.zeros_like(x), np.zeros_like(x), True, 0.0)
    logs = (np.zeros((x.shape[1],) * 2, complex), np.zeros((x.shape[2],) * 2, complex))
    if quadratic:
        _, h, t_fp, _, _ = _solve(x, 0.5, logs, _TOL, _MAX_STEPS)
        lower_sq, tol = h / 2, _TOL
    else:
        duals = [logs]

        def search(theta):
            _, h, _, warm, _ = _solve(x, theta, duals[-1], _SEARCH_TOL, _SEARCH_STEPS)
            duals.append(warm)
            return h

        theta = _golden(search, _SEARCH_WIDTH)
        _, _, t_fp, logs, _ = _solve(x, theta, duals[-1], _TOL, _MAX_STEPS)
        lower_sq, tol = _linear_lower_sq(x, duals[1:] + [logs]), _SEARCH_TOL
    # warm starts and the two pure splittings compete with the fixed point;
    # the first of equal values wins
    starts = [pow2_times(as_stack(i), -e) for i in inits or ()] + [t_fp, x, np.zeros_like(x)]
    norms = [(row_norm(s), col_norm(x - s)) for s in starts]
    vals = [math.sqrt(r * r + c * c) if quadratic else r + c for r, c in norms]
    k = int(np.argmin(vals))
    val, lower = vals[k], math.sqrt(lower_sq)
    return SplitResult(pow2_restore(val, e), pow2_times(starts[k], e),
                       pow2_times(x - starts[k], e), val * val - lower * lower <= tol * val * val,
                       pow2_restore(lower, e))


def rplus2c_split(t, inits: Optional[Sequence] = None) -> SplitResult:
    """Quadratic splitting infimum with the achieved splitting attached."""
    return _solve_split(t, quadratic=True, inits=inits)


def rplusc_split(t, inits: Optional[Sequence] = None) -> SplitResult:
    """Linear splitting infimum, inf row(T) + col(S)."""
    return _solve_split(t, quadratic=False, inits=inits)


# ---------------------------------------------------------------------------
# ordering of positive tuple forms
# ---------------------------------------------------------------------------


_ORDER_TOL = 1e-9  # relative residual and contraction slack of the ordering test


def ordering_check(xs, ys):
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
    if residual > _ORDER_TOL * scale:
        return False, None
    if operator_norm(a) > 1 + _ORDER_TOL:
        return False, None
    return True, a
