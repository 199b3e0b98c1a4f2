"""Factorization-norm layer: checks of the splitting weight on positive
tuple forms (the weight of ``t`` is ``rplus2c_split(t).weight``), the
decomposition seminorm over row-intersect-column, its relation to the
factorization norm, and the certificate checks for sandwich maps and the
cb-versus-summing comparison.

Two universal constants appear as test bounds:

* ``MAB_FACTORIZATION_CONSTANT`` (4 sqrt 2): the factorization norm of a
  two-sided Hilbert-Schmidt sandwich map never exceeds it, so any sound
  lower bound on its completely bounded norm must stay below it.
* ``CB_VS_SUMMING_CONSTANT`` (8 sqrt 2): the completely bounded norm of a
  map into trace-class is at most this factor times its (1, cb)-summing
  norm.

Both are used only in the sound direction: a certified cb lower bound that
exceeded them would expose a bug in the lower-bound engine, never in the
inequalities.

Over trace class the row and the column cap of a tuple are equal, so the
bounds here evaluate the one cap :func:`qxor.opnorms.dual_tuple_cap`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundInterval
from .budget import SolverBudget
from .config import ValidationError, is_count
from .games import mab_tensor
from .linalg import as_matrix, pow2_restore, pow2_scaled, pow2_times, regroup
from .maps import KernelMap, Space, dual_space, full_matrix_space
from .opnorms import cb_norm_bounds, dual_tuple_cap, dual_tuple_caps
from .tuples import (
    SplitResult,
    as_stack,
    col_norm,
    mix_tuple,
    ordering_check,
    rc_norm,
    row_norm,
    rplus2c_split,
    rplusc_split,
)

__all__ = [
    "MAB_FACTORIZATION_CONSTANT",
    "CB_VS_SUMMING_CONSTANT",
    "WeightSandwich",
    "weight_sandwich_check",
    "weight_subadditivity_check",
    "weight_monotonicity_check",
    "weight_homogeneity_check",
    "TensorElement",
    "tensor_from_kernel",
    "GammaResult",
    "gamma_rc_upper",
    "gamma_to_Gamma",
    "mab_certify",
    "chain_check",
    "exhaustive_sign_one_norm",
]

MAB_FACTORIZATION_CONSTANT = 4 * math.sqrt(2)
CB_VS_SUMMING_CONSTANT = 8 * math.sqrt(2)


# ---------------------------------------------------------------------------
# the splitting weight
# ---------------------------------------------------------------------------

_CHECK_TOL = 1e-6  # absolute slack of the weight checks; relative for homogeneity


@dataclass(frozen=True)
class WeightSandwich:
    lower: float
    w: float
    upper: float
    ok: bool


def weight_sandwich_check(t, *, split: SplitResult) -> WeightSandwich:
    """Check that the weight sits between half the squared linear splitting
    norm and the squared linear splitting norm itself.

    Cross warm starts make the comparison sound at solver accuracy: the
    quadratic value is re-evaluated on the linear solver's splitting and
    vice versa, so the per-splitting mean-square inequalities apply.
    ``split`` is ``rplus2c_split(t)``.
    """
    q_res = rplusc_split(as_stack(t), inits=[split.row_part])
    quad_at_q = math.sqrt(
        row_norm(q_res.row_part) ** 2 + col_norm(q_res.col_part) ** 2
    )
    w_val = min(split.value, quad_at_q) ** 2
    q_sq = q_res.value ** 2
    ok = (q_sq / 2 - _CHECK_TOL <= w_val <= q_sq + _CHECK_TOL)
    return WeightSandwich(q_sq / 2, w_val, q_sq, ok)


def weight_subadditivity_check(x, y, *, x_split: SplitResult, y_split: SplitResult):
    """w(concatenation) <= w(x) + w(y); the concatenated solve warm-starts
    from the block splitting of the parts, which realizes the inequality.
    ``x_split`` and ``y_split`` are the ``rplus2c_split`` of ``x`` and ``y``."""
    joint_init = np.concatenate([x_split.row_part, y_split.row_part], axis=0)
    joint = rplus2c_split(np.concatenate([as_stack(x), as_stack(y)], axis=0), inits=[joint_init])
    lhs = joint.value ** 2
    rhs = x_split.value ** 2 + y_split.value ** 2
    return lhs, rhs, lhs <= rhs + _CHECK_TOL


def weight_monotonicity_check(xs, ys, *, ys_split: SplitResult):
    """When the ordering test dominates xs by ys, the weight must follow.
    ``ys_split`` is ``rplus2c_split(ys)``."""
    dominated, a = ordering_check(xs, ys)
    if not dominated:
        raise ValidationError("monotonicity check needs a dominated pair")
    warm = [mix_tuple(a, ys_split.row_part)]
    wx = rplus2c_split(xs, inits=warm).value ** 2
    wy = ys_split.value ** 2
    return wx, wy, wx <= wy + _CHECK_TOL


def weight_homogeneity_check(t, factor: float, *, split: SplitResult):
    """w(sqrt(factor) x) = factor w(x) up to solver accuracy. ``split`` is
    ``rplus2c_split(t)``."""
    scaled = rplus2c_split(
        math.sqrt(factor) * as_stack(t), inits=[math.sqrt(factor) * split.row_part]
    )
    lhs = scaled.value ** 2
    rhs = factor * split.value ** 2
    ok = abs(lhs - rhs) <= _CHECK_TOL * max(rhs, 1e-30)
    return lhs, rhs, ok


# ---------------------------------------------------------------------------
# tuple norms with trace-class carriers
# ---------------------------------------------------------------------------

_DUAL_SPLITS = 6  # the most random splits a trace-class upper bound draws


def tuple_rplus2c_upper_in_space(t, space: Space, budget: SolverBudget) -> float:
    """Certified upper bound for the quadratic splitting norm over a
    carrier space; exact-solver value for matrix carriers, a budgeted
    splitting search with certified caps for trace-class carriers.

    Over trace class the row and the column cap of a tuple are the same
    number K (:func:`dual_tuple_cap`), so of the splits ``(lam x, (1-lam)
    x)`` the equal one is best, at ``K / sqrt(2)``; up to ``_DUAL_SPLITS``
    random per-entry splits follow. They are compared at the exact
    power-of-two scale of the tuple, so no cap or square overflows, and
    the best is scaled back."""
    x = as_stack(t)
    if space.kind == "matrix":
        return rplus2c_split(x).value
    x, e = pow2_scaled(x)
    rng = budget.rng("dual-split")
    tparts = [rng.uniform(0.0, 1.0, size=x.shape[0])[:, None, None] * x
              for _ in range(min(budget.restarts, _DUAL_SPLITS))]
    # the caps of x, then of each split's two parts, from one stacked evaluation
    caps = dual_tuple_caps(np.stack([x] + [p for t in tparts for p in (t, x - t)])).tolist()
    best = caps[0] / math.sqrt(2)
    for row_cap, col_cap in zip(caps[1::2], caps[2::2]):
        best = min(best, math.sqrt(row_cap ** 2 + col_cap ** 2))
    return pow2_restore(best, e)


# ---------------------------------------------------------------------------
# tensor elements and the decomposition seminorm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorElement:
    X: Space
    Y: Space
    coeff: np.ndarray = field(repr=False)  # (dimX^2, dimY^2) under raveled bases

    def __post_init__(self):
        c = as_matrix(self.coeff)
        nx, ny = self.X.dim, self.Y.dim
        if c.shape != (nx * nx, ny * ny):
            raise ValidationError("coefficient shape does not match the spaces")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)

    def schmidt_decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Balanced singular-term decomposition z = sum_i x_i (x) y_i."""
        nx, ny = self.X.dim, self.Y.dim
        u, s, vh = np.linalg.svd(self.coeff)
        keep = s > 1e-14 * (s[0] if s.size else 1.0)
        xs, ys = [], []
        for i in np.nonzero(keep)[0]:
            xs.append(math.sqrt(s[i]) * u[:, i].reshape(nx, nx))
            ys.append(math.sqrt(s[i]) * vh[i].reshape(ny, ny))
        if not xs:
            xs = [np.zeros((nx, nx), dtype=complex)]
            ys = [np.zeros((ny, ny), dtype=complex)]
        return np.stack(xs), np.stack(ys)

    def reconstruct(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xf = xs.reshape(xs.shape[0], -1)
        yf = ys.reshape(ys.shape[0], -1)
        return xf.T @ yf


def tensor_from_kernel(kernel, n: int, m: int) -> TensorElement:
    """View a bipartite kernel as an element of trace-class (x) trace-class,
    with coefficients ``C[(p,q),(r,s)] = G[(p,r),(q,s)]``."""
    if not (is_count(n) and is_count(m)):
        raise ValidationError("register dimensions must be positive integers")
    coeff = regroup(as_matrix(kernel), (n, m, n, m), (0, 2, 1, 3))
    return TensorElement(dual_space(n), dual_space(m), coeff)


@dataclass(frozen=True)
class GammaResult:
    gamma_upper: float
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    x_norm_upper: float
    y_norm_upper: float
    evaluations: int


def _gamma_objective(z: TensorElement, xs, ys, budget) -> tuple[float, float, float]:
    if z.X.kind == "matrix":
        xn = rc_norm(xs)
    else:
        xn = dual_tuple_cap(xs)  # its row and its column cap, which are equal
    yn = tuple_rplus2c_upper_in_space(ys, z.Y, budget)
    return xn * yn, xn, yn


def _evaluable(z: TensorElement) -> tuple[TensorElement, int]:
    """``(z, 0)``, or ``(z * 2**-e, e)`` when a coefficient is too large to
    evaluate (probed to 1e304 on every space kind at dims 1-3); every bound
    here is positively homogeneous, so it scales back exactly."""
    coeff, e = pow2_scaled(z.coeff)
    return (z, 0) if e <= 1000 else (TensorElement(z.X, z.Y, coeff), e)


def gamma_rc_upper(z: TensorElement, budget: SolverBudget) -> GammaResult:
    """Upper bound on the decomposition seminorm built from row-intersect-
    column on the left factor and the quadratic splitting norm on the right.

    Starts from the balanced singular-term decomposition and descends over
    invertible mixings x -> R x, y -> (R^-1)^T y, which leave the tensor
    invariant by construction (asserted numerically each accepted step).
    All evaluations are certified uppers, so the result is a true upper
    bound for every decomposition visited; one beyond the float range is
    ``inf``.
    """
    z, e = _evaluable(z)
    xs, ys = z.schmidt_decomposition()
    scale = float(np.abs(z.coeff).max(initial=0.0))
    if scale == 0.0:
        return GammaResult(0.0, xs, ys, 0.0, 0.0, 1)

    best, xn, yn = _gamma_objective(z, xs, ys, budget)
    # rebalance overall scale: the product is invariant, but balanced
    # factors keep the mixing search conditioned; both norms are
    # homogeneous, so they follow the factors
    t = math.sqrt(yn / xn) if xn > 0 and yn > 0 else 1.0
    xs, ys, xn, yn = xs * t, ys / t, xn * t, yn / t
    evaluations = 1
    r = xs.shape[0]
    rng = budget.rng("gamma")
    sigma = 0.3
    steps = max(10, 4 * budget.restarts)
    for _ in range(steps):
        noise = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        mix = np.eye(r) + sigma * noise
        try:
            inv_t = np.linalg.inv(mix).T
        except np.linalg.LinAlgError:
            continue
        xs_c = mix_tuple(mix, xs)
        ys_c = mix_tuple(inv_t, ys)
        recon = z.reconstruct(xs_c, ys_c)
        if np.abs(recon - z.coeff).max() > 1e-10 * max(1.0, scale):
            sigma *= 0.7
            continue
        val, xn_c, yn_c = _gamma_objective(z, xs_c, ys_c, budget)
        evaluations += 1
        if val < best:
            best = val
            t = math.sqrt(yn_c / xn_c) if xn_c > 0 and yn_c > 0 else 1.0
            xs, ys, xn, yn = xs_c * t, ys_c / t, xn_c * t, yn_c / t
            sigma = min(0.5, sigma * 1.3)
        else:
            sigma = max(1e-3, sigma * 0.85)
    ex, ey = e // 2, e - e // 2
    return GammaResult(pow2_restore(best, e), pow2_times(xs, ex), pow2_times(ys, ey),
                       pow2_restore(xn, ex), pow2_restore(yn, ey), evaluations)


def gamma_to_Gamma(z: TensorElement, gamma_upper: float, budget: SolverBudget,
                   schedule) -> BoundInterval:
    """Interval for the factorization norm of the map attached to a tensor.

    Lower: the completely bounded norm never exceeds the factorization
    norm, so any certified cb lower works. Upper: sqrt(2) times the
    decomposition seminorm upper. An inverted interval indicates a solver
    bug, because the comparison theorems forbid it. An upper beyond the
    float range is ``inf``, and a lower is rounded down to the largest float.
    """
    if z.X.kind != "dual":
        raise ValidationError(
            "factorization bounds are implemented for trace-class left factors"
        )
    z, e = _evaluable(z)
    gamma_upper = pow2_restore(gamma_upper, -e)
    n, m = z.X.dim, z.Y.dim
    # the inverse of the realignment in tensor_from_kernel
    kernel = regroup(z.coeff, (n, n, m, m), (0, 2, 1, 3))
    t_z = KernelMap(full_matrix_space(n), z.Y, kernel)
    res = cb_norm_bounds(t_z, schedule=schedule, budget=budget)
    lower = res.interval.lower
    upper = math.sqrt(2) * gamma_upper
    if lower > upper + 1e-6 * max(1.0, upper):
        raise ValidationError(
            f"factorization interval inverted: cb lower {lower} exceeds "
            f"sqrt(2) gamma {upper}; solver bug"
        )
    return BoundInterval(min(pow2_restore(min(lower, upper), e), sys.float_info.max),
                         pow2_restore(upper, e), res.interval.lower_method, "sqrt2_gamma")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def mab_certify(a, b, budget: SolverBudget, schedule) -> tuple[float, bool]:
    """Soundness certificate for the lower-bound engine on sandwich maps.

    For Hilbert-Schmidt-normalized factors the factorization norm of
    x -> a x b is at most ``MAB_FACTORIZATION_CONSTANT``; a certified cb
    lower bound above it would be a bug.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if np.linalg.norm(a, "fro") > 1 + 1e-10 or np.linalg.norm(b, "fro") > 1 + 1e-10:
        raise ValidationError("factors must lie in the Hilbert-Schmidt unit ball")
    p = a.shape[0]
    u = KernelMap(full_matrix_space(p), dual_space(p), mab_tensor(a, b))
    res = cb_norm_bounds(u, schedule=schedule, budget=budget)
    cb_lower = res.interval.lower
    return cb_lower, cb_lower <= MAB_FACTORIZATION_CONSTANT + 1e-4


def chain_check(map_rep: KernelMap, known_pi1cb: float, budget: SolverBudget,
                schedule) -> tuple[float, float, bool]:
    """Compare a certified cb lower bound against the summing-norm cap.

    ``known_pi1cb`` must be an analytically known value or a valid upper
    bound for the (1, cb)-summing norm of the map."""
    res = cb_norm_bounds(map_rep, schedule=schedule, budget=budget)
    cb_lower = res.interval.lower
    bound = CB_VS_SUMMING_CONSTANT * known_pi1cb + 1e-4
    return cb_lower, bound, cb_lower <= bound


def exhaustive_sign_one_norm(M) -> float:
    """max over sign vectors s of || M s ||_1, the exhaustive oracle for the
    diagonal-carrier norm of a real coefficient matrix. It enumerates all
    2**columns signs, so it takes a finite matrix of at most 16 columns."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] > 16 or not np.isfinite(M).all():
        raise ValidationError("the sign oracle takes a finite real matrix of at most "
                              f"16 columns, got shape {M.shape}")
    n = M.shape[1]
    best = 0.0
    for bits in range(2 ** n):
        s = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])
        best = max(best, float(np.abs(M @ s).sum()))
    return best
