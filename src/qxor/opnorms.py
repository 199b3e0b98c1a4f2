"""Amplified operator norms, completely bounded norm intervals, and the
2-summing norm.

Lower bounds come from block-coordinate ascent (see-saw) where every block
update is a closed-form norm-attaining choice: polar contractions for
matrix blocks and top singular pairs for vectors. Each reported lower is
the objective of an explicitly feasible point, so it is a true lower bound
regardless of solver quality. A sweep reads only the matrices that the
last feasible point induces, the images ``W`` and for the trace-class
codomain the pairing ``P``, and builds every block afresh from them; so
any point in those matrices gives a feasible state, and
:func:`~qxor.budget.seesaw` runs the sweeps in its squared-extrapolation
cycles on them. Upper bounds come from decomposition caps that are valid
by the triangle inequality plus the contractivity of rank-one factors;
exhausting a budget can only weaken them, never break their direction.

A :class:`KernelMap` acts on the full matrix algebra ``M_n``, so the
input of every see-saw ranges over the whole unit ball of ``M_L(M_n)``; a
map from the diagonal algebra is a :class:`VectorMap`. Pairings between
trace-class and matrix levels are bilinear, ``<z, x> = tr(z x)``, and the
dual variable lives at the outer level ``L``.

Warm embedding: a see-saw core's state is a tuple of arrays, and each core
zero-pads a lower level's state to the shapes of its own identity start and
runs it as its first start. Zero-padding keeps a witness feasible with the
same value, so callers pass a state from one level to the next as it is,
and the lower bounds over a level schedule never fall.

The row and column embeddings of a tuple over trace class have one
singular-term cap, :func:`dual_tuple_cap`, evaluated on a stack of tuples by
:func:`dual_tuple_caps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import BoundInterval
from .budget import SolverBudget, ladder_restarts, normalize_schedule, seesaw
from .config import ConvergenceError, ValidationError
from .linalg import (
    operator_norm,
    polar_stack,
    pow2_restore,
    pow2_scaled,
    regroup,
    trace_norm,
    zero_pad,
)
from .maps import KernelMap, VectorMap

__all__ = [
    "dual_tuple_cap",
    "dual_tuple_caps",
    "amplified_norm",
    "cb_norm_bounds",
    "CbNormResult",
    "pietsch_pi2",
]


# Nothing in qxor calls scipy, and importing qxor does not load it. The
# benchmark's tracer still counts calls to ``qxor.opnorms.linprog`` and looks
# the name up with a getattr that has no default, so this hook imports the
# scipy function on first access. Delete it once the benchmark drops that
# counter.
def __getattr__(name):
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# certified caps
# ---------------------------------------------------------------------------

def dual_tuple_cap(x: np.ndarray) -> float:
    """Certified upper bound on the norms of both the row embedding
    sum_k e_{1k} (x) x_k and the column embedding sum_k e_{k1} (x) x_k of a
    tuple over trace class: the first entry of :func:`dual_tuple_caps`.

    Split the d x n^2 stack of the x_k into its singular terms
    s_t c_t f_t^T above a relative 1e-15. Each term is C_t (x) F_t with
    ``F_t`` the n x n matrix of ``f_t`` and ``C_t`` carrying ``c_t`` in one
    row (column), so ``||C_t|| = 1``; a rank-one trace functional has
    completely bounded norm equal to its trace norm, so the term adds
    s_t ||F_t||_1, and the two caps are one number.
    """
    return float(dual_tuple_caps(x[None])[0])


def dual_tuple_caps(xs: np.ndarray) -> np.ndarray:
    """:func:`dual_tuple_cap` of every tuple of the stack ``xs`` of shape
    ``(..., d, n, n)``, from one SVD of the tuples and one of their terms;
    each cap sums its terms in order, as a running total. The stack is
    solved at the exact power-of-two scale of its largest entry, so the
    SVDs cannot overflow, and a cap beyond the float range is ``inf``."""
    xs, e = pow2_scaled(xs)
    d, n = xs.shape[-3], xs.shape[-2]
    u, s, vh = np.linalg.svd(xs.reshape(xs.shape[:-3] + (d, n * n)), full_matrices=False)
    keep = s > 1e-15 * s[..., :1]  # s is descending, so the kept terms lead
    f = vh.reshape(vh.shape[:-1] + (n, n))
    finite = np.isfinite(u).all(axis=-2) & np.isfinite(f).all(axis=(-2, -1))
    if (keep & ~finite).any():
        raise ValidationError("matrix entries must be finite")
    trace = np.linalg.svd(np.where(keep[..., None, None], f, 0), compute_uv=False).sum(axis=-1)
    caps = np.cumsum(np.where(keep, s * trace, 0.0), axis=-1)[..., -1]
    with np.errstate(over="ignore"):
        return np.ldexp(caps, e)


def _nuclear_cap(u: KernelMap) -> float:
    """sum_ij ||u(E_ij)|| over the matrix units of ``M_n``, whose dual
    functionals are the units themselves; valid for every amplification
    level. The codomain is a matrix space, so each norm is the operator
    norm. The norms come from one stacked SVD and are summed ``i`` major."""
    n, m = u.n, u.m
    images = regroup(u.kernel, (n, m, n, m), (0, 2, 1, 3)).reshape(n * n, m, m)  # u(E_ij)
    return float(np.cumsum(np.linalg.svd(images, compute_uv=False)[:, 0])[-1])


# ---------------------------------------------------------------------------
# see-saw cores
# ---------------------------------------------------------------------------
#
# A core builds its starts one at a time and sweeps them as one stack: the
# helpers below take arrays with any leading batch shape, and the sweeps
# take every state component with a leading start axis. A core values a
# feasible point in one local ``derive``, which its starts call on their
# contracted inputs and its sweep on the point it reaches. A core returns the
# state of its best start, with its unit vectors as (L, L) or (L, m)
# matrices, and embeds a ``warm`` state as the module docstring says.

def _blocks(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``x`` with its trailing four axes merged pairwise into a matrix."""
    return x.reshape(x.shape[:-4] + (rows, cols))


def _form(umat: np.ndarray, w: np.ndarray, vmat: np.ndarray) -> np.ndarray:
    """``Re u^dagger w v`` per batch entry, for unit vectors ``u`` and ``v``
    given as matrices and read row-major."""
    uvec = umat.reshape(umat.shape[:-2] + (1, -1))
    vvec = vmat.reshape(vmat.shape[:-2] + (-1, 1))
    return np.real(uvec.conj() @ w @ vvec)[..., 0, 0]


def _embedded(warm, start: tuple) -> list:
    """``[warm]`` with each array zero-padded to the shape of the same
    component of ``start``, or ``[]`` when ``warm`` is None."""
    if warm is None:
        return []
    return [tuple(zero_pad(a, b.shape) for a, b in zip(warm, start))]


def _top_pair(x: np.ndarray) -> tuple:
    """Top singular value and pair ``(s, u, v)`` of every matrix, with
    ``x v = s u``."""
    xu, xs, xvh = np.linalg.svd(x)
    return xs[..., 0], xu[..., :, 0], xvh[..., 0, :].conj()


def _feasible_input(z4: np.ndarray) -> np.ndarray:
    """The input blocks ``z4`` divided by their norm where it exceeds one."""
    L, n = z4.shape[-4], z4.shape[-3]
    nrm = np.linalg.svd(_blocks(z4, L * n, L * n), compute_uv=False)[..., 0]
    return z4 / np.maximum(nrm, 1.0)[..., None, None, None, None]


def _input_update(c4) -> np.ndarray:
    """Norm-attaining input against the coefficient blocks ``c4``: the
    polar of their transpose."""
    L, n = c4.shape[-4], c4.shape[-3]
    return polar_stack(_blocks(c4, L * n, L * n).swapaxes(-1, -2)).reshape(c4.shape)


def _partial_swap(L: int, n: int) -> np.ndarray:
    """The swap e_i (x) e_j -> e_j (x) e_i on C^L (x) C^n, restricted to
    indices below min(L, n); a partial permutation, so a contraction."""
    s = np.zeros((L * n, L * n), dtype=complex)
    for i in range(min(L, n)):
        for j in range(min(L, n)):
            s[i * n + j, j * n + i] = 1.0
    return s


def _pair_matrix(umat: np.ndarray, vmat: np.ndarray) -> np.ndarray:
    """``X[(i,j),(a,b)] = conj(u[i,a]) v[j,b]`` per batch entry, so that
    ``Re u^dagger M v = Re tr(X M~)`` for ``M~[(a,b),(i,j)] = M[(i,a),(j,b)]``."""
    x = umat.conj()[..., :, None, :, None] * vmat[..., None, :, None, :]
    s = x.shape
    return x.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))


def _amp_kernels(u: KernelMap, L: int):
    """``(image, pairing, dual_coeff, input_coeff)`` of the level-L see-saw
    cores, with the kernel ``K[(p,q),(r,s)] = g4[p,r,q,s]`` built once from
    ``g4[p,r,q,s] = G[(p,r),(q,s)]``. Each takes matrices or block arrays
    with any leading batch shape and is one matrix product:

    * ``image(z4)``: ``W = Z~ K``, the blocks ``W[(a,b),(r,s)] = u(z_ab)[r,s]``
      of the input ``z4[a,p,b,q]`` read as ``Z~[(a,b),(p,q)]``;
    * ``pairing(w, vt)``: ``P[(i,a),(j,b)] = (W V~)[(a,b),(i,j)]``, the
      pairing of ``W`` with the dual variable ``v4[i,s,j,r]`` read as
      ``V~[(r,s),(i,j)]``;
    * ``dual_coeff(x, w)``: ``E[(i,s),(j,r)] = (X W)[(i,j),(r,s)]`` for the
      :func:`_pair_matrix` ``X`` of the unit vectors;
    * ``input_coeff(y)``: the coefficient blocks ``c4[a,p,b,q] = (Y K^T)[(a,b),(p,q)]``
      of an input, for ``Y[(a,b),(r,s)]``.
    """
    n, m = u.n, u.m
    k = regroup(u.kernel, (n, m, n, m), (0, 2, 1, 3))

    def image(z4):
        return _blocks(z4.swapaxes(-3, -2), L * L, n * n) @ k

    def pairing(w, vt):
        return regroup(w @ vt, (L, L, L, L), (2, 0, 3, 1))

    def dual_coeff(x, w):
        return regroup(x @ w, (L, L, m, m), (0, 3, 1, 2))

    def input_coeff(y):
        c = y @ k.T
        return c.reshape(c.shape[:-2] + (L, L, n, n)).swapaxes(-3, -2)

    return image, pairing, dual_coeff, input_coeff


def _amp_into_dual(u: KernelMap, L: int, budget: SolverBudget, warm=None):
    """See-saw lower bound for || id_{M_L} (x) u || with trace-class
    codomain; a state is ``(z4, v4, u, v)`` with ``u`` and ``v`` of shape
    ``(L, L)``: the input ``z4[a,p,b,q]`` of norm at most one, the dual
    variable ``v4[i,s,j,r]`` of norm at most one and the unit vectors
    ``u[i,a]``, ``v[j,b]``. The value is ``Re u^dagger P v`` for the
    pairing ``P[(i,a),(j,b)] = sum_rs u(z_ab)[r,s] v4[i,s,j,r]``; a sweep
    updates ``(u, v)`` to the top singular pair of ``P``, ``v4`` to the
    polar of ``E^T`` and ``z4`` to the polar of its coefficient
    ``X^T V~^T K^T``, in the layouts of :func:`_amp_kernels`. It reads only
    ``W`` and ``P``, the components the driver extrapolates."""
    n, m = u.n, u.m
    image, pairing, dual_coeff, input_coeff = _amp_kernels(u, L)

    def dual_matrix(v4):  # V~[(r,s),(i,j)] = v4[i,s,j,r]
        return regroup(_blocks(v4, L * m, L * m), (L, m, L, m), (3, 1, 0, 2))

    uv = np.eye(L, dtype=complex) / math.sqrt(L)  # the maximally entangled vector
    ident = (np.eye(L * n, dtype=complex).reshape(L, n, L, n),
             np.eye(L * m, dtype=complex).reshape(L, m, L, m), uv, uv)
    # transpose-flavored start: swap patterns on both sides
    swap = (_partial_swap(L, n).reshape(L, n, L, n),
            _partial_swap(L, m).reshape(L, m, L, m), uv, uv)
    starts = _embedded(warm, ident) + [ident, swap]
    for i in range(len(starts), len(starts) + ladder_restarts(budget, warm is None)):
        rng = budget.rng("amp-dual", i)
        z4 = (rng.normal(size=(L, n, L, n)) + 1j * rng.normal(size=(L, n, L, n)))
        v = rng.normal(size=(L * m, L * m)) + 1j * rng.normal(size=(L * m, L * m))
        v /= max(1.0, operator_norm(v))
        uv = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
        uw = rng.normal(size=L * L) + 1j * rng.normal(size=L * L)
        starts.append((z4, v.reshape(L, m, L, m), (uv / np.linalg.norm(uv)).reshape(L, L),
                       (uw / np.linalg.norm(uw)).reshape(L, L)))

    def derive(z4, v4, umat, vmat, vt):  # vt is dual_matrix(v4)
        w = image(z4)
        p = pairing(w, vt)
        return _form(umat, p, vmat), (z4, v4, umat, vmat, w, p)

    def sweep(_, state):
        *_, w, p = state
        # singular-pair update
        _, uvec, vvec = _top_pair(p)
        u2 = uvec.reshape(-1, L, L)
        v2 = vvec.reshape(-1, L, L)
        x = _pair_matrix(u2, v2)
        # dual-variable update
        v4 = polar_stack(dual_coeff(x, w).swapaxes(-1, -2)).reshape(-1, L, m, L, m)
        vt = dual_matrix(v4)
        # input update
        c4 = input_coeff(x.swapaxes(-1, -2) @ vt.swapaxes(-1, -2))
        return derive(_input_update(c4), v4, u2, v2, vt)

    points = (derive(_feasible_input(z4), v4, a, b, dual_matrix(v4)) for z4, v4, a, b in starts)
    val, best, _ = seesaw(points, sweep, budget, extrapolate=(4, 5))
    return val, best[:4]


def _amp_into_matrix(u: KernelMap, L: int, budget: SolverBudget, warm=None):
    """See-saw lower bound with operator-norm codomain evaluation; a state
    is ``(z4, u, v)`` with ``u`` and ``v`` of shape ``(L, m)``: the input
    ``z4[a,p,b,q]`` of norm at most one and the unit vectors ``u[a,r]``,
    ``v[b,s]``. The value is ``Re u^dagger W v`` for the block matrix
    ``W[(a,r),(b,s)] = u(z_ab)[r,s]``; a sweep updates ``(u, v)`` to its top
    singular pair and ``z4`` to the polar of the coefficient ``Y K^T`` with
    ``Y`` the :func:`_pair_matrix` of ``(u, v)``, in the layouts of
    :func:`_amp_kernels`. It reads only ``W``, the component the driver
    extrapolates."""
    n, m = u.n, u.m
    image, _, _, input_coeff = _amp_kernels(u, L)

    e0 = np.zeros((L, m), dtype=complex)
    e0[0, 0] = 1.0
    ident = (np.eye(L * n, dtype=complex).reshape(L, n, L, n), e0, e0)
    uv1 = np.eye(L, m, dtype=complex) / math.sqrt(min(L, m))  # the same on C^L (x) C^m
    starts = _embedded(warm, ident) + [
        ident, (_partial_swap(L, n).reshape(L, n, L, n), uv1, uv1)]
    for i in range(len(starts), len(starts) + ladder_restarts(budget, warm is None)):
        rng = budget.rng("amp-mat", i)
        z4 = rng.normal(size=(L, n, L, n)) + 1j * rng.normal(size=(L, n, L, n))
        uv = rng.normal(size=L * m) + 1j * rng.normal(size=L * m)
        vv = rng.normal(size=L * m) + 1j * rng.normal(size=L * m)
        starts.append((z4, (uv / np.linalg.norm(uv)).reshape(L, m),
                       (vv / np.linalg.norm(vv)).reshape(L, m)))

    def derive(z4, umat, vmat):
        w = regroup(image(z4), (L, L, m, m), (0, 2, 1, 3))
        return _form(umat, w, vmat), (z4, umat, vmat, w)

    def sweep(_, state):
        *_, w = state
        _, uvec, vvec = _top_pair(w)
        u2 = uvec.reshape(-1, L, m)
        v2 = vvec.reshape(-1, L, m)
        return derive(_input_update(input_coeff(_pair_matrix(u2, v2))), u2, v2)

    points = (derive(_feasible_input(z4), a, b) for z4, a, b in starts)
    val, best, _ = seesaw(points, sweep, budget, extrapolate=(3,))
    return val, best[:3]


def _rc_level(blocks: np.ndarray, h: np.ndarray) -> tuple:
    """``(value, w, top_is_col)`` for sum_k C_k (x) h_k, per batch entry of
    ``blocks``: ``w`` is its ``(L, p, L)`` array, and the value is the
    larger of the norms of the column- and row-structured matrices of
    :func:`_rc_top`; ``top_is_col`` says which attains it (the column one
    on a tie)."""
    w = np.einsum("...kab,kr->...arb", blocks, h)
    ncol = np.linalg.svd(_rc_top(w, True), compute_uv=False)[..., 0]
    nrow = np.linalg.svd(_rc_top(w, False), compute_uv=False)[..., 0]
    return np.maximum(ncol, nrow), w, ncol >= nrow


def _rc_top(w: np.ndarray, col: bool) -> np.ndarray:
    """``w.reshape(L * p, L)`` or ``w.transpose(0, 2, 1).reshape(L, L * p)``
    for ``w`` from :func:`_rc_level`, per batch entry."""
    L, p = w.shape[-1], w.shape[-2]
    if col:
        return w.reshape(w.shape[:-3] + (L * p, L))
    return w.swapaxes(-1, -2).reshape(w.shape[:-3] + (L, L * p))


def _amp_rc_codomain(vm: VectorMap, L: int, budget: SolverBudget, warm=None):
    """See-saw lower for the level-L norm of a map from the diagonal
    algebra into a Hilbert space carrying the row-intersect-column
    structure; a state is ``(blocks,)`` with blocks of shape ``(d, L, L)``.
    A running state carries its blocks with their ``_rc_level``, so a
    sweep takes four stacked SVD calls per shape of top matrix: the top
    pairs, the polars and the two norms of the candidates. It reads the
    level's ``w``, which the driver extrapolates, and which of its two
    matrices is the larger."""
    h = np.stack(vm.vectors)
    d, p = h.shape

    def contract(blocks):
        """Each block divided by its norm where that exceeds one."""
        nrm = np.linalg.svd(blocks, compute_uv=False)[..., :1, None]
        return blocks / np.maximum(nrm, 1.0)

    ident = (np.stack([np.eye(L, dtype=complex)] * d),)
    starts = _embedded(warm, ident) + [ident]
    for i in range(len(starts), len(starts) + ladder_restarts(budget, warm is None)):
        rng = budget.rng("amp-rc", i)
        starts.append((contract(rng.normal(size=(d, L, L)) + 1j * rng.normal(size=(d, L, L))),))

    def derive(blocks):
        val, w, top_is_col = _rc_level(blocks, h)
        return val, (blocks, w, top_is_col)

    def sweep(_, state):
        blocks, w, top_is_col = state
        coeff = np.empty_like(blocks)
        for col in (True, False):
            rows = top_is_col == col
            if not rows.any():
                continue
            _, uvec, vvec = _top_pair(_rc_top(w[rows], col))
            if col:
                coeff[rows] = np.einsum("iar,kr,ib->ikab", uvec.conj().reshape(-1, L, p), h, vvec)
            else:
                coeff[rows] = np.einsum("ia,kr,ibr->ikab", uvec.conj(), h, vvec.reshape(-1, L, p))
        # polar contraction of every coeff[k].T of every start
        return derive(polar_stack(coeff.swapaxes(-1, -2)))

    points = (derive(contract(start[0])) for start in starts)
    val, best, _ = seesaw(points, sweep, budget, extrapolate=(1,))
    return val, best[:1]


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def _amp_solver(u) -> tuple:
    """``(core, cap, cap_method)`` of a map: its see-saw core, and its
    certified cap at every level with the cap's tag."""
    if isinstance(u, VectorMap):
        # at the exact scale of the largest entry, so the norms cannot underflow
        scaled, e = pow2_scaled(np.stack(u.vectors))
        cap = pow2_restore(sum(float(np.linalg.norm(v)) for v in scaled), e)
        return _amp_rc_codomain, cap, "nuclear_cap"
    if not isinstance(u, KernelMap):
        raise ValidationError("expects a KernelMap or VectorMap")
    if u.codomain.kind == "dual":
        return _amp_into_dual, trace_norm(u.kernel), "pi1o_cap"
    return _amp_into_matrix, _nuclear_cap(u), "nuclear_cap"


def amplified_norm(u, L: int, budget: SolverBudget):
    """``(BoundInterval, state)`` for the norm of the level-L amplification
    of a map: the interval and witness of :func:`cb_norm_bounds` on the
    one-level schedule ``(L,)``.

    The lower bound is the best see-saw witness value over the core's
    deterministic starts and all ``budget.restarts`` random ones, since the
    one level is the ladder's first; the upper bound is the certified cap:
    the trace norm of the coefficient kernel for trace-class codomains, the
    matrix-unit nuclear cap otherwise. ``state`` is the best witness. ``L`` is checked as a
    one-level schedule."""
    res = cb_norm_bounds(u, (L,), budget)
    return res.interval, res.witness


@dataclass(frozen=True)
class CbNormResult:
    """``per_level`` holds ``(L, lower)`` after each level, and ``witness``
    the see-saw state behind the lower bound; it takes no part in ``==``."""

    interval: BoundInterval
    per_level: tuple
    stabilized: bool
    witness: tuple = field(repr=False, compare=False)


def cb_norm_bounds(u, schedule: Sequence[int], budget: SolverBudget) -> CbNormResult:
    """Interval for the completely bounded norm via a level schedule.

    The map's see-saw core runs at each level. The first level runs the
    core's deterministic starts and ``budget.restarts`` random ones; each
    later level is warm started from the previous level's witness, so the
    lower bounds never fall, and runs that witness, the deterministic
    starts and one random start (:func:`~qxor.budget.ladder_restarts`).
    The lower bound is the best of the levels, each clipped to the
    certified cap, which is computed once and is the upper bound. The
    witness is the state of the level that sets it, the later one on a tie
    (the first if none reaches zero). No finite amplification level is
    known to certify the cb norm, so the levels are the caller's, checked
    before any see-saw runs, and agreement of the last two within 1e-6 is
    reported as a flag, never as a theorem.
    """
    core, cap, cap_method = _amp_solver(u)
    per_level = []
    best, state, witness = 0.0, None, None
    for L in normalize_schedule(schedule, "level"):
        lower, state = core(u, L, budget, warm=state)
        lower = min(lower, cap)
        if witness is None or lower >= best:
            witness = state
        best = max(best, lower)
        per_level.append((L, best))
    stabilized = len(per_level) >= 2 and abs(per_level[-1][1] - per_level[-2][1]) <= 1e-6
    # a state row is a view into the see-saw's stacks; a copy lets them go
    return CbNormResult(BoundInterval(best, cap, "seesaw_schedule", cap_method),
                        tuple(per_level), stabilized, tuple(a.copy() for a in witness))


# ---------------------------------------------------------------------------
# 2-summing norm by a feasible fixed point
# ---------------------------------------------------------------------------

# relative gap at which pietsch_pi2 stops, and the step cap it raises at
PI2_REL_TOL = 1e-6
PI2_MAX_ROUNDS = 20_000


def pietsch_pi2(vectors) -> float:
    """2-summing norm of the map from the diagonal algebra sending the
    k-th unit to the k-th vector, as a certified upper bound within a
    relative ``PI2_REL_TOL``.

    Its square is ``min { sum mu : diag(mu) >= G }`` for the Gram matrix
    ``G`` of the vectors, and by duality ``max { <G, X> : X >= 0, X_kk = 1 }``.
    The dual is solved over ``X = Y^dagger Y`` with unit columns ``y_k`` by
    the generalized power method: from ``Y = I``, each step replaces ``Y``
    by ``Y G`` with every column normalised (a zero column keeps its old
    ``y_k``). The objective ``tr(Y G Y^dagger)`` is convex in ``Y``, so no
    step lowers it, and since every ``X`` is feasible it is a lower bound on
    the square. Each step also gives the primal point
    ``mu_k = ||(Y G)_k||``; adding ``max(0, -lambda_min(diag(mu) - G))`` to
    every ``mu_k`` makes it feasible, so ``sum mu + d * max(0, -lambda_min)``
    is an upper bound on the square by construction.

    The best upper bound seen is kept; once it is within
    ``PI2_REL_TOL * max(lower, scale)`` of the lower bound, with ``scale``
    the larger of one and the largest Gram entry, its square root is
    returned. ``PI2_MAX_ROUNDS`` caps the steps, and reaching it raises
    :class:`ConvergenceError`. The vectors are solved at the exact
    power-of-two scale of their largest entry and the value is scaled back,
    so tiny or huge inputs neither underflow nor overflow.
    """
    vm = vectors if isinstance(vectors, VectorMap) else VectorMap(tuple(vectors))
    h, e = pow2_scaled(np.stack(vm.vectors))
    gram = h.conj() @ h.T  # z^dagger G z = || sum_k z_k h_k ||^2
    d = vm.d
    scale = max(1.0, float(np.abs(gram).max()))
    y = np.eye(d, dtype=complex)
    upper = math.inf
    for _ in range(PI2_MAX_ROUNDS):
        yg = y @ gram
        lower = float(np.real(np.vdot(y, yg)))  # tr(Y G Y^dagger)
        mu = np.linalg.norm(yg, axis=0)
        lam_min = float(np.linalg.eigvalsh(np.diag(mu) - gram)[0])
        upper = min(upper, float(mu.sum()) + d * max(0.0, -lam_min))
        if upper - lower <= PI2_REL_TOL * max(lower, scale):
            return pow2_restore(math.sqrt(upper), e)
        y = np.where(mu > 0, yg / np.where(mu > 0, mu, 1.0), y)
    raise ConvergenceError("2-summing fixed point step cap reached",
                           residual=upper - lower)
