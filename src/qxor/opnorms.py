"""Amplified operator norms, the dual-level evaluator for trace-class
matrix levels, completely bounded norm intervals, and the 2-summing norm.

Lower bounds come from block-coordinate ascent (see-saw) where every block
update is a closed-form norm-attaining choice: polar contractions for
matrix blocks and top singular pairs for vectors. Each reported lower is
the objective of an explicitly feasible point, so it is a true lower bound
regardless of solver quality. Upper bounds come from decomposition caps
that are valid by the triangle inequality plus the contractivity of
rank-one factors; exhausting a budget can only weaken them, never break
their direction.

Pairings between trace-class and matrix levels are bilinear, ``<z, x> =
tr(z x)``; the contraction level of the dual variable equals the outer
matrix level, which is where the amplified norm of a map into matrices
stabilizes.

Warm embedding: a see-saw core's state is a tuple of arrays, and each core
zero-pads a lower level's state to the shapes of its own identity start and
runs it as its first start. Zero-padding keeps a witness feasible with the
same value, so callers pass a state from one level to the next as it is,
and the lower bounds over a level schedule never fall.

The row and column embeddings of a tuple over trace class have one
singular-term cap, :func:`dual_tuple_cap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundInterval
from .budget import DEFAULT_BUDGET, SolverBudget, normalize_schedule, seesaw
from .config import ConvergenceError, ValidationError
from .linalg import (
    as_matrix,
    max_entangled,
    operator_norm,
    polar_stack,
    pow2_restore,
    pow2_scaled,
    trace_norm,
    zero_pad,
)
from .maps import KernelMap, Space, VectorMap

__all__ = [
    "ml_dual_norm",
    "dual_level_upper_cap",
    "dual_tuple_cap",
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

def _singular_term_cap(r: np.ndarray, m: int, level: Optional[int] = None) -> float:
    """sum_t s_t * ||C_t|| * ||F_t||_1 over the singular terms s_t c_t f_t^T
    of ``r`` above a relative 1e-15, with ``F_t`` the m x m matrix of
    ``f_t`` and ``C_t`` the level x level matrix of ``c_t``. With ``level``
    None every ``C_t`` has a single nonzero row or column, so ``||C_t|| =
    ||c_t|| = 1``."""
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    k = int(np.count_nonzero(s > 1e-15 * s[0]))  # s is descending
    if k == 0:
        return 0.0
    f = vh[:k].reshape(k, m, m)
    if not (np.isfinite(u[:, :k]).all() and np.isfinite(f).all()):
        raise ValidationError("matrix entries must be finite")
    terms = s[:k]
    if level is not None:
        terms = terms * np.linalg.svd(u[:, :k].T.reshape(k, level, level),
                                      compute_uv=False)[:, 0]
    terms = terms * np.linalg.svd(f, compute_uv=False).sum(axis=1)
    return float(np.cumsum(terms)[-1])  # summed in term order, as a running total


def dual_level_upper_cap(Z: np.ndarray, L: int, m: int) -> float:
    """Certified upper bound on || Z ||_{M_L(S_1^m)}.

    Splits Z across the (level | space) cut by singular terms; each term
    C (x) F contributes ||C|| * ||F||_1 because rank-one trace functionals
    have completely bounded norm equal to their trace norm.
    """
    z4 = as_matrix(Z).reshape(L, m, L, m)
    r = np.ascontiguousarray(z4.transpose(0, 2, 1, 3).reshape(L * L, m * m))
    return _singular_term_cap(r, m, L)


def dual_tuple_cap(x: np.ndarray) -> float:
    """The cap of :func:`dual_level_upper_cap` on both the row embedding
    sum_k e_{1k} (x) x_k and the column embedding sum_k e_{k1} (x) x_k of a
    tuple over trace class. Both are sum_t s_t ||F_t||_1 over the singular
    terms of the d x n^2 stack of the x_k, because every level factor C_t
    has one nonzero row (column), so the two caps are one number."""
    d, n = x.shape[0], x.shape[1]
    return _singular_term_cap(np.reshape(x, (d, n * n)), n)


def _nuclear_cap(u: KernelMap) -> float:
    """sum_s ||dual functional_s||_1 * ||u(basis_s)||_codomain over a basis
    of the domain; valid for every amplification level. The images of the
    whole basis come from one contraction and their norms from one stacked
    SVD; the terms are summed in basis order."""
    n, m = u.n, u.m
    g4 = u.kernel.reshape(n, m, n, m)
    dom = u.domain
    if dom.pattern == "general":
        basis = np.stack([as_matrix(b) for b in dom.basis])
        flat = basis.reshape(len(basis), n * n)
        dual = np.linalg.pinv(flat).conj().T  # rows pair to one against the basis
        # u(b)[k, l] = sum_ij g4[i, k, j, l] b[i, j], as KernelMap.apply
        images = np.einsum("ikjl,sij->skl", g4, basis)
        weights = np.linalg.svd(dual.reshape(-1, n, n), compute_uv=False).sum(axis=1)
    else:
        images = g4.transpose(0, 2, 1, 3).reshape(n * n, m, m)  # u(E_ij), i major
        weights = 1.0  # the dual functional of E_ij is E_ij
    sv = np.linalg.svd(images, compute_uv=False)
    out = sv.sum(axis=1) if u.codomain.kind == "dual" else sv[:, 0]
    return float(np.cumsum(weights * out)[-1])


# ---------------------------------------------------------------------------
# see-saw cores
# ---------------------------------------------------------------------------
#
# A core builds its starts one at a time and sweeps them as one stack: the
# helpers below take arrays with any leading batch shape, and the sweeps
# take every state component with a leading start axis. A core returns the
# state of its best start, with its unit vectors as (level, L) or (L, m)
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


def _project_pattern(z4: np.ndarray, pattern: str, basis_proj=None) -> np.ndarray:
    """Restrict an input block matrix to the domain pattern."""
    if pattern == "full":
        return z4
    # general subspace: project each block onto the span
    L, n = z4.shape[-4], z4.shape[-3]
    coeffs = _blocks(z4.swapaxes(-3, -2), L * L, n * n) @ basis_proj
    return coeffs.reshape(z4.shape[:-4] + (L, L, n, n)).swapaxes(-3, -2)


def _feasible_input(z4: np.ndarray, pattern: str, basis_proj=None) -> np.ndarray:
    z4 = _project_pattern(z4, pattern, basis_proj)
    L, n = z4.shape[-4], z4.shape[-3]
    nrm = np.linalg.svd(_blocks(z4, L * n, L * n), compute_uv=False)[..., 0]
    return z4 / np.maximum(nrm, 1.0)[..., None, None, None, None]


def _input_update(c4, z4, pattern: str, bproj, objective) -> np.ndarray:
    """Norm-attaining input against the coefficient blocks ``c4``. On a
    general subspace the projected candidate replaces ``z4`` only if the
    ``objective`` does not drop."""
    L, n = c4.shape[-4], c4.shape[-3]
    cand = polar_stack(_blocks(c4, L * n, L * n).swapaxes(-1, -2)).reshape(c4.shape)
    if pattern == "full":
        return cand
    cand = _feasible_input(cand, pattern, bproj)
    keep = objective(cand) >= objective(z4)
    return np.where(keep[..., None, None, None, None], cand, z4)


def _partial_swap(L: int, n: int) -> np.ndarray:
    """The swap e_i (x) e_j -> e_j (x) e_i on C^L (x) C^n, restricted to
    indices below min(L, n); a partial permutation, so a contraction."""
    s = np.zeros((L * n, L * n), dtype=complex)
    for i in range(min(L, n)):
        for j in range(min(L, n)):
            s[i * n + j, j * n + i] = 1.0
    return s


def _basis_projector(space: Space):
    """Right-multiplication matrix projecting flattened row vectors onto
    the span of the flattened basis."""
    if space.pattern != "general":
        return None
    basis = np.stack([as_matrix(b).ravel() for b in space.basis])
    q, _ = np.linalg.qr(basis.T)
    proj = q @ q.conj().T
    return proj.T


def _dual_value(g4, z4, v4, umat, vmat, kk, L):
    w4 = np.einsum("prqs,...apbq->...arbs", g4, z4)
    p = _blocks(np.einsum("...arbs,...isjr->...iajb", w4, v4), kk * L, kk * L)
    return _form(umat, p, vmat), w4, p


def _amp_into_dual(u: KernelMap, L: int, budget: SolverBudget, warm=None):
    """See-saw lower bound for || id_{M_L} (x) u || with trace-class
    codomain; a state is ``(z4, v4, u, v)`` with ``u`` and ``v`` of shape
    ``(L, L)``."""
    n, m = u.n, u.m
    kk = L  # contraction level of the dual variable; exact for M_L outputs
    g4 = u.kernel.reshape(n, m, n, m)
    pattern = u.domain.pattern
    bproj = _basis_projector(u.domain)

    uv = max_entangled(kk, L).reshape(kk, L)
    ident = (np.eye(L * n, dtype=complex).reshape(L, n, L, n),
             np.eye(kk * m, dtype=complex).reshape(kk, m, kk, m), uv, uv)
    # transpose-flavored start: swap patterns on both sides
    swap = (_partial_swap(L, n).reshape(L, n, L, n),
            _partial_swap(kk, m).reshape(kk, m, kk, m), uv, uv)
    starts = _embedded(warm, ident) + [ident, swap]
    for i in range(len(starts), len(starts) + budget.restarts):
        rng = budget.rng("amp-dual", i)
        z4 = (rng.normal(size=(L, n, L, n)) + 1j * rng.normal(size=(L, n, L, n)))
        v = rng.normal(size=(kk * m, kk * m)) + 1j * rng.normal(size=(kk * m, kk * m))
        v /= max(1.0, operator_norm(v))
        uv = rng.normal(size=kk * L) + 1j * rng.normal(size=kk * L)
        uw = rng.normal(size=kk * L) + 1j * rng.normal(size=kk * L)
        starts.append((z4, v.reshape(kk, m, kk, m), (uv / np.linalg.norm(uv)).reshape(kk, L),
                       (uw / np.linalg.norm(uw)).reshape(kk, L)))

    def start(state):
        z4, v4, umat, vmat = state
        z4 = _feasible_input(z4, pattern, bproj)
        val, w4, p = _dual_value(g4, z4, v4, umat, vmat, kk, L)
        return val, (z4, v4, umat, vmat, w4, p)

    def sweep(_, state):
        z4, v4, _, _, w4, p = state
        # singular-pair update
        _, uvec, vvec = _top_pair(p)
        u2 = uvec.reshape(-1, kk, L)
        v2 = vvec.reshape(-1, kk, L)
        # dual-variable update
        e4 = np.einsum("kia,kjb,karbs->kisjr", u2.conj(), v2, w4)
        v4 = polar_stack(_blocks(e4, kk * m, kk * m).swapaxes(-1, -2)).reshape(e4.shape)
        # input update
        gv = np.einsum("prqs,kisjr->kipjq", g4, v4)
        c4 = np.einsum("kia,kjb,kipjq->kapbq", u2.conj(), v2, gv)
        z4 = _input_update(c4, z4, pattern, bproj,
                           lambda z: _dual_value(g4, z, v4, u2, v2, kk, L)[0])
        val, w4, p = _dual_value(g4, z4, v4, u2, v2, kk, L)
        return val, (z4, v4, u2, v2, w4, p)

    val, best, _ = seesaw(map(start, starts), sweep, budget, floor=0.0)
    return val, None if best is None else best[:4]


def _amp_into_matrix(u: KernelMap, L: int, budget: SolverBudget, warm=None):
    """See-saw lower bound with operator-norm codomain evaluation; a state
    is ``(z4, u, v)`` with ``u`` and ``v`` of shape ``(L, m)``."""
    n, m = u.n, u.m
    g4 = u.kernel.reshape(n, m, n, m)
    pattern = u.domain.pattern
    bproj = _basis_projector(u.domain)

    def value(z4):
        return _blocks(np.einsum("prqs,...apbq->...arbs", g4, z4), L * m, L * m)

    e0 = np.zeros((L, m), dtype=complex)
    e0[0, 0] = 1.0
    ident = (np.eye(L * n, dtype=complex).reshape(L, n, L, n), e0, e0)
    uv1 = max_entangled(L, m).reshape(L, m)
    starts = _embedded(warm, ident) + [
        ident, (_partial_swap(L, n).reshape(L, n, L, n), uv1, uv1)]
    for i in range(len(starts), len(starts) + budget.restarts):
        rng = budget.rng("amp-mat", i)
        z4 = rng.normal(size=(L, n, L, n)) + 1j * rng.normal(size=(L, n, L, n))
        uv = rng.normal(size=L * m) + 1j * rng.normal(size=L * m)
        vv = rng.normal(size=L * m) + 1j * rng.normal(size=L * m)
        starts.append((z4, (uv / np.linalg.norm(uv)).reshape(L, m),
                       (vv / np.linalg.norm(vv)).reshape(L, m)))

    def start(state):
        z4, umat, vmat = state
        z4 = _feasible_input(z4, pattern, bproj)
        w = value(z4)
        return _form(umat, w, vmat), (z4, umat, vmat, w)

    def sweep(_, state):
        z4, _, _, w = state
        _, uvec, vvec = _top_pair(w)
        u2 = uvec.reshape(-1, L, m)
        v2 = vvec.reshape(-1, L, m)
        c4 = np.einsum("kar,kbs,prqs->kapbq", u2.conj(), v2, g4)
        z4 = _input_update(c4, z4, pattern, bproj, lambda z: _form(u2, value(z), v2))
        w = value(z4)
        return _form(u2, w, v2), (z4, u2, v2, w)

    val, best, _ = seesaw(map(start, starts), sweep, budget, floor=0.0)
    return val, None if best is None else best[:3]


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
    pairs, the polars and the two norms of the candidates."""
    h = np.stack(vm.vectors)
    d, p = h.shape

    ident = (np.stack([np.eye(L, dtype=complex)] * d),)
    starts = _embedded(warm, ident) + [ident]
    for i in range(len(starts), len(starts) + budget.restarts):
        rng = budget.rng("amp-rc", i)
        blocks = rng.normal(size=(d, L, L)) + 1j * rng.normal(size=(d, L, L))
        for k in range(d):
            blocks[k] /= max(1.0, operator_norm(blocks[k]))
        starts.append((blocks,))

    def start(state):
        blocks = state[0].copy()
        for k in range(d):
            nk = operator_norm(blocks[k])
            if nk > 1:
                blocks[k] /= nk
        val, w, top_is_col = _rc_level(blocks, h)
        return val, (blocks, w, top_is_col)

    def sweep(vals, state):
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
        cand = polar_stack(coeff.swapaxes(-1, -2))
        cand_vals, cand_w, cand_is_col = _rc_level(cand, h)
        keep = cand_vals >= vals
        return np.where(keep, cand_vals, vals), (
            np.where(keep[:, None, None, None], cand, blocks),
            np.where(keep[:, None, None, None], cand_w, w),
            np.where(keep, cand_is_col, top_is_col),
        )

    val, best, _ = seesaw(map(start, starts), sweep, budget, floor=0.0)
    return val, None if best is None else best[:1]


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def ml_dual_norm(Z, k: int, m: int | None = None,
                 budget: SolverBudget = DEFAULT_BUDGET) -> BoundInterval:
    """Bounds for the level-L norm of a block matrix over trace-class.

    ``Z`` is an (L*m, L*m) matrix read as an L x L array of m x m
    trace-class blocks; ``k`` is the contraction level of the dual
    variable. Level one is exact (the trace norm); higher levels report a
    see-saw lower bound, non-decreasing in ``k`` under warm embedding, and
    a singular-term upper cap.
    """
    z = as_matrix(Z)
    if m is None:
        raise ValidationError("ml_dual_norm needs the block dimension m")
    if z.shape[0] % m:
        raise ValidationError("matrix shape is not a multiple of the block size")
    L = z.shape[0] // m
    if L == 1:
        tn = trace_norm(z)
        return BoundInterval(tn, tn, "trace_norm", "trace_norm")
    cap = dual_level_upper_cap(z, L, m)

    z4 = z.reshape(L, m, L, m)
    # increasing contraction levels with warm embedding keep the lower
    # bounds non-decreasing in k
    best = 0.0
    state = None
    for kk in default_level_schedule(k):
        val, state = _pairing_seesaw(z4, L, m, kk, budget, warm=state)
        best = max(best, val)
    lower = min(best, cap)  # fp guard; the theorems force lower <= cap
    return BoundInterval(lower, cap, "pairing_seesaw", "schmidt_cap")


def _pairing_seesaw(z4, L, m, kk, budget: SolverBudget, warm=None):
    """sup over contractions V at level kk and unit vectors of the pairing
    norm; certified lower bound for the dual-level norm. A state is
    ``(v4,)``; with no start above zero the first start is returned."""
    ident = (np.eye(kk * m, dtype=complex).reshape(kk, m, kk, m),)
    starts = _embedded(warm, ident) + [ident, (_partial_swap(kk, m).reshape(kk, m, kk, m),)]
    for r in range(budget.restarts):
        rng = budget.rng("pairing", kk, r)
        v = rng.normal(size=(kk * m, kk * m)) + 1j * rng.normal(size=(kk * m, kk * m))
        starts.append(((v / max(1.0, operator_norm(v))).reshape(kk, m, kk, m),))

    def top_pair(v4):
        p4 = np.einsum("arbs,...isjr->...iajb", z4, v4)
        val, uvec, vvec = _top_pair(_blocks(p4, kk * L, kk * L))
        return val, (v4, uvec, vvec)

    def sweep(_, state):
        _, uvec, vvec = state
        u2 = uvec.reshape(-1, kk, L)
        v2 = vvec.reshape(-1, kk, L)
        e4 = np.einsum("kia,kjb,arbs->kisjr", u2.conj(), v2, z4)
        return top_pair(polar_stack(_blocks(e4, kk * m, kk * m).swapaxes(-1, -2)).reshape(e4.shape))

    best, state, _ = seesaw((top_pair(v4) for v4, in starts), sweep, budget, floor=0.0)
    return best, starts[0] if state is None else state[:1]


def amplified_norm(u, L: int, budget: SolverBudget = DEFAULT_BUDGET,
                   _warm=None):
    """``(BoundInterval, state)`` for the norm of the level-L amplification
    of a map.

    The lower bound is the best see-saw witness value over the budgeted
    restarts; the upper bound is the smallest available certified cap
    (trace norm of the coefficient kernel for trace-class codomains, a
    basis nuclear cap otherwise). ``state`` is the best witness, and passed
    back as ``_warm`` at a higher level it is embedded there as the first
    start, so that level's lower bound is at least this one.
    """
    if L < 1:
        raise ValidationError("amplification level must be positive")
    if isinstance(u, VectorMap):
        lower, state = _amp_rc_codomain(u, L, budget, warm=_warm)
        # at the exact scale of the largest entry, so the norms cannot underflow
        scaled, e = pow2_scaled(np.stack(u.vectors))
        cap = pow2_restore(sum(float(np.linalg.norm(v)) for v in scaled), e)
        return BoundInterval(min(lower, cap), cap, "seesaw", "nuclear_cap"), state
    if not isinstance(u, KernelMap):
        raise ValidationError("amplified_norm expects a KernelMap or VectorMap")
    if u.codomain.kind == "dual":
        lower, state = _amp_into_dual(u, L, budget, warm=_warm)
        cap = trace_norm(u.kernel)
        return BoundInterval(min(lower, cap), cap, "seesaw", "pi1o_cap"), state
    lower, state = _amp_into_matrix(u, L, budget, warm=_warm)
    cap = _nuclear_cap(u)
    return BoundInterval(min(lower, cap), cap, "seesaw", "nuclear_cap"), state


def default_level_schedule(cap: int) -> tuple[int, ...]:
    levels = []
    lv = 1
    while lv < cap:
        levels.append(lv)
        lv *= 2
    levels.append(cap)
    return tuple(dict.fromkeys(levels))


@dataclass(frozen=True)
class CbNormResult:
    interval: BoundInterval
    per_level: tuple
    stabilized: bool


def cb_norm_bounds(u, schedule: Optional[Sequence[int]] = None,
                   budget: SolverBudget = DEFAULT_BUDGET) -> CbNormResult:
    """Interval for the completely bounded norm via a level schedule.

    The lower bound is the best amplified lower over the schedule (warm
    starts embed smaller-level witnesses, so the sequence is monotone);
    the upper bound is the certified cap. The amplification level at which
    these maps stabilize is not known in advance, so agreement of the last
    two levels within 1e-6 is reported as a flag, never as a theorem.
    """
    if isinstance(u, VectorMap):
        cap_level = u.d * u.p
    else:
        cap_level = u.n * u.m
    if schedule is None:
        schedule = default_level_schedule(cap_level)
    schedule = normalize_schedule((int(L) for L in schedule), "level")

    per_level = []
    best = 0.0
    state = None
    for L in schedule:
        interval, state = amplified_norm(u, L, budget, _warm=state)
        best = max(best, interval.lower)
        per_level.append((L, best))
    upper, up_tag = interval.upper, interval.upper_method
    stabilized = len(per_level) >= 2 and abs(per_level[-1][1] - per_level[-2][1]) <= 1e-6
    return CbNormResult(
        BoundInterval(best, upper, "seesaw_schedule", up_tag), tuple(per_level), stabilized
    )


# ---------------------------------------------------------------------------
# 2-summing norm by a feasible fixed point
# ---------------------------------------------------------------------------

def pietsch_pi2(vectors, rel_tol: float = 1e-6, max_rounds: int = 20_000) -> float:
    """2-summing norm of the map from the diagonal algebra sending the
    k-th unit to the k-th vector, as a certified upper bound within
    ``rel_tol``.

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
    ``rel_tol * max(lower, scale)`` of the lower bound, with ``scale`` the
    larger of one and the largest Gram entry, its square root is returned.
    ``max_rounds`` caps the steps, and reaching it raises
    :class:`ConvergenceError`. The vectors are solved at the exact
    power-of-two scale of their largest entry and the value is scaled back,
    so tiny or huge inputs neither underflow nor overflow.
    """
    vm = vectors if isinstance(vectors, VectorMap) else VectorMap(tuple(vectors))
    h, e = pow2_scaled(np.stack(vm.vectors))
    gram = VectorMap(tuple(h)).gram()
    d = vm.d
    scale = max(1.0, float(np.abs(gram).max()))
    y = np.eye(d, dtype=complex)
    upper = math.inf
    for _ in range(max_rounds):
        yg = y @ gram
        lower = float(np.real(np.vdot(y, yg)))  # tr(Y G Y^dagger)
        mu = np.linalg.norm(yg, axis=0)
        lam_min = float(np.linalg.eigvalsh(np.diag(mu) - gram)[0])
        upper = min(upper, float(mu.sum()) + d * max(0.0, -lam_min))
        if upper - lower <= rel_tol * max(lower, scale):
            return pow2_restore(math.sqrt(upper), e)
        y = np.where(mu > 0, yg / np.where(mu > 0, mu, 1.0), y)
    raise ConvergenceError("2-summing fixed point step cap reached",
                           residual=upper - lower)
