"""Strategy-class solvers for quantum XOR game biases.

Every solver reports a :class:`~qxor.bounds.BoundInterval`. Lower bounds are
witness-first: the optimizer proposes a strategy, the strategy object is
validated at construction, and the reported number is the witness value
recomputed through :func:`qxor.games.bias_of`, a separate code path from
the optimizer's internal objective. Upper bounds come from inequalities
that hold regardless of solver quality (the one-way-quantum value, the
trace norm of the coefficient kernel, and the constant-factor comparisons
between strategy classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundInterval
from .budget import DEFAULT_BUDGET, SolverBudget, normalize_schedule, seesaw
from .config import ValidationError
from .games import (
    EntangledStrategy,
    OwcStrategy,
    ProductStrategy,
    QuantumXorGame,
    bias_of,
)
from .linalg import (
    hermitian_part,
    max_entangled,
    operator_norm,
    partial_contract_A,
    partial_contract_B,
    polar_contraction,
    sign_hermitian,
    trace_norm,
    zero_pad,
)
from .maps import KernelMap

__all__ = [
    "beta_owq",
    "owq_witness",
    "ProductBiasResult",
    "beta_product",
    "EntangledBiasResult",
    "beta_entangled",
    "beta_entangled_schedule",
    "OwcBiasResult",
    "beta_owc",
    "beta_owc_schedule",
    "pi1o_exact",
    "Pi1cbResult",
    "pi1cb_bounds",
    "HierarchyRow",
    "HierarchyReport",
    "hierarchy_report",
    "default_message_schedule",
]

# ---------------------------------------------------------------------------
# one-way quantum
# ---------------------------------------------------------------------------

def beta_owq(game: QuantumXorGame) -> float:
    """Exact optimal bias under global measurements: the trace norm."""
    return trace_norm(game.G)


def owq_witness(game: QuantumXorGame) -> np.ndarray:
    """The optimal global observable, the spectral sign of the game."""
    return sign_hermitian(game.G)


# ---------------------------------------------------------------------------
# product strategies
# ---------------------------------------------------------------------------

def _random_herm_contraction(n: int, rng) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    return h / max(1.0, operator_norm(h))


def _product_core(game, budget: SolverBudget, hermitian: bool, key: str,
                  extra_inits: Sequence = ()):
    """Alternating optimal-response ascent over observable pairs.

    With ``hermitian`` the updates are spectral signs (game biases); the
    complex variant uses polar contractions and estimates the norm of the
    associated map instead.
    """
    g = game.G
    n, m = game.n, game.m
    update = sign_hermitian if hermitian else polar_contraction

    def sweep(_, state):
        a = state[0]
        b = update(partial_contract_A(g, a, n, m))
        a = update(partial_contract_B(g, b, n, m))
        return float(np.real(np.trace(partial_contract_A(g, a, n, m) @ b))), (a, b)

    starts = list(extra_inits)
    starts.append(np.eye(n, dtype=complex))
    starts.append(sign_hermitian(partial_contract_B(g, np.eye(m), n, m)))
    for r in range(budget.restarts):
        starts.append(_random_herm_contraction(n, budget.rng(key, r)))

    val, (a, b) = seesaw(
        ((-math.inf, (np.asarray(a0, dtype=complex), None)) for a0 in starts), sweep, budget
    )
    return val, a, b


@dataclass(frozen=True)
class ProductBiasResult:
    interval: BoundInterval
    strategy: ProductStrategy
    assisted_norm_estimate: float
    assisted_stabilized: bool


def _contraction_value(game: QuantumXorGame, a: np.ndarray, b: np.ndarray) -> float:
    """``Re tr(G (a (x) b))`` with each factor first divided by
    ``max(1, ||.||)``, so the point is a pair of contractions by
    construction. The trace is taken on the full Kronecker product, a path
    apart from the see-saw's partial contractions."""
    a = a / max(1.0, operator_norm(a))
    b = b / max(1.0, operator_norm(b))
    return float(np.real(np.trace(game.G @ np.kron(a, b))))


def beta_product(game: QuantumXorGame,
                 budget: SolverBudget = DEFAULT_BUDGET,
                 _prod=None) -> ProductBiasResult:
    """Certified bounds for the unentangled product bias.

    Lower: best sign-update see-saw witness, re-evaluated through
    ``bias_of``. Upper: the one-way-quantum value, which holds by
    construction. A complex-contraction see-saw, warm started from the
    Hermitian witness, estimates the associated map's norm. Its witness
    pair, re-evaluated by :func:`_contraction_value`, is feasible, so that
    value, ``assisted_norm_estimate``, is a lower value of the norm. When a
    second see-saw with half the restarts agrees with it, the smaller
    ``sqrt2_assisted_norm`` value, sqrt(2) times the estimate, is reported
    as the upper bound instead. That upper bound is conditional: sqrt(2)
    times a *lower* value of the norm bounds the product bias only when the
    Hermitian witness is within a factor sqrt(2) of the optimum, and no
    inequality makes that true by construction. ``_prod`` is a precomputed
    ``_product_core(game, budget, hermitian=True, key="prod")``.
    """
    val, a, b = _prod or _product_core(game, budget, hermitian=True, key="prod")
    strategy = ProductStrategy(a, b)
    lower = bias_of(game, strategy)
    owq = beta_owq(game)

    _, ca, cb = _product_core(
        game, budget, hermitian=False, key="prod-c", extra_inits=(a,)
    )
    estimate = _contraction_value(game, ca, cb)
    second, _, _ = _product_core(
        game, budget.with_(restarts=max(1, budget.restarts // 2)),
        hermitian=False, key="prod-c2", extra_inits=(a,),
    )
    stabilized = abs(estimate - second) <= 1e-6 * max(1.0, abs(estimate))
    upper = owq
    upper_tag = "beta_owq"
    if stabilized and math.sqrt(2) * estimate < owq:
        upper = math.sqrt(2) * estimate
        upper_tag = "sqrt2_assisted_norm"
    if upper < lower:
        upper, upper_tag = owq, "beta_owq"
    return ProductBiasResult(
        BoundInterval(lower, upper, "seesaw_witness", upper_tag),
        strategy,
        estimate,
        stabilized,
    )


# ---------------------------------------------------------------------------
# entangled strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntangledBiasResult:
    interval: BoundInterval
    strategy: EntangledStrategy
    dims: tuple


def _entangled_kernels(g4, dA, dB):
    """``(eff, alice, bob)`` of :func:`_entangled_core`, with ``K`` built once."""
    n, m = g4.shape[:2]
    k = g4.transpose(2, 0, 3, 1).reshape(n * n, m * m)
    sa, sb, sr, anc = (n, dA, n, dA), (m, dB, m, dB), (dA, dB, dA, dB), (1, 3, 0, 2)

    def mat(x, shape, axes):
        y = x.reshape(shape).transpose(axes)
        return y.reshape(y.shape[0] * y.shape[1], -1)

    def eff(a, b):
        return mat(mat(a, sa, anc) @ k @ mat(b, sb, anc).T, (dA, dA, dB, dB), (0, 2, 1, 3))

    def alice(b, rho):
        return mat(mat(rho, sr, (0, 2, 3, 1)) @ mat(b, sb, anc) @ k.T, (dA, dA, n, n), (3, 0, 2, 1))

    def bob(a, rho):
        return mat(mat(rho, sr, (1, 3, 2, 0)) @ mat(a, sa, anc) @ k, (dB, dB, m, m), (3, 0, 2, 1))

    return eff, alice, bob


def _entangled_core(game, dA, dB, budget: SolverBudget, inits=(), key="ent"):
    """See-saw over ``(psi, A, B)``: ``A[(i,a),(j,c)]``, ``B[(k,b),(l,d)]``,
    ``rho[(c,d),(a,b)]``, game ``g4[j,l,i,k]``, kernel ``K[(i,j),(k,l)] = g4[j,l,i,k]``.
    With ``A~[(a,c),(i,j)]``, ``B~[(b,d),(k,l)]``, the ancilla operator is ``A~ K B~^T``,
    Alice's ``rho[(c,a),(b,d)] B~ K^T`` and Bob's ``db = rho[(d,b),(a,c)] A~ K``, reordered
    to ``[(a,b),(c,d)]``, ``[(j,c),(i,a)]``, ``[(l,d),(k,b)]``; the bias is ``Re tr(db B)``."""
    n, m = game.n, game.m
    eff, alice, bob = _entangled_kernels(game.kernel_tensor(), dA, dB)

    def start(psi, a, b):
        return float(np.real(np.sum(bob(a, np.outer(psi, psi.conj())) * b.T))), (psi, a, b)

    def sweep(_, state):
        _, a, b = state
        # shared state: top eigenvector of the ancilla operator
        e = eff(a, b)
        psi = np.linalg.eigh((e + e.conj().T) / 2)[1][:, -1]
        rho = np.outer(psi, psi.conj())
        # Alice update: spectral sign of her effective operator
        a = sign_hermitian(alice(b, rho))
        # Bob update; his effective operator also gives the sweep's value
        db = bob(a, rho)
        b = sign_hermitian(db)
        return float(np.real(np.sum(db * b.T))), (psi, a, b)

    starts = list(inits)
    starts.append((
        max_entangled(dA, dB), np.eye(n * dA, dtype=complex), np.eye(m * dB, dtype=complex),
    ))
    for r in range(budget.restarts):
        rng = budget.rng(key, dA, dB, r)
        psi = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        starts.append((
            psi / np.linalg.norm(psi),
            _random_herm_contraction(n * dA, rng),
            _random_herm_contraction(m * dB, rng),
        ))

    val, (psi, a, b) = seesaw((start(*s) for s in starts), sweep, budget)
    return val, psi, a, b


def beta_entangled(game: QuantumXorGame, dA: int, dB: int,
                   budget: SolverBudget = DEFAULT_BUDGET,
                   _warm=()) -> EntangledBiasResult:
    """Certified bounds for the entangled bias at fixed ancilla dimensions.

    No finite ancilla dimension is known to attain the supremum, so the
    result is an interval: the see-saw witness below, the one-way-quantum
    value above.
    """
    if dA < 1 or dB < 1:
        raise ValidationError("ancilla dimensions must be positive")
    val, psi, a, b = _entangled_core(game, dA, dB, budget, inits=_warm)
    strategy = EntangledStrategy(game.n, game.m, dA, dB, psi, a, b)
    lower = bias_of(game, strategy)
    owq = beta_owq(game)
    return EntangledBiasResult(
        BoundInterval(lower, max(owq, lower), "seesaw_witness", "beta_owq"),
        strategy,
        (dA, dB),
    )


def beta_entangled_schedule(game: QuantumXorGame,
                            dims: Optional[Sequence[tuple]] = None,
                            budget: SolverBudget = DEFAULT_BUDGET):
    """Run the entangled solver over increasing ancilla dimensions with
    zero-padded warm starts, so the lower bounds are non-decreasing."""
    if dims is None:
        dims = ((1, 1), (2, 2), (3, 3), (4, 4))
    n, m = game.n, game.m
    results = []
    prev: Optional[EntangledStrategy] = None
    for dA, dB in normalize_schedule(dims, "ancilla"):
        warm = ()
        if prev is not None and dA >= prev.dA and dB >= prev.dB:
            a = prev.A.reshape(n, prev.dA, n, prev.dA)
            b = prev.B.reshape(m, prev.dB, m, prev.dB)
            warm = ((
                zero_pad(prev.psi.reshape(prev.dA, prev.dB), (dA, dB)).ravel(),
                zero_pad(a, (n, dA, n, dA)).reshape(n * dA, n * dA),
                zero_pad(b, (m, dB, m, dB)).reshape(m * dB, m * dB),
            ),)
        res = beta_entangled(game, dA, dB, budget, _warm=warm)
        results.append(res)
        prev = res.strategy
    return results


# ---------------------------------------------------------------------------
# one-way classical communication
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OwcBiasResult:
    interval: BoundInterval
    strategy: OwcStrategy
    duality_gap: Optional[float]
    instrument_converged: bool


def _normalize_instrument(x: np.ndarray) -> np.ndarray:
    """The congruence ``S^{-1/2} x_j S^{-1/2}`` with ``S = sum_j x_j``: maps a
    stack of PSD blocks whose sum is positive definite to an exact
    instrument (PSD blocks summing to the identity)."""
    w, u = np.linalg.eigh(x.sum(axis=0))
    s_isqrt = (u / np.sqrt(w)) @ u.conj().T
    y = s_isqrt @ x @ s_isqrt
    return (y + y.conj().transpose(0, 2, 1)) / 2


def _instrument_gap(h: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Value ``sum_j tr(h_j e_j)`` of the instrument ``e`` and its dual gap.

    The dual of the instrument problem is ``min tr Y`` subject to
    ``Y >= h_j``; ``Y = Y0 + t I`` with ``Y0`` the Hermitian part of
    ``sum_j h_j e_j`` and ``t`` the largest eigenvalue of any ``h_j - Y0``
    (floored at zero) is dual feasible, and ``tr Y0`` is the value, so the
    gap is ``n t``: it bounds how far any instrument can improve on ``e``.
    """
    y0 = np.einsum("kab,kbc->ac", h, e)
    y0 = (y0 + y0.conj().T) / 2
    shift = float(np.linalg.eigvalsh(h - y0).max())
    return float(np.trace(y0).real), h.shape[1] * max(0.0, shift)


_FIXED_POINT_ITERS = 200
_FIXED_POINT_MIX = 0.01
_GAP_EVERY = 5
_INNER_KAPPA = 0.01


def _instrument_fixed_point(h: np.ndarray, e: np.ndarray, budget: SolverBudget,
                            tol: Optional[float] = None) -> np.ndarray:
    """Best instrument found for ``max sum_j tr(h_j e_j)`` from ``e``.

    The Jezek-Rehacek-Fiurasek iteration (Phys. Rev. A 65, 060301(R), 2002)
    ``E_j <- R^-1 P_j E_j P_j R^-1`` with ``P_j = h_j + c I > 0`` and
    ``R^2 = sum_j P_j E_j P_j`` keeps every iterate an exact instrument: it
    is :func:`_normalize_instrument` of ``P_j E_j P_j``. A multiplicative
    update cannot grow a zero
    block, so it runs from ``e`` mixed with the uniform instrument, by
    ``e``'s relative dual gap capped at 1%: every block and ``R`` are then
    invertible, and a nearly optimal ``e`` is barely moved. ``e`` itself
    still competes for the best value. The solve is only as exact as asked:
    it stops once the dual gap is at most ``tol`` (default ``budget.tol``)
    relative to the value, or after a fixed number of steps. Each step
    tracks the value with one contraction; the dual gap, an eigenvalue
    problem per block, is checked only every ``_GAP_EVERY`` steps, so a
    solve may run up to ``_GAP_EVERY - 1`` steps past its tolerance.
    """
    if tol is None:
        tol = budget.tol
    val, gap = _instrument_gap(h, e)
    scale = max(1.0, abs(val))
    if gap <= tol * scale:
        return e
    best, best_val = e, val
    j, n = h.shape[0], h.shape[1]
    # a positive gap means h is nonzero, so every P_j is positive definite
    p = h + 1.001 * float(np.abs(np.linalg.eigvalsh(h)).max()) * np.eye(n)
    mix = min(_FIXED_POINT_MIX, gap / scale)
    x = (1 - mix) * e + (mix / j) * np.eye(n)
    for step in range(1, _FIXED_POINT_ITERS + 1):
        x = _normalize_instrument(p @ x @ p)
        val = float(np.einsum("kab,kba->", h, x).real)
        if val > best_val:
            best, best_val = x, val
        if step % _GAP_EVERY == 0 and _instrument_gap(h, x)[1] <= tol * max(1.0, abs(val)):
            break
    return best


def _measure_forward_instrument(n: int, d: int) -> np.ndarray:
    """Partition the computational basis into d groups; output +1 and send
    the group index."""
    groups = np.array_split(np.arange(n), d)
    e = np.zeros((2 * d, n, n), dtype=complex)
    for k, idx in enumerate(groups):
        for i in idx:
            e[k, i, i] = 1.0
    return e


def beta_owc(game: QuantumXorGame, d: int,
             budget: SolverBudget = DEFAULT_BUDGET,
             _warm=(), _prod=None) -> OwcBiasResult:
    """Certified bounds for the one-way classical communication bias with
    ``d`` messages.

    Message count one reduces to the product solver (identical seeds give
    identical values). For more messages the solver alternates an exact
    sign update of Bob's observables with a fixed-point update of Alice's
    instrument (:func:`_instrument_fixed_point`) whose iterates are exact
    instruments. That inner solve is inexact: a sweep solves it to a
    relative dual gap of ``max(budget.tol, 0.01 * g)``, with ``g`` the
    previous sweep's relative gain (1 on a start's first sweep). A loose
    sweep that gains at most ``budget.tol`` is redone at ``budget.tol``, so
    a start only stops on a tight sweep. The winning start gets one more
    sweep at ``budget.tol``, kept only if its value does not drop. The dual
    gap of the final instrument against the final observables is reported;
    it measures quality only, never the bound direction. At ``d >= 3`` one
    more random start runs after the others. ``_warm`` holds instrument
    stacks to start from; ``_prod`` is as in :func:`beta_product`.
    """
    if d < 1:
        raise ValidationError("message count must be positive")
    n, m = game.n, game.m
    owq = beta_owq(game)
    _, a, b = _prod or _product_core(game, budget, hermitian=True, key="prod")

    if d == 1 and not _warm:
        # definition reduction: one message makes the instrument a plain
        # two-outcome measurement, so the product solver is the solver
        strategy = OwcStrategy(
            1,
            np.stack([(np.eye(n) + a) / 2]),
            np.stack([(np.eye(n) - a) / 2]),
            np.stack([b]),
        )
        lower = bias_of(game, ProductStrategy(a, b))
        wrapped = bias_of(game, strategy)
        if abs(wrapped - lower) > 1e-12 * max(1.0, abs(lower)):
            raise ValidationError("single-message reduction drifted from the product value")
        return OwcBiasResult(
            BoundInterval(lower, max(owq, lower), "product_seesaw", "beta_owq"),
            strategy, None, True,
        )

    def bob_step(e):
        obs = np.zeros((d, m, m), dtype=complex)
        val = 0.0
        for k in range(d):
            dk = hermitian_part(partial_contract_A(game.G, e[k] - e[d + k], n, m))
            obs[k] = sign_hermitian(dk)
            val += trace_norm(dk)
        return obs, val

    def objective(obs):
        """The instrument stack ``(+C_k, -C_k)`` that Bob's observables
        induce: the value of an instrument ``e`` is ``sum_j tr(h_j e_j)``."""
        c = np.stack([partial_contract_B(game.G, obs[k], n, m) for k in range(d)])
        c = (c + c.conj().transpose(0, 2, 1)) / 2
        return np.concatenate([c, -c])

    def start(e):
        e = np.asarray(e, dtype=complex)
        obs, val = bob_step(e)
        return val, (e, obs, 1.0)

    def sweep(val, state):
        # a loose sweep that stalls is redone tight: the see-saw's stop rule
        # must only fire on a tight sweep
        e, obs, gain = state
        h = objective(obs)
        tol = max(budget.tol, _INNER_KAPPA * gain)
        cand = _instrument_fixed_point(h, e, budget, tol)
        cand_obs, cand_val = bob_step(cand)
        if tol > budget.tol and cand_val - val <= budget.tol * max(1.0, abs(cand_val)):
            cand = _instrument_fixed_point(h, cand, budget)
            cand_obs, cand_val = bob_step(cand)
        if cand_val >= val:
            return cand_val, (cand, cand_obs, (cand_val - val) / max(1.0, abs(cand_val)))
        return val, state

    product = np.zeros((2 * d, n, n), dtype=complex)
    product[0] = (np.eye(n) + a) / 2
    product[d] = (np.eye(n) - a) / 2
    starts = [*_warm, product, _measure_forward_instrument(n, d)]
    for r in range(max(1, budget.restarts // 2) + (d >= 3)):
        rng = budget.rng("owc", d, r)
        raw = []
        for _ in range(2 * d):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            raw.append(x @ x.conj().T + 0.02 * np.eye(n))
        starts.append(_normalize_instrument(np.stack(raw)))

    val, (e, obs, _) = seesaw(map(start, starts), sweep, budget,
                              max_sweeps=min(budget.max_sweeps, 40))
    # one tight sweep on the winner, so the reported gap and convergence
    # flag judge an instrument solved to ``budget.tol``
    _, (e, obs, _) = sweep(val, (e, obs, 0.0))
    primal, gap = _instrument_gap(objective(obs), e)
    converged = gap <= 1e-4 * max(1.0, abs(primal))

    strategy = OwcStrategy(d, e[:d], e[d:], obs)
    lower = bias_of(game, strategy)
    return OwcBiasResult(
        BoundInterval(lower, max(owq, lower), "owc_seesaw", "beta_owq"),
        strategy, gap, converged,
    )


def default_message_schedule(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, 2, 4, n, 2 * n}))


def beta_owc_schedule(game: QuantumXorGame, ds: Sequence[int],
                      budget: SolverBudget = DEFAULT_BUDGET, _prod=None):
    """Increasing message counts with zero-padded warm starts; the lower
    bounds are non-decreasing along the schedule."""
    n = game.n
    prod = _prod or _product_core(game, budget, hermitian=True, key="prod")
    results = []
    prev: Optional[OwcStrategy] = None
    for d in normalize_schedule(ds, "message"):
        warm = ()
        if prev is not None:
            warm = (np.concatenate([
                zero_pad(prev.e_plus, (d, n, n)), zero_pad(prev.e_minus, (d, n, n)),
            ]),)
        res = beta_owc(game, d, budget, _warm=warm, _prod=prod)
        results.append(res)
        prev = res.strategy
    return results


# ---------------------------------------------------------------------------
# summing norms
# ---------------------------------------------------------------------------

def pi1o_exact(obj) -> float:
    """Completely 1-summing norm: the trace norm of the coefficient kernel."""
    if isinstance(obj, QuantumXorGame):
        return trace_norm(obj.G)
    if isinstance(obj, KernelMap):
        return trace_norm(obj.kernel)
    return trace_norm(obj)


@dataclass(frozen=True)
class Pi1cbResult:
    interval: BoundInterval
    per_d: tuple
    owc_results: tuple


def _normalized_game_of(obj) -> tuple[QuantumXorGame, float]:
    """Coerce a game, kernel map, or raw kernel to a unit-trace-norm game
    plus the positive factor scaled out; the summing norms are positively
    homogeneous, so results scale back exactly."""
    if isinstance(obj, QuantumXorGame):
        return obj, 1.0
    if isinstance(obj, KernelMap):
        kernel, n, m = obj.kernel, obj.n, obj.m
    else:
        raise ValidationError("expected a QuantumXorGame or KernelMap")
    tn = trace_norm(kernel)
    scale = max(tn, 1.0)
    return QuantumXorGame(n, m, np.asarray(kernel) / scale), scale


def pi1cb_bounds(game_or_map,
                 d_schedule: Optional[Sequence[int]] = None,
                 budget: SolverBudget = DEFAULT_BUDGET,
                 owc_results: Optional[Sequence[OwcBiasResult]] = None,
                 _product: Optional[ProductBiasResult] = None) -> Pi1cbResult:
    """Interval for the (1, cb)-summing norm of the game's associated map.

    Lower: every one-way-communication witness satisfies the amplified
    constraint, so its bias is a valid lower. With one message in the
    schedule, the re-evaluated complex witness of :func:`beta_product`
    (``assisted_norm_estimate``) competes as well; the tag
    ``owc_and_assisted_norm`` names both routes. Upper: the completely
    1-summing norm. It is the trace norm of the game, which is also the
    one-way-quantum value, so the cap of four times that value never
    wins; the tag ``min_pi1o_4owq`` names both caps. Unnormalized kernels
    are handled by homogeneity. ``owc_results`` must follow the sorted
    schedule; ``_product`` is a precomputed :func:`beta_product` of the
    same game and budget. Without it, and with one message in the
    schedule, ``beta_product`` runs and shares its Hermitian see-saw with
    the one-way solver.
    """
    game, scale = _normalized_game_of(game_or_map)
    if d_schedule is None:
        d_schedule = default_message_schedule(game.n)
    d_schedule = normalize_schedule((int(d) for d in d_schedule), "message")
    if d_schedule[0] < 1:
        raise ValidationError("message schedule must be positive")

    prod_core = None
    if _product is None and d_schedule[0] == 1:
        prod_core = _product_core(game, budget, hermitian=True, key="prod")
        _product = beta_product(game, budget, _prod=prod_core)
    if owc_results is None:
        owc_results = beta_owc_schedule(game, d_schedule, budget, _prod=prod_core)
    per_d = []
    lower = 0.0
    for d, owc in zip(d_schedule, owc_results):
        dlow = owc.interval.lower
        if d == 1:
            dlow = max(dlow, _product.assisted_norm_estimate)
        per_d.append((d, dlow * scale))
        lower = max(lower, dlow)

    upper = pi1o_exact(game)
    lower = min(lower, upper + 0.0)  # fp guard; theorems force lower <= upper
    return Pi1cbResult(
        BoundInterval(lower * scale, upper * scale, "owc_and_assisted_norm", "min_pi1o_4owq"),
        tuple(per_d),
        tuple(owc_results),
    )


# ---------------------------------------------------------------------------
# hierarchy report
# ---------------------------------------------------------------------------

from .factor import CB_VS_SUMMING_CONSTANT  # noqa: E402  (no import cycle)


@dataclass(frozen=True)
class HierarchyRow:
    game_id: str
    n: int
    m: int
    beta_owq: float
    beta_product: BoundInterval
    beta_entangled: BoundInterval
    entangled_dims: tuple
    beta_owc_per_d: tuple
    pi1o: float
    pi1cb: BoundInterval
    ratio_entangled_vs_owc: float
    violations: tuple

    def to_dict(self) -> dict:
        return {
            "game_id": self.game_id,
            "n": self.n,
            "m": self.m,
            "beta_owq": self.beta_owq,
            "beta_product": self.beta_product.to_dict(),
            "beta_entangled": self.beta_entangled.to_dict(),
            "entangled_dims": list(self.entangled_dims),
            "beta_owc_per_d": [
                {"d": d, **iv.to_dict()} for d, iv in self.beta_owc_per_d
            ],
            "pi1o": self.pi1o,
            "pi1cb": self.pi1cb.to_dict(),
            "ratio_entangled_vs_owc": self.ratio_entangled_vs_owc,
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class HierarchyReport:
    rows: tuple
    max_ratio: float
    violations: tuple

    @classmethod
    def of(cls, rows) -> "HierarchyReport":
        """Rows sorted by game id, with the worst ratio and every flag."""
        rows = tuple(sorted(rows, key=lambda r: r.game_id))
        max_ratio = max((r.ratio_entangled_vs_owc for r in rows), default=0.0)
        violations = tuple(f"{r.game_id}:{v}" for r in rows for v in r.violations)
        return cls(rows, max_ratio, violations)

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "max_ratio_entangled_vs_owc": self.max_ratio,
            "violations": list(self.violations),
        }


def analyze_game(game: QuantumXorGame, game_id: str,
                 budget: SolverBudget = DEFAULT_BUDGET,
                 d_schedule: Optional[Sequence[int]] = None,
                 ancilla_schedule: Optional[Sequence[tuple]] = None) -> HierarchyRow:
    """All strategy-class bounds for one game, with soundness flags."""
    owq = beta_owq(game)
    prod_core = _product_core(game, budget, hermitian=True, key="prod")
    prod = beta_product(game, budget, _prod=prod_core)
    if ancilla_schedule is None:
        ancilla_schedule = ((1, 1), (2, 2))
    ent_results = beta_entangled_schedule(game, ancilla_schedule, budget)
    ent = ent_results[-1]
    if d_schedule is None:
        d_schedule = default_message_schedule(game.n)
    d_schedule = normalize_schedule((int(d) for d in d_schedule), "message")
    owc_results = beta_owc_schedule(game, d_schedule, budget, _prod=prod_core)
    p1cb = pi1cb_bounds(game, d_schedule, budget, owc_results=owc_results, _product=prod)
    p1o = pi1o_exact(game)

    best_owc = max(r.interval.lower for r in owc_results)
    tol = 1e-8
    violations = []
    if prod.interval.lower > best_owc + tol:
        violations.append("product_exceeds_owc")
    for name, low in (
        ("product", prod.interval.lower),
        ("entangled", ent.interval.lower),
        ("owc", best_owc),
    ):
        if low > owq + tol:
            violations.append(f"{name}_exceeds_owq")
    if ent.interval.lower > CB_VS_SUMMING_CONSTANT * p1cb.interval.upper + tol:
        violations.append("entangled_exceeds_summing_comparison")
    ent_monotone = [r.interval.lower for r in ent_results]
    if any(ent_monotone[i] > ent_monotone[i + 1] + tol for i in range(len(ent_monotone) - 1)):
        violations.append("entangled_not_monotone")
    owc_monotone = [r.interval.lower for r in owc_results]
    if any(owc_monotone[i] > owc_monotone[i + 1] + tol for i in range(len(owc_monotone) - 1)):
        violations.append("owc_not_monotone")

    ratio = ent.interval.lower / best_owc if best_owc > 1e-12 else 0.0
    return HierarchyRow(
        game_id=game_id,
        n=game.n,
        m=game.m,
        beta_owq=owq,
        beta_product=prod.interval,
        beta_entangled=ent.interval,
        entangled_dims=ent.dims,
        beta_owc_per_d=tuple((d, r.interval) for d, r in zip(d_schedule, owc_results)),
        pi1o=p1o,
        pi1cb=p1cb.interval,
        ratio_entangled_vs_owc=ratio,
        violations=tuple(violations),
    )


def hierarchy_report(games: Sequence[tuple],
                     budget: SolverBudget = DEFAULT_BUDGET,
                     d_schedule: Optional[Sequence[int]] = None,
                     ancilla_schedule: Optional[Sequence[tuple]] = None) -> HierarchyReport:
    """Analyze ``(game_id, game)`` pairs and aggregate soundness flags."""
    return HierarchyReport.of(
        analyze_game(game, game_id, budget, d_schedule, ancilla_schedule)
        for game_id, game in games
    )
