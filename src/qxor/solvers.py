"""Strategy-class solvers for quantum XOR game biases.

Every solver reports a :class:`~qxor.bounds.BoundInterval`. Lower bounds are
witness-first: the optimizer proposes a strategy, the strategy object is
validated at construction, and the reported number is the witness value
recomputed through :func:`qxor.games.bias_of`, a separate code path from
the optimizer's internal objective. Upper bounds come from inequalities
that hold regardless of solver quality (the one-way-quantum value, the
trace norm of the coefficient kernel, and the constant-factor comparisons
between strategy classes), with one exception: :func:`beta_product`'s
``sqrt2_assisted_norm`` upper bound is conditional, as its docstring says.

Warm embedding: the entangled and one-way-classical solvers take the
previous level's strategy as it is, zero-pad it to their own dimensions
and run it as their first start. Zero-padding keeps a witness feasible
with the same value, so the lower bounds over a schedule never fall. Both
ladders take :func:`beta_product`'s witness as their first rung, since one
message or one-dimensional ancillas carry nothing: :func:`analyze_game` hands
it to both, and a public schedule runs :func:`_product_witness` for its own.

Sweeps: every see-saw runs in :func:`qxor.budget.seesaw`. The entangled
sweep builds a feasible strategy from any Hermitian pair of observables, so
it runs in the driver's squared-extrapolation cycles; the product and
one-way-classical sweeps stay plain, for the reasons their cores give. An
extrapolated point only steers a sweep: every witness is a state a sweep
returned, re-evaluated through ``bias_of``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundInterval
from .budget import (
    SolverBudget,
    ladder_restarts,
    normalize_schedule,
    seesaw,
    squarem_length,
    stop_rule,
)
from .config import ValidationError
from .games import (
    EntangledStrategy,
    OwcStrategy,
    ProductStrategy,
    QuantumXorGame,
    bias_of,
)
from .linalg import (
    eigh_stack,
    operator_norm,
    polar_stack,
    regroup,
    require_hermitian,
    sign_hermitian,
    sign_stack,
    trace_norm,
    zero_pad,
)
from .maps import KernelMap

_log = logging.getLogger(__name__)

__all__ = [
    "beta_owq",
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
]

# ---------------------------------------------------------------------------
# one-way quantum
# ---------------------------------------------------------------------------

def beta_owq(game: QuantumXorGame) -> float:
    """Exact optimal bias under global measurements: the trace norm."""
    return game.trace_norm


# ---------------------------------------------------------------------------
# product strategies
# ---------------------------------------------------------------------------

def _random_herm_contraction(n: int, rng) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    return h / max(1.0, operator_norm(h))


def _to_bob(g4, a):
    """``D[..., k, l] = sum_ij g4[i, k, j, l] a[..., j, i]``, so that
    ``tr(G (a (x) b)) = tr(D b)``: :func:`~qxor.linalg.partial_contract_A`
    of a trusted stack of Alice's operators, for the see-saws."""
    return np.einsum("ikjl,...ji->...kl", g4, a)


def _to_alice(g4, b):
    """``C[..., i, j] = sum_kl g4[i, k, j, l] b[..., l, k]``, so that
    ``tr(G (a (x) b)) = tr(a C)``: the mirror of :func:`_to_bob`."""
    return np.einsum("ikjl,...lk->...ij", g4, b)


def _product_core(game, budget: SolverBudget, hermitian: bool, key: str, warm=None):
    """Alternating optimal-response ascent over observable pairs.

    With ``hermitian`` the updates are spectral signs (game biases); the
    complex variant uses polar contractions and estimates the norm of the
    associated map instead. A sweep updates the stacked pairs ``(a, b)`` of
    every running start at once; it reads only ``a``. ``warm``, an
    observable of Alice, is the first start. Returns ``(val, a, b, trace)``.
    Its sweeps are plain, never extrapolated: :func:`beta_product` reads the
    final values of the complex starts that did not win.
    """
    n, m = game.n, game.m
    g4 = game.kernel_tensor()
    update = sign_stack if hermitian else polar_stack

    def sweep(_, state):
        a = state[0]
        b = update(_to_bob(g4, a))
        a = update(_to_alice(g4, b))
        d = _to_bob(g4, a)
        return np.real(np.trace(d @ b, axis1=-2, axis2=-1)), (a, b)

    starts = [] if warm is None else [warm]
    starts.append(np.eye(n, dtype=complex))
    starts.append(sign_hermitian(_to_alice(g4, np.eye(m, dtype=complex))))
    for r in range(budget.restarts):
        starts.append(_random_herm_contraction(n, budget.rng(key, r)))

    b0 = np.zeros((m, m), dtype=complex)
    val, (a, b), trace = seesaw(
        ((-math.inf, (np.asarray(a0, dtype=complex), b0)) for a0 in starts), sweep, budget
    )
    return val, a, b, trace


def _product_witness(game, budget: SolverBudget) -> ProductStrategy:
    """The Hermitian product see-saw's witness: a game ladder's first rung."""
    _, a, b, _ = _product_core(game, budget, hermitian=True, key="prod")
    return ProductStrategy(a, b)


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


def beta_product(game: QuantumXorGame, budget: SolverBudget) -> ProductBiasResult:
    """Certified bounds for the unentangled product bias.

    Lower: best sign-update see-saw witness, re-evaluated through
    ``bias_of``. Upper: the one-way-quantum value, which holds by
    construction. A complex-contraction see-saw, warm started from the
    Hermitian witness, estimates the associated map's norm. Its witness
    pair, re-evaluated by :func:`_contraction_value`, is feasible, so that
    value, ``assisted_norm_estimate``, is a lower value of the norm. When
    that see-saw's winner stopped converged and another start ended within
    ``1e-6 * max(1, |v|)`` of its value ``v`` (``assisted_stabilized``), the
    smaller ``sqrt2_assisted_norm`` value, sqrt(2) times the estimate, is
    reported as the upper bound instead. That upper bound is conditional:
    sqrt(2) times a *lower* value of the norm bounds the product bias only
    when the Hermitian witness is within a factor sqrt(2) of the optimum,
    and no inequality makes that true by construction. ``strategy`` is also
    the first rung of both game ladders.

    Every start of the complex see-saw is Hermitian: the warm witness, the
    identity, the sign start and :func:`_random_herm_contraction`. The
    polar factor of a nonsingular Hermitian operator is its spectral sign,
    so that see-saw leaves the Hermitian set only through rounding.
    """
    _, a, b, _ = _product_core(game, budget, hermitian=True, key="prod")
    strategy = ProductStrategy(a, b)
    lower = bias_of(game, strategy)
    owq = beta_owq(game)

    val, ca, cb, trace = _product_core(game, budget, hermitian=False, key="prod-c", warm=a)
    estimate = _contraction_value(game, ca, cb)
    # the winner is one of the starts that end close to its value
    close = [abs(v - val) <= 1e-6 * max(1.0, abs(val)) for v in trace.values]
    stabilized = trace.stop_reasons[trace.winner] == "converged" and sum(close) > 1
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


def _entangled_kernels(g4, dA, dB):
    """``(eff, alice, bob)`` of :func:`_entangled_core`, with ``K`` built once.
    Each takes matrices with any leading batch shape."""
    n, m = g4.shape[:2]
    k = g4.transpose(2, 0, 3, 1).reshape(n * n, m * m)
    sa, sb, sr, anc = (n, dA, n, dA), (m, dB, m, dB), (dA, dB, dA, dB), (1, 3, 0, 2)

    def eff(a, b):
        return regroup(regroup(a, sa, anc) @ k @ regroup(b, sb, anc).swapaxes(-1, -2),
                       (dA, dA, dB, dB), (0, 2, 1, 3))

    def alice(b, rho):
        return regroup(regroup(rho, sr, (0, 2, 3, 1)) @ regroup(b, sb, anc) @ k.T,
                       (dA, dA, n, n), (3, 0, 2, 1))

    def bob(a, rho):
        return regroup(regroup(rho, sr, (1, 3, 2, 0)) @ regroup(a, sa, anc) @ k,
                       (dB, dB, m, m), (3, 0, 2, 1))

    return eff, alice, bob


def _entangled_core(game, dA, dB, budget: SolverBudget, warm: EntangledStrategy):
    """See-saw over ``(psi, A, B)``: ``A[(i,a),(j,c)]``, ``B[(k,b),(l,d)]``,
    ``rho[(c,d),(a,b)]``, game ``g4[j,l,i,k]``, kernel ``K[(i,j),(k,l)] = g4[j,l,i,k]``.
    With ``A~[(a,c),(i,j)]``, ``B~[(b,d),(k,l)]``, the ancilla operator is ``A~ K B~^T``,
    Alice's ``rho[(c,a),(b,d)] B~ K^T`` and Bob's ``db = rho[(d,b),(a,c)] A~ K``, reordered
    to ``[(a,b),(c,d)]``, ``[(j,c),(i,a)]``, ``[(l,d),(k,b)]``; the bias is ``Re tr(db B)``.
    ``warm``, an :class:`EntangledStrategy` with ancillas no larger than
    ``(dA, dB)``, is zero-padded to them and runs as the first start, then
    the :func:`ladder_restarts` random ones: ``budget.restarts`` when
    ``warm`` is the product witness (ancillas ``(1, 1)``), so at a ladder's
    first see-saw level, and one above it. A sweep recomputes ``psi`` from
    ``(A, B)`` before it uses it, so a start's ``psi`` only sets its start
    value. It takes any Hermitian ``(A, B)`` and returns spectral signs, so
    the driver extrapolates ``A`` and ``B``."""
    n, m = game.n, game.m
    eff, alice, bob = _entangled_kernels(game.kernel_tensor(), dA, dB)

    def start(psi, a, b):
        return float(np.real(np.sum(bob(a, np.outer(psi, psi.conj())) * b.T))), (psi, a, b)

    def sweep(_, state):
        _, a, b = state
        # shared state: top eigenvector of the ancilla operator
        e = eff(a, b)
        psi = eigh_stack((e + e.conj().swapaxes(-1, -2)) / 2)[1][..., 0]
        rho = psi[..., :, None] * psi[..., None, :].conj()
        # Alice update: spectral sign of her effective operator
        a = sign_stack(alice(b, rho))
        # Bob update; his effective operator also gives the sweep's value
        db = bob(a, rho)
        b = sign_stack(db)
        return np.real(np.sum(db * b.swapaxes(-1, -2), axis=(-2, -1))), (psi, a, b)

    starts = [(
        zero_pad(warm.psi.reshape(warm.dA, warm.dB), (dA, dB)).ravel(),
        zero_pad(warm.A.reshape(n, warm.dA, n, warm.dA), (n, dA, n, dA)).reshape(n * dA, -1),
        zero_pad(warm.B.reshape(m, warm.dB, m, warm.dB), (m, dB, m, dB)).reshape(m * dB, -1),
    )]
    for r in range(ladder_restarts(budget, (warm.dA, warm.dB) == (1, 1))):
        rng = budget.rng("ent", dA, dB, r)
        psi = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        starts.append((
            psi / np.linalg.norm(psi),
            _random_herm_contraction(n * dA, rng),
            _random_herm_contraction(m * dB, rng),
        ))

    val, (psi, a, b), _ = seesaw((start(*s) for s in starts), sweep, budget, extrapolate=(1, 2))
    return val, psi, a, b


def beta_entangled(game: QuantumXorGame, dA: int, dB: int,
                   budget: SolverBudget) -> EntangledBiasResult:
    """Certified bounds for the entangled bias at fixed ancilla dimensions,
    the one-level :func:`beta_entangled_schedule`, so the product see-saw
    runs first: the see-saw witness below, the one-way-quantum value above.
    No finite ancilla dimension is known to attain the supremum."""
    return beta_entangled_schedule(game, [(dA, dB)], budget)[0]


def beta_entangled_schedule(game: QuantumXorGame, dims: Sequence[tuple], budget: SolverBudget):
    """Run the entangled solver over ancilla dimensions ``(dA, dB)`` that
    grow in both components, each level warm started from the previous
    level's strategy, so the lower bounds are non-decreasing. The schedule
    is checked before the product see-saw runs for the first rung."""
    dims = normalize_schedule(dims, "ancilla", width=2)
    return _entangled_ladder(game, dims, budget, _product_witness(game, budget))


def _entangled_ladder(game: QuantumXorGame, dims: tuple, budget: SolverBudget,
                      product: ProductStrategy):
    """:func:`beta_entangled_schedule` over checked ``dims`` from the product
    witness, the result at ``(1, 1)``, where :func:`_entangled_core` never runs."""
    owq = beta_owq(game)
    warm = EntangledStrategy(game.n, game.m, 1, 1, [1], product.A, product.B)
    results = []
    for dA, dB in dims:
        if (dA, dB) != (1, 1):
            _, psi, a, b = _entangled_core(game, dA, dB, budget, warm)
            warm = EntangledStrategy(game.n, game.m, dA, dB, psi, a, b)
        lower = bias_of(game, warm)
        results.append(EntangledBiasResult(
            BoundInterval(lower, max(owq, lower), "seesaw_witness", "beta_owq"), warm))
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
_INNER_KAPPA = 0.01
_FINAL_TOL_SCALE = 0.1


def _clip_to_instrument(y: np.ndarray) -> np.ndarray:
    """An exact instrument near a Hermitian stack ``y`` whose blocks sum to
    the identity: every eigenvalue below ``1e-14`` of the stack's largest
    (positive, since the blocks' traces sum to ``n``) is raised to it, and
    :func:`_normalize_instrument` makes the blocks sum to the identity
    again."""
    w, u = np.linalg.eigh((y + y.conj().transpose(0, 2, 1)) / 2)
    w = np.maximum(w, 1e-14 * w.max())
    return _normalize_instrument((u * w[:, None, :]) @ u.conj().transpose(0, 2, 1))


def _instrument_fixed_point(h: np.ndarray, e: np.ndarray, tol: float) -> np.ndarray:
    """Best instrument found for ``max sum_j tr(h_j e_j)`` from ``e``.

    The step is the Jezek-Rehacek-Fiurasek iteration (Phys. Rev. A 65,
    060301(R), 2002) ``F: E_j <- R^-1 P_j E_j P_j R^-1`` with
    ``P_j = h_j + c I > 0`` and ``R^2 = sum_j P_j E_j P_j``: it is
    :func:`_normalize_instrument` of ``P_j E_j P_j``. A multiplicative update
    cannot grow a zero block, so it runs from ``e`` mixed with the uniform
    instrument, by ``e``'s relative dual gap capped at 1%: every block and
    ``R`` are then invertible, and a nearly optimal ``e`` is barely moved.
    ``e`` itself still competes for the best value.

    The steps run in squared-extrapolation cycles (SQUAREM: Varadhan and
    Roland, Scand. J. Statist. 35, 335-353, 2008) of three evaluations of
    ``F``: ``x1 = F(x)``, ``x2 = F(x1)``, then ``F`` of the point
    ``x - 2a r + a^2 v`` with ``r = x1 - x``, ``v = x2 - 2 x1 + x`` and
    ``a`` the see-saw driver's :func:`~qxor.budget.squarem_length` of
    ``|r|`` and ``|v|``, which is ``x2`` itself at ``a = -1``. That
    point need not be positive, so :func:`_clip_to_instrument` makes it an
    exact instrument before ``F`` runs on it, and the cycle keeps the result
    only when its value is at least ``x2``'s; otherwise the next cycle starts
    from ``x2``. The first cycle is plain (``a = -1``): next to the mixed
    start, ``r`` and ``v`` measure the fast decay of the mixing, not the
    iteration's slow direction. Every point ``F`` returns is an exact
    instrument, and so is every point returned here: the best value seen
    among ``e`` and those points.

    The solve is only as exact as asked: after each cycle it stops once the
    dual gap of the cycle's point is at most ``tol`` relative to its value.
    The cap counts evaluations of ``F``: at most ``_FIXED_POINT_ITERS``, so
    ``_FIXED_POINT_ITERS // 3`` cycles. A solve that stops at the cap is
    logged at DEBUG with its relative gap.
    """
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

    def step(x):
        nonlocal best, best_val
        x = _normalize_instrument(p @ x @ p)
        val = float(np.einsum("kab,kba->", h, x).real)
        if val > best_val:
            best, best_val = x, val
        return x, val

    for cycle in range(_FIXED_POINT_ITERS // 3):
        x1, _ = step(x)
        x2, val = step(x1)
        r, v = x1 - x, x2 - 2 * x1 + x
        a = squarem_length(float(np.linalg.norm(r)), float(np.linalg.norm(v))) if cycle else -1.0
        x3, val3 = step(x2 if a == -1.0 else _clip_to_instrument(x - 2 * a * r + a * a * v))
        x, val = (x3, val3) if val3 >= val else (x2, val)
        gap = _instrument_gap(h, x)[1]
        if gap <= tol * max(1.0, abs(val)):
            break
    else:
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("instrument fixed point stopped at its cap of %d evaluations: "
                       "relative gap %.3g, tolerance %.3g",
                       3 * (_FIXED_POINT_ITERS // 3), gap / max(1.0, abs(val)), tol)
    return best


def _measure_forward_instrument(n: int, d: int) -> np.ndarray:
    """Partition the computational basis into d groups; output +1 and send
    the group index."""
    e = np.zeros((2 * d, n, n), dtype=complex)
    for k, idx in enumerate(np.array_split(np.arange(n), d)):
        e[k, idx, idx] = 1.0
    return e


def beta_owc(game: QuantumXorGame, d: int, budget: SolverBudget) -> OwcBiasResult:
    """Certified bounds for the one-way classical communication bias with
    ``d`` messages: the one-level :func:`beta_owc_schedule`.

    The lower bound is a validated witness's bias, the upper bound the
    one-way-quantum value. The product see-saw's witness is the result at
    ``d = 1``, so the lower bound is ``beta_product``'s bit for bit, and the
    first start above it.
    ``duality_gap`` and ``instrument_converged`` judge the winning
    instrument's quality only, never the bound direction. At DEBUG the
    ``qxor.solvers`` logger records each sweep that redoes loose rows tight
    and each inner solve that stops at its cap.
    """
    return beta_owc_schedule(game, [d], budget)[0]


def _owc_level(game: QuantumXorGame, d: int, budget: SolverBudget, warm: OwcStrategy):
    """``(strategy, gap, converged)`` of :func:`_owc_ladder` at ``d >= 2``
    messages, from ``warm``, a level with fewer messages. The solver runs the
    zero-padded warm witness first, then the forward measurement and random
    instruments (one more at ``d >= 3``). It alternates an exact sign update
    of Bob's observables with an update of Alice's instrument by
    :func:`_instrument_fixed_point`: an extrapolated fixed point whose every
    returned point is an exact instrument, because each extrapolated point
    is clipped back to one before it is stepped from. A sweep is one step on
    the stack of running starts, in which only that inner solve runs per
    start, and each start runs for up to ``budget.max_sweeps`` sweeps. It is
    inexact: a sweep solves it to a relative dual gap of
    ``max(budget.tol, 0.01 * g)``, with ``g`` the start's previous relative
    gain (1 at first), or until its cap of ``_FIXED_POINT_ITERS`` evaluations
    of the step. Starts whose loose sweep stalls by
    :func:`~qxor.budget.stop_rule`, the test :func:`seesaw` stops them by,
    are redone at ``budget.tol``, so a start only stops on a tight sweep. Every
    sweep returns its new instruments, so a sweep that lowers a start's
    value raises in :func:`seesaw`. The sweeps are plain, never
    extrapolated: the inner solve starts from the instrument component, and
    an extrapolated point is not an instrument. The winner's instrument is
    then solved once more, to a tenth of ``budget.tol``, and Bob's
    observables answer it; the dual gap of that pair is the reported one.
    """
    n = game.n
    g4 = game.kernel_tensor()

    def bob_step(e):
        """Bob's best observables against the instruments ``e`` and their
        value ``Re tr(D_k B_k)``, summed in message order."""
        dk = _to_bob(g4, e[..., :d, :, :] - e[..., d:, :, :])
        obs = sign_stack(dk)
        val = np.real(np.sum(dk * obs.swapaxes(-1, -2), axis=(-2, -1)))
        return obs, np.cumsum(val, axis=-1)[..., -1]

    def objective(obs):
        """The instrument stack ``(+C_k, -C_k)`` that Bob's observables
        induce: the value of an instrument ``e`` is ``sum_j tr(h_j e_j)``."""
        c = _to_alice(g4, obs)
        c = (c + c.conj().swapaxes(-1, -2)) / 2
        return np.concatenate([c, -c], axis=-3)

    def sweep(vals, state):
        # the inner solve stays per start; a loose sweep that stalls by the
        # see-saw's stop rule is redone tight, so that rule fires on tight sweeps
        e, obs, gain = state
        h = objective(obs)
        tol = np.maximum(budget.tol, _INNER_KAPPA * gain)
        cand = np.stack([_instrument_fixed_point(*row) for row in zip(h, e, tol)])
        cand_obs, cand_val = bob_step(cand)
        old = vals.tolist()
        stalled = [stop_rule(o, v, budget.tol)[1] for o, v in zip(old, cand_val.tolist())]
        redo = (tol > budget.tol) & np.array(stalled)
        if redo.any():
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("owc sweep at d=%d redoes %d of %d loose rows tight",
                           d, int(redo.sum()), len(redo))
            cand[redo] = np.stack([_instrument_fixed_point(*row, budget.tol)
                                   for row in zip(h[redo], cand[redo])])
            cand_obs[redo], cand_val[redo] = bob_step(cand[redo])
        gain = [stop_rule(o, v, budget.tol)[0] for o, v in zip(old, cand_val.tolist())]
        return cand_val, (cand, cand_obs, np.array(gain))

    starts = [np.concatenate([zero_pad(warm.e_plus, (d, n, n)), zero_pad(warm.e_minus, (d, n, n))]),
              _measure_forward_instrument(n, d)]
    for r in range(max(1, budget.restarts // 2) + (d >= 3)):
        rng = budget.rng("owc", d, r)
        raw = []
        for _ in range(2 * d):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            raw.append(x @ x.conj().T + 0.02 * np.eye(n))
        starts.append(_normalize_instrument(np.stack(raw)))

    e = np.stack(starts)
    obs, vals = bob_step(e)
    _, (e, obs, _), _ = seesaw(zip(vals, zip(e, obs, np.ones(len(e)))), sweep, budget)
    # one tighter solve on the winner, so the reported gap and convergence
    # flag judge an instrument solved past ``budget.tol``
    e = _instrument_fixed_point(objective(obs[None])[0], e, _FINAL_TOL_SCALE * budget.tol)
    (obs,), _ = bob_step(e[None])
    primal, gap = _instrument_gap(objective(obs), e)
    return OwcStrategy(d, e[:d], e[d:], obs), gap, gap <= 1e-4 * max(1.0, abs(primal))


def beta_owc_schedule(game: QuantumXorGame, ds: Sequence[int], budget: SolverBudget):
    """The one-way-classical solver at increasing message counts, each level
    warm started from the previous level's strategy, so the lower bounds are
    non-decreasing. The schedule is checked before the product see-saw runs."""
    ds = normalize_schedule(ds, "message")
    return _owc_ladder(game, ds, budget, _product_witness(game, budget))


def _owc_ladder(game: QuantumXorGame, ds: tuple, budget: SolverBudget,
                product: ProductStrategy):
    """:func:`beta_owc_schedule` over checked ``ds`` from the product witness.
    With one message the instrument is a two-outcome measurement of Alice's
    observable: the result at ``d = 1``, where it must keep the product value."""
    owq, eye = beta_owq(game), np.eye(game.n)
    warm = OwcStrategy(1, [(eye + product.A) / 2], [(eye - product.A) / 2], [product.B])
    results = []
    for d in ds:
        if d == 1:
            lower = bias_of(game, product)
            if abs(bias_of(game, warm) - lower) > 1e-12 * max(1.0, abs(lower)):
                raise ValidationError("single-message reduction drifted from the product value")
            method, gap, converged = "product_seesaw", None, True
        else:
            warm, gap, converged = _owc_level(game, d, budget, warm)
            method, lower = "owc_seesaw", bias_of(game, warm)
        results.append(OwcBiasResult(
            BoundInterval(lower, max(owq, lower), method, "beta_owq"), warm, gap, converged))
    return results


# ---------------------------------------------------------------------------
# summing norms
# ---------------------------------------------------------------------------

def _summing_kernel(obj) -> np.ndarray:
    """The kernel of a map into trace class, read as a game; a game and such
    a map are all that have summing norms here."""
    if not isinstance(obj, KernelMap):
        raise ValidationError("expected a QuantumXorGame or KernelMap")
    if obj.codomain.kind != "dual":
        raise ValidationError("summing norms take a map into trace class")
    return obj.kernel


def pi1o_exact(obj) -> float:
    """Completely 1-summing norm of a game or of a map into trace class: the
    trace norm of the coefficient kernel."""
    if isinstance(obj, QuantumXorGame):
        return obj.trace_norm
    return trace_norm(_summing_kernel(obj))


@dataclass(frozen=True)
class Pi1cbResult:
    interval: BoundInterval
    per_d: tuple
    product: ProductBiasResult
    owc_results: tuple


def _normalized_game_of(obj) -> tuple[QuantumXorGame, float]:
    """Coerce a game or a kernel map into trace class (nothing else) to a
    game of trace norm at most one plus the factor scaled out; the summing
    norms are positively homogeneous, so results scale back exactly."""
    if isinstance(obj, QuantumXorGame):
        return obj, 1.0
    kernel = _summing_kernel(obj)
    scale = max(trace_norm(kernel), 1.0)
    g = np.asarray(kernel) / scale
    try:
        require_hermitian(g)
    except ValidationError as err:
        need = "pi1cb_bounds needs a Hermitian kernel, that is a game up to scale"
        raise ValidationError(f"{need}; {err}") from None
    return QuantumXorGame(obj.n, obj.m, g), scale


def pi1cb_bounds(game_or_map, d_schedule: Sequence[int], budget: SolverBudget) -> Pi1cbResult:
    """Interval for the (1, cb)-summing norm of the game's associated map.

    Lower: every one-way-communication witness satisfies the amplified
    constraint, so its bias is a valid lower. With one message in the
    schedule, the re-evaluated complex witness of :func:`beta_product`
    (``assisted_norm_estimate``) competes as well; the tag
    ``owc_and_assisted_norm`` names both routes. Upper: the completely
    1-summing norm. It is the trace norm of the game, which is also the
    one-way-quantum value, so the cap of four times that value never
    wins; the tag ``min_pi1o_4owq`` names both caps. A map must be into
    trace class with a Hermitian kernel, that is a game up to scale, and
    unnormalized kernels are handled by homogeneity.
    The message counts are the caller's and are checked first;
    :func:`beta_product` then runs once, and its strategy is the message
    ladder's first rung. Both results, of the normalized game, are
    ``product`` and ``owc_results``.
    """
    game, scale = _normalized_game_of(game_or_map)
    ds = normalize_schedule(d_schedule, "message")
    product = beta_product(game, budget)
    owc_results = _owc_ladder(game, ds, budget, product.strategy)
    per_d = []
    lower = 0.0
    for owc in owc_results:
        d, dlow = owc.strategy.d, owc.interval.lower
        if d == 1:
            dlow = max(dlow, product.assisted_norm_estimate)
        per_d.append((d, dlow * scale))
        lower = max(lower, dlow)

    upper = pi1o_exact(game)
    lower = min(lower, upper + 0.0)  # fp guard; theorems force lower <= upper
    return Pi1cbResult(
        BoundInterval(lower * scale, upper * scale, "owc_and_assisted_norm", "min_pi1o_4owq"),
        tuple(per_d),
        product,
        tuple(owc_results),
    )


# ---------------------------------------------------------------------------
# hierarchy report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyRow:
    """One game's bounds and flags. ``ratio_entangled_vs_owc``, like the
    report's ``max_ratio``, is the entangled lower over the best owc lower:
    a ratio of two lower bounds, so it bounds nothing in either direction."""

    game_id: str
    n: int
    m: int
    beta_owq: float
    beta_product: BoundInterval
    beta_entangled: BoundInterval
    entangled_dims: tuple
    beta_owc_per_d: tuple
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
            "pi1o": self.beta_owq,  # both are the trace norm of G
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


def analyze_game(game: QuantumXorGame, game_id: str, budget: SolverBudget,
                 d_schedule: Sequence[int],
                 ancilla_schedule: Sequence[tuple]) -> HierarchyRow:
    """All strategy-class bounds for one game, with soundness flags: one
    :func:`pi1cb_bounds` run, and the entangled ladder on its product witness."""
    owq = beta_owq(game)
    dims = normalize_schedule(ancilla_schedule, "ancilla", width=2)
    p1cb = pi1cb_bounds(game, d_schedule, budget)
    prod, owc_results = p1cb.product, p1cb.owc_results
    ent_results = _entangled_ladder(game, dims, budget, prod.strategy)
    ent = ent_results[-1]

    best_owc = max(r.interval.lower for r in owc_results)
    tol = 1e-8
    violations = []
    if prod.interval.lower > best_owc + tol:
        violations.append("product_exceeds_owc")
    for name, ladder in (("entangled", ent_results), ("owc", owc_results)):
        lows = [r.interval.lower for r in ladder]
        if any(lo > hi + tol for lo, hi in zip(lows, lows[1:])):
            violations.append(f"{name}_not_monotone")

    ratio = ent.interval.lower / best_owc if best_owc > 1e-12 else 0.0
    return HierarchyRow(
        game_id=game_id,
        n=game.n,
        m=game.m,
        beta_owq=owq,
        beta_product=prod.interval,
        beta_entangled=ent.interval,
        entangled_dims=(ent.strategy.dA, ent.strategy.dB),
        beta_owc_per_d=tuple((r.strategy.d, r.interval) for r in owc_results),
        pi1cb=p1cb.interval,
        ratio_entangled_vs_owc=ratio,
        violations=tuple(violations),
    )
