"""Quantum XOR games, strategies, and the game / linear-map correspondence.

A game on ``C^n (x) C^m`` is a Hermitian operator ``G`` with trace norm at
most one, and nothing else: every bias is a function of ``G`` alone. A
``qxor/1`` file may still list an episode decomposition
``G = sum_x c_x p_x rho_x`` over signed, weighted bipartite states; the
command-line reader checks it against ``G`` and then drops it. The map
``x -> (tr (x) id)(G (x^T (x) id))`` attached to a game, realized here as a
:class:`~qxor.maps.KernelMap` with kernel ``G`` itself, is the object whose
norms govern the optimal biases.

The transpose sits on the first register in that correspondence; sup-based
bias quantities are insensitive to the choice, the code simply fixes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import INTERVAL_TOL
from .config import ValidationError, is_count
from .linalg import (
    as_array,
    as_matrix,
    eigh_desc,
    hermitian_part,
    operator_norm,
    partial_contract_A,
    require_hermitian,
    trace_norm,
)
from .maps import KernelMap, dual_space, full_matrix_space

__all__ = [
    "QuantumXorGame",
    "ProductStrategy",
    "EntangledStrategy",
    "OwcStrategy",
    "associated_map",
    "bias_of",
    "swap_game",
    "diagonal_game",
    "chsh",
    "mab_tensor",
    "density_matrix",
    "product_state_game",
    "hadamard_game",
    "hadamard_matrix",
    "random_game",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _clip_hermitian_contraction(A, what: str) -> np.ndarray:
    """Symmetrize and clip eigenvalues into [-1, 1].

    Violations beyond the construction tolerance are errors; below it the
    operator is repaired so downstream code can rely on exact feasibility.
    """
    a = require_hermitian(A, tol=1e-10 * max(1.0, float(np.abs(as_array(A)).max(initial=0.0))))
    norm = operator_norm(a)
    if norm > 1 + 1e-10:
        raise ValidationError(f"{what} must be a contraction, norm {norm:.12f}")
    if norm > 1:
        w, u = eigh_desc(a)
        a = (u * np.clip(w, -1.0, 1.0)) @ u.conj().T
        a = hermitian_part(a)
    return a


def _clip_psd(E, what: str) -> np.ndarray:
    e = require_hermitian(E, tol=1e-10 * max(1.0, float(np.abs(as_array(E)).max(initial=0.0))))
    w, u = eigh_desc(e)
    if w[-1] < -1e-10:
        raise ValidationError(f"{what} must be positive semidefinite, min eig {w[-1]:.3e}")
    if w[-1] < 0:
        e = (u * np.clip(w, 0.0, None)) @ u.conj().T
        e = hermitian_part(e)
    return e


def density_matrix(rho, what: str) -> np.ndarray:
    """``rho`` as a positive semidefinite unit-trace matrix, repaired as by
    :func:`_clip_psd`; ``what`` names it in the error."""
    rho = _clip_psd(rho, what)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"{what} must have unit trace, got {tr:.12f}")
    return rho


@dataclass(frozen=True)
class QuantumXorGame:
    n: int
    m: int
    G: np.ndarray = field(repr=False)
    # the trace norm of ``G``, computed once here for every solver to read
    trace_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_count(self.n) and is_count(self.m)):
            raise ValidationError("register dimensions must be positive integers")
        g = require_hermitian(self.G)
        if g.shape != (self.n * self.m, self.n * self.m):
            raise ValidationError("game operator shape does not match (n, m)")
        # no entry's modulus exceeds the trace norm: an oversized game is
        # rejected before its singular values could overflow their sum
        big = float(np.abs(g).max())
        if big > 1 + 1e-10:
            raise ValidationError(f"game trace norm is at least {big:.6e} and exceeds one")
        object.__setattr__(self, "G", _frozen(g))
        tn = trace_norm(self.G)
        if tn > 1 + 1e-10:
            raise ValidationError(f"game trace norm {tn:.12f} exceeds one")
        object.__setattr__(self, "trace_norm", tn)

    @property
    def dim(self) -> int:
        return self.n * self.m

    def kernel_tensor(self) -> np.ndarray:
        return self.G.reshape(self.n, self.m, self.n, self.m)


@dataclass(frozen=True)
class ProductStrategy:
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(_clip_hermitian_contraction(self.A, "observable A")))
        object.__setattr__(self, "B", _frozen(_clip_hermitian_contraction(self.B, "observable B")))


@dataclass(frozen=True)
class EntangledStrategy:
    """Shared pure state on the ancillas plus joint observables.

    ``psi`` is the (without loss of generality pure) shared state on
    ``C^dA (x) C^dB``; ``A`` acts on Alice's question register tensored with
    her ancilla, ``B`` likewise for Bob. Mixed shared states are covered by
    enlarging the ancillas and purifying.
    """

    n: int
    m: int
    dA: int
    dB: int
    psi: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not all(map(is_count, (self.n, self.m, self.dA, self.dB))):
            raise ValidationError("register and ancilla dimensions must be positive integers")
        psi = as_array(self.psi).ravel()
        if psi.size != self.dA * self.dB:
            raise ValidationError("shared state must live on the ancilla pair")
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"shared state must be a unit vector, norm {nrm:.15f}")
        object.__setattr__(self, "psi", _frozen(psi))
        a = _clip_hermitian_contraction(self.A, "Alice observable")
        b = _clip_hermitian_contraction(self.B, "Bob observable")
        if a.shape != (self.n * self.dA,) * 2:
            raise ValidationError("Alice observable must act on question x ancilla")
        if b.shape != (self.m * self.dB,) * 2:
            raise ValidationError("Bob observable must act on question x ancilla")
        object.__setattr__(self, "A", _frozen(a))
        object.__setattr__(self, "B", _frozen(b))


@dataclass(frozen=True)
class OwcStrategy:
    """One-way classical communication: Alice's instrument produces an
    output sign and one of ``d`` messages, Bob measures per message."""

    d: int
    e_plus: np.ndarray = field(repr=False)   # (d, n, n)
    e_minus: np.ndarray = field(repr=False)  # (d, n, n)
    observables: np.ndarray = field(repr=False)  # (d, m, m)

    def __post_init__(self):
        if not is_count(self.d):
            raise ValidationError("the message count must be a positive integer")
        ep, em, obs = map(as_array, (self.e_plus, self.e_minus, self.observables))
        if ep.ndim != 3 or ep.shape != em.shape or ep.shape[0] != self.d:
            raise ValidationError("instrument blocks must be (d, n, n) stacks")
        if obs.ndim != 3 or obs.shape[0] != self.d:
            raise ValidationError("observables must be a (d, m, m) stack")
        n = ep.shape[1]
        ep = np.stack([_clip_psd(ep[k], f"instrument block (+1,{k})") for k in range(self.d)])
        em = np.stack([_clip_psd(em[k], f"instrument block (-1,{k})") for k in range(self.d)])
        total = ep.sum(axis=0) + em.sum(axis=0)
        if np.abs(total - np.eye(n)).max() > 1e-10:
            raise ValidationError("instrument must sum to the identity")
        obs = np.stack([
            _clip_hermitian_contraction(obs[k], f"observable {k}") for k in range(self.d)
        ])
        object.__setattr__(self, "e_plus", _frozen(ep))
        object.__setattr__(self, "e_minus", _frozen(em))
        object.__setattr__(self, "observables", _frozen(obs))

    @property
    def alice_observables(self) -> np.ndarray:
        return self.e_plus - self.e_minus


def associated_map(game_or_G, n: int | None = None, m: int | None = None) -> KernelMap:
    """The matrix-valued linear map attached to a game operator.

    Accepts a game or any Hermitian matrix (normalization not required);
    the returned map satisfies ``apply(x) = partial_contract_A(G, x^T)``
    and acts from the full n x n matrix algebra into trace-class on C^m.
    """
    if isinstance(game_or_G, QuantumXorGame):
        g, n, m = game_or_G.G, game_or_G.n, game_or_G.m
    else:
        g = as_matrix(game_or_G)
        if n is None or m is None:
            raise ValidationError("raw operators need explicit register dimensions")
    return KernelMap(full_matrix_space(n), dual_space(m), g)


def _entangled_bias(game: QuantumXorGame, s: EntangledStrategy) -> float:
    n, m, dA, dB = s.n, s.m, s.dA, s.dB
    a4 = s.A.reshape(n, dA, n, dA)
    b4 = s.B.reshape(m, dB, m, dB)
    g4 = game.kernel_tensor()
    rho4 = np.outer(s.psi, s.psi.conj()).reshape(dA, dB, dA, dB)
    val = np.einsum("iajc,kbld,jlik,cdab->", a4, b4, g4, rho4)
    return complex(val)


def bias_of(game: QuantumXorGame, strategy) -> float:
    """Evaluate the bias of a validated strategy against a game.

    The value is real for every strategy class (a residual imaginary part
    above tolerance indicates a bug) and bounded by the game's trace norm.
    """
    if isinstance(strategy, ProductStrategy):
        if strategy.A.shape[0] != game.n or strategy.B.shape[0] != game.m:
            raise ValidationError("strategy dimensions do not match the game")
        d = partial_contract_A(game.G, strategy.A, game.n, game.m)
        val = np.trace(d @ strategy.B)
    elif isinstance(strategy, EntangledStrategy):
        if strategy.n != game.n or strategy.m != game.m:
            raise ValidationError("strategy dimensions do not match the game")
        val = _entangled_bias(game, strategy)
    elif isinstance(strategy, OwcStrategy):
        if strategy.e_plus.shape[1] != game.n or strategy.observables.shape[1] != game.m:
            raise ValidationError("strategy dimensions do not match the game")
        val = 0.0 + 0.0j
        for k in range(strategy.d):
            ak = strategy.alice_observables[k]
            d = partial_contract_A(game.G, ak, game.n, game.m)
            val += np.trace(d @ strategy.observables[k])
    else:
        raise ValidationError(f"unknown strategy type {type(strategy).__name__}")
    val = complex(val)
    if not np.isfinite(val):
        raise ValidationError(f"bias came out non-finite: {val!r}")
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"bias came out non-real: {val!r}")
    out = val.real
    if abs(out) > game.trace_norm + INTERVAL_TOL:
        raise ValidationError("bias exceeds the trace-norm bound; formula bug")
    return out


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def swap_game(n: int) -> QuantumXorGame:
    """The swap operator scaled by 1/n^2, trace norm exactly one."""
    if not is_count(n):
        raise ValidationError("register dimension must be a positive integer")
    # S[(i, k), (a, b)] = [i = b][k = a]
    s = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    return QuantumXorGame(n, n, s / n**2)


def diagonal_game(M) -> QuantumXorGame:
    """Embed a classical XOR game with real coefficient matrix M on the
    diagonal; requires sum |M_ij| <= 1."""
    try:
        M = as_array(M)
    except ValidationError as err:
        raise ValidationError(f"diagonal game needs a 2-d real coefficient matrix: {err}") from None
    if M.ndim != 2 or M.imag.any():
        raise ValidationError("diagonal game needs a 2-d real coefficient matrix")
    total = float(np.abs(M).sum())
    if total > 1 + 1e-12:
        raise ValidationError(f"coefficients must satisfy sum |M_ij| <= 1, got {total}")
    return QuantumXorGame(*M.shape, np.diag(M.real.ravel()))


def chsh() -> QuantumXorGame:
    return diagonal_game(np.array([[1.0, 1.0], [1.0, -1.0]]) / 4)


def mab_tensor(a, b) -> np.ndarray:
    """Kernel of the map ``x -> a x b`` on square matrices.

    The kernel is the rank-one outer product of the row-major flattenings
    of ``a^T`` and ``b``, so its trace norm is the product of the
    Hilbert-Schmidt norms of ``a`` and ``b``.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValidationError("both factors must be square matrices of equal size")
    left = a.T.ravel()
    right = b.ravel()
    return np.outer(left, right)


def product_state_game(rho_a, rho_b) -> QuantumXorGame:
    ra = density_matrix(rho_a, "first state")
    rb = density_matrix(rho_b, "second state")
    return QuantumXorGame(ra.shape[0], rb.shape[0], np.kron(ra, rb))


def hadamard_matrix(n: int) -> np.ndarray:
    """Sylvester construction; supported orders are the powers of two."""
    if not is_count(n) or n & (n - 1):
        raise ValidationError(f"unsupported Hadamard order {n} (powers of two only)")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def hadamard_game(n: int) -> QuantumXorGame:
    return diagonal_game(hadamard_matrix(n) / n**2)


def random_game(n: int, m: int, seed) -> QuantumXorGame:
    """Gaussian-ensemble Hermitian operator normalized to trace norm one."""
    if not (is_count(n) and is_count(m)):
        raise ValidationError("register dimensions must be positive integers")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"seed is not one numpy.random.default_rng takes: {exc}") from None
    d = n * m
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = (a + a.conj().T) / 2
    return QuantumXorGame(n, m, g / trace_norm(g))
