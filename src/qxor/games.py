"""Quantum XOR games, strategies, and the game / linear-map correspondence.

A game on ``C^n (x) C^m`` is a Hermitian operator ``G`` with trace norm at
most one, optionally carrying the episode decomposition
``G = sum_x c_x p_x rho_x`` over signed, weighted bipartite states. The map
``x -> (tr (x) id)(G (x^T (x) id))`` attached to a game, realized here as a
:class:`~qxor.maps.KernelMap` with kernel ``G`` itself, is the object whose
norms govern the optimal biases.

The transpose sits on the first register in that correspondence; sup-based
bias quantities are insensitive to the choice, the code simply fixes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import TOL, ValidationError
from .linalg import (
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
    "Episode",
    "QuantumXorGame",
    "ProductStrategy",
    "EntangledStrategy",
    "OwcStrategy",
    "from_episodes",
    "to_episodes",
    "associated_map",
    "bias_of",
    "swap_game",
    "diagonal_game",
    "chsh",
    "mab_tensor",
    "mab_game",
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
    a = require_hermitian(A, tol=1e-10 * max(1.0, float(np.abs(np.asarray(A)).max())))
    norm = operator_norm(a)
    if norm > 1 + 1e-10:
        raise ValidationError(f"{what} must be a contraction, norm {norm:.12f}")
    if norm > 1:
        w, u = eigh_desc(a)
        a = (u * np.clip(w, -1.0, 1.0)) @ u.conj().T
        a = hermitian_part(a)
    return a


def _clip_psd(E, what: str) -> np.ndarray:
    e = require_hermitian(E, tol=1e-10 * max(1.0, float(np.abs(np.asarray(E)).max())))
    w, u = eigh_desc(e)
    if w[-1] < -TOL.psd:
        raise ValidationError(f"{what} must be positive semidefinite, min eig {w[-1]:.3e}")
    if w[-1] < 0:
        e = (u * np.clip(w, 0.0, None)) @ u.conj().T
        e = hermitian_part(e)
    return e


@dataclass(frozen=True)
class Episode:
    p: float
    c: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p < -1e-15:
            raise ValidationError(
                f"episode probability must be finite and nonnegative, got {self.p!r}"
            )
        if self.c not in (-1, 1):
            raise ValidationError("episode sign must be +1 or -1")
        object.__setattr__(self, "rho", _frozen(_clip_psd(self.rho, "episode state")))
        tr = float(np.trace(self.rho).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"episode state must have unit trace, got {tr:.12f}")


@dataclass(frozen=True)
class QuantumXorGame:
    n: int
    m: int
    G: np.ndarray = field(repr=False)
    episodes: Optional[tuple] = None

    def __post_init__(self):
        g = require_hermitian(self.G, tol=1e-12 * max(1.0, float(np.abs(np.asarray(self.G)).max())))
        if g.shape != (self.n * self.m, self.n * self.m):
            raise ValidationError("game operator shape does not match (n, m)")
        # no entry's modulus exceeds the trace norm: an oversized game is
        # rejected before its singular values could overflow their sum
        big = float(np.abs(g).max())
        if big > 1 + 1e-10:
            raise ValidationError(f"game trace norm is at least {big:.6e} and exceeds one")
        tn = trace_norm(g)
        if tn > 1 + 1e-10:
            raise ValidationError(f"game trace norm {tn:.12f} exceeds one")
        object.__setattr__(self, "G", _frozen(g))
        if self.episodes is not None:
            eps = tuple(
                e if isinstance(e, Episode) else Episode(*e) for e in self.episodes
            )
            total = sum(e.p for e in eps)
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"episode probabilities sum to {total:.15f}, not 1")
            recon = sum(e.c * e.p * e.rho for e in eps)
            if np.abs(recon - g).max() > 1e-10:
                raise ValidationError("episodes do not reproduce the game operator")
            object.__setattr__(self, "episodes", eps)

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
        psi = np.asarray(self.psi, dtype=complex).ravel()
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
        ep = np.asarray(self.e_plus, dtype=complex)
        em = np.asarray(self.e_minus, dtype=complex)
        obs = np.asarray(self.observables, dtype=complex)
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


def from_episodes(n: int, m: int, episodes: Sequence) -> QuantumXorGame:
    """Assemble a game from signed weighted states; the trace norm bound
    holds automatically by the triangle inequality and is still asserted."""
    eps = tuple(e if isinstance(e, Episode) else Episode(*e) for e in episodes)
    if not eps:
        raise ValidationError("need at least one episode")
    g = sum(e.c * e.p * e.rho for e in eps)
    return QuantumXorGame(n, m, g, episodes=eps)


def to_episodes(game: QuantumXorGame) -> tuple:
    """Spectral episode decomposition, padded to total probability one.

    Eigenvectors give pure episodes with weight |eigenvalue|; when the trace
    norm falls short of one, two cancelling maximally mixed episodes with
    opposite signs absorb the remaining probability without changing G.
    """
    w, u = eigh_desc(game.G)
    episodes = []
    kept = 0.0
    for i in range(w.size):
        if abs(w[i]) <= 1e-14:
            continue
        v = u[:, i : i + 1]
        episodes.append(Episode(abs(float(w[i])), 1 if w[i] > 0 else -1, v @ v.conj().T))
        kept += abs(float(w[i]))
    pad = 1.0 - kept
    if pad > 1e-12 or not episodes:
        mixed = np.eye(game.dim) / game.dim
        episodes.append(Episode(pad / 2, 1, mixed))
        episodes.append(Episode(pad / 2, -1, mixed))
    return tuple(episodes)


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
    if abs(val.imag) > TOL.identity:
        raise ValidationError(f"bias came out non-real: {val!r}")
    out = val.real
    if abs(out) > trace_norm(game.G) + TOL.interval:
        raise ValidationError("bias exceeds the trace-norm bound; formula bug")
    return out


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def swap_game(n: int) -> QuantumXorGame:
    """The swap operator scaled by 1/n^2, trace norm exactly one."""
    s = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for k in range(n):
            s[i * n + k, k * n + i] = 1.0
    return QuantumXorGame(n, n, s / n**2)


def diagonal_game(M) -> QuantumXorGame:
    """Embed a classical XOR game with real coefficient matrix M on the
    diagonal, episodes attached; requires sum |M_ij| <= 1."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError("diagonal game needs a 2-d real coefficient matrix")
    n, m = M.shape
    total = float(np.abs(M).sum())
    if total > 1 + 1e-12:
        raise ValidationError(f"coefficients must satisfy sum |M_ij| <= 1, got {total}")
    g = np.zeros((n * m, n * m), dtype=complex)
    episodes = []
    for i in range(n):
        for j in range(m):
            if M[i, j] == 0.0:
                continue
            idx = i * m + j
            g[idx, idx] = M[i, j]
            rho = np.zeros((n * m, n * m), dtype=complex)
            rho[idx, idx] = 1.0
            episodes.append(Episode(abs(float(M[i, j])), 1 if M[i, j] > 0 else -1, rho))
    pad = 1.0 - total
    if pad > 1e-12 or not episodes:
        mixed = np.eye(n * m) / (n * m)
        episodes.append(Episode(pad / 2, 1, mixed))
        episodes.append(Episode(pad / 2, -1, mixed))
    return QuantumXorGame(n, m, g, episodes=tuple(episodes))


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


def mab_game(a, b) -> QuantumXorGame:
    """Game form of the sandwich map, for factor pairs whose kernel is
    Hermitian (for example ``b = t a^dagger`` with real t)."""
    a = as_matrix(a)
    b = as_matrix(b)
    s2 = float(np.linalg.norm(a, "fro") * np.linalg.norm(b, "fro"))
    if s2 > 1 + 1e-10:
        raise ValidationError("factors must lie in the Hilbert-Schmidt unit ball")
    g = mab_tensor(a, b)
    tn = trace_norm(g)
    if tn > 1 + 1e-10:
        raise ValidationError("sandwich kernel escaped the trace-norm unit ball")
    return QuantumXorGame(a.shape[0], a.shape[0], g)


def product_state_game(rho_a, rho_b) -> QuantumXorGame:
    ra = _clip_psd(rho_a, "first state")
    rb = _clip_psd(rho_b, "second state")
    for r, name in ((ra, "first"), (rb, "second")):
        if abs(float(np.trace(r).real) - 1.0) > 1e-10:
            raise ValidationError(f"{name} state must have unit trace")
    g = np.kron(ra, rb)
    return QuantumXorGame(ra.shape[0], rb.shape[0], g, episodes=(Episode(1.0, 1, g),))


def hadamard_matrix(n: int) -> np.ndarray:
    """Sylvester construction; supported orders are the powers of two."""
    if n < 1 or n & (n - 1):
        raise ValidationError(f"unsupported Hadamard order {n} (powers of two only)")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def hadamard_game(n: int) -> QuantumXorGame:
    return diagonal_game(hadamard_matrix(n) / n**2)


def random_game(n: int, m: int, seed) -> QuantumXorGame:
    """Gaussian-ensemble Hermitian operator normalized to trace norm one."""
    if n < 1 or m < 1:
        raise ValidationError("register dimensions must be positive")
    rng = np.random.default_rng(seed)
    d = n * m
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = (a + a.conj().T) / 2
    return QuantumXorGame(n, m, g / trace_norm(g))
