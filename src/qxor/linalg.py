"""Dense complex linear algebra primitives shared by every other module.

Conventions fixed here once and inherited everywhere, including file
formats:

* matrices are dense complex ``numpy`` arrays, row-major;
* an operator on the bipartite space ``C^n (x) C^m`` uses the composite
  index ``(i, k) -> i*m + k`` with ``i`` the first (Alice) register and
  ``k`` the second (Bob) register, which is exactly ``numpy.kron`` order;
* every function is pure and never mutates its arguments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import TOL, ValidationError

__all__ = [
    "as_matrix",
    "hermitian_part",
    "require_hermitian",
    "eigh_desc",
    "trace_norm",
    "operator_norm",
    "sign_hermitian",
    "polar_contraction",
    "zero_pad",
    "max_entangled",
    "partial_contract_A",
    "partial_contract_B",
    "permute_registers",
    "kron_permuted",
]


def as_matrix(m, dtype=complex) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError("matrix must have at least one row and column")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def hermitian_part(m) -> np.ndarray:
    a = as_matrix(m)
    return (a + a.conj().T) / 2


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    """Return the exactly symmetrized form of ``m``.

    The defect ``max |m - m^dagger|`` must stay below ``tol`` (default:
    construction tolerance scaled by the matrix magnitude); larger defects
    are errors, never silently repaired.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    if tol is None:
        tol = TOL.construction * max(1.0, float(np.abs(a).max(initial=0.0)))
    # quarters cannot overflow in the difference or its modulus, and the
    # power-of-two scaling is exact; a defect beyond the float range is inf
    defect = 4 * float(np.abs(a / 4 - a.conj().T / 4).max(initial=0.0))
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    # halves, so that entries near the float maximum do not overflow the sum
    return a / 2 + a.conj().T / 2


def eigh_desc(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, U)`` with ``m = U diag(w) U^dagger`` and ``U`` unitary.
    """
    from .config import ConvergenceError

    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    a = (a + a.conj().T) / 2  # caller guarantees symmetry intent
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge: {exc}",
            residual=float(np.abs(a).max(initial=0.0)),
        ) from exc
    return w[::-1].copy(), u[:, ::-1].copy()


def trace_norm(m) -> float:
    """Sum of singular values; equals sum |eigenvalue| for Hermitian input."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(m) -> float:
    """Largest singular value; the same LAPACK call as ``norm(m, 2)``
    without its axis handling."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sign_hermitian(m, zero_tol: float = 1e-12) -> np.ndarray:
    """Spectral sign ``U sign(w) U^dagger`` with ``sign(0) := +1``.

    Eigenvalues with ``|w| <= zero_tol`` count as zero and map to +1, so the
    result is always a Hermitian contraction of norm one and maximizes
    ``tr(m X)`` over Hermitian contractions ``X`` with value ``trace_norm(m)``.
    """
    w, u = eigh_desc(m)
    signs = np.where(w < -zero_tol, -1.0, 1.0)
    out = (u * signs) @ u.conj().T
    return (out + out.conj().T) / 2


def polar_contraction(m) -> np.ndarray:
    """Contraction ``V U^dagger`` from the SVD ``m = U S V^dagger``.

    Maximizes ``Re tr(m X)`` over all contractions ``X`` with value
    ``trace_norm(m)``; for unitary input returns its adjoint.
    """
    a = as_matrix(m)
    u, _, vh = np.linalg.svd(a)
    return vh.conj().T @ u.conj().T


def zero_pad(a, shape) -> np.ndarray:
    """Complex zeros of ``shape`` with ``a`` in the leading corner: embeds a
    smaller witness into larger dimensions without changing its value."""
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, k) for k in np.shape(a))] = a
    return out


def max_entangled(a: int, b: int) -> np.ndarray:
    """Unit vector on ``C^a (x) C^b`` with equal weight on ``e_i (x) e_i``
    for ``i < min(a, b)``."""
    v = np.zeros(a * b, dtype=complex)
    for i in range(min(a, b)):
        v[i * b + i] = 1.0
    return v / np.linalg.norm(v)


def _as_bipartite_tensor(G, n: int, m: int) -> np.ndarray:
    g = as_matrix(G)
    if g.shape != (n * m, n * m):
        raise ValidationError(
            f"operator shape {g.shape} does not match declared registers ({n},{m})"
        )
    return g.reshape(n, m, n, m)


def partial_contract_A(G, A, n: int, m: int) -> np.ndarray:
    """Contract the first register of ``G`` against ``A``.

    Returns ``D`` with ``D[k,l] = sum_ij G[(i,k),(j,l)] A[j,i]`` so that
    ``tr(G (A (x) B)) = tr(D B)`` for every ``B``.
    """
    a = as_matrix(A)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("first-register operator must be square")
    if a.shape[0] != n:
        raise ValidationError("first-register operator has wrong dimension")
    g4 = _as_bipartite_tensor(G, n, m)
    return np.einsum("ikjl,ji->kl", g4, a)


def partial_contract_B(G, B, n: int, m: int) -> np.ndarray:
    """Mirror of :func:`partial_contract_A` on the second register.

    Returns ``C`` with ``tr(G (A (x) B)) = tr(A C)`` for every ``A``.
    """
    b = as_matrix(B)
    if b.shape[0] != b.shape[1]:
        raise ValidationError("second-register operator must be square")
    if b.shape[0] != m:
        raise ValidationError("second-register operator has wrong dimension")
    g4 = _as_bipartite_tensor(G, n, m)
    return np.einsum("ikjl,lk->ij", g4, b)


def permute_registers(M, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate ``M`` by the permutation matrix that sends register ``q``
    to global position ``perm[q]``.

    ``M`` acts on the tensor product of registers with dimensions ``dims``
    in their listed order; the result acts on the same registers reordered
    so that register ``q`` sits at slot ``perm[q]``. Entrywise, with
    ``s[perm[q]] = r[q]``: ``out[s, s'] = M[r, r']``.
    """
    dims = [int(d) for d in dims]
    p = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(p)):
        raise ValidationError(f"invalid register permutation {perm}")
    total = int(np.prod(dims))
    a = as_matrix(M)
    if a.shape != (total, total):
        raise ValidationError("operator shape does not match register dimensions")
    t = a.reshape(dims + dims)
    inv = [0] * p
    for q, pos in enumerate(perm):
        inv[pos] = q
    axes = inv + [p + q for q in inv]
    out_dims = [dims[q] for q in inv]
    td = int(np.prod(out_dims))
    return t.transpose(axes).reshape(td, td)


def kron_permuted(factors: Sequence[np.ndarray], register_order: Sequence[int]) -> np.ndarray:
    """Kronecker product with the tensor legs placed at given positions.

    ``register_order[q]`` is the global slot of factor ``q``; the identity
    order reproduces the plain Kronecker product. Equivalent to conjugating
    ``kron(factors)`` by the corresponding permutation matrix.
    """
    mats = [as_matrix(f) for f in factors]
    if len(register_order) != len(mats):
        raise ValidationError("permutation length must equal the factor count")
    for f in mats:
        if f.shape[0] != f.shape[1]:
            raise ValidationError("kron factors must be square")
    big = mats[0]
    for f in mats[1:]:
        big = np.kron(big, f)
    return permute_registers(big, [f.shape[0] for f in mats], register_order)
