"""Dense complex linear algebra primitives shared by every other module.

Conventions fixed here once and inherited everywhere, including file
formats:

* matrices are dense complex ``numpy`` arrays, row-major;
* an array argument of a public function or a validating constructor is
  converted once, by :func:`as_array` (or :func:`as_matrix`, its 2-d case),
  which decides alone what an array argument is; shape, rank and
  real-only checks stay with each caller;
* an operator on the bipartite space ``C^n (x) C^m`` uses the composite
  index ``(i, k) -> i*m + k`` with ``i`` the first (Alice) register and
  ``k`` the second (Bob) register, which is exactly ``numpy.kron`` order;
* every function is pure and never mutates its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ConvergenceError, ValidationError, is_count, is_real, shown

__all__ = [
    "as_array",
    "as_matrix",
    "hermitian_part",
    "require_hermitian",
    "eigh_desc",
    "eigh_stack",
    "trace_norm",
    "operator_norm",
    "sign_hermitian",
    "sign_stack",
    "polar_stack",
    "pow2_scaled",
    "pow2_restore",
    "pow2_times",
    "zero_pad",
    "regroup",
    "partial_contract_A",
]


def as_array(x) -> np.ndarray:
    """``x`` as a complex array with every entry finite; a string, a ragged
    list, an entry that is no number or overflows a float, and a NaN or
    infinite entry raise :class:`ValidationError`."""
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("entries must be complex numbers in a rectangular array") from None
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """:func:`as_array` of a matrix with at least one row and column."""
    a = as_array(m)
    if a.ndim != 2 or 0 in a.shape:
        raise ValidationError(f"expected a matrix with a row and a column, got shape {a.shape}")
    return a


def hermitian_part(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    return (a + a.conj().T) / 2


_CONSTRUCTION_TOL = 1e-12  # Hermitian defect accepted (and repaired) at construction


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    """Return the exactly symmetrized form of ``m``.

    The defect ``max |m - m^dagger|`` must stay below ``tol``, a positive
    finite real (default: ``_CONSTRUCTION_TOL`` scaled by the matrix
    magnitude); larger defects are errors, never silently repaired.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    if tol is None:
        tol = _CONSTRUCTION_TOL * max(1.0, float(np.abs(a).max(initial=0.0)))
    elif not (is_real(tol) and 0 < tol < math.inf):
        raise ValidationError(f"tolerance must be a positive finite real, got {shown(tol)}")
    # quarters cannot overflow in the difference or its modulus, and the
    # power-of-two scaling is exact; a defect beyond the float range is inf
    defect = 4 * float(np.abs(a / 4 - a.conj().T / 4).max(initial=0.0))
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    # halves, so that entries near the float maximum do not overflow the sum
    return a / 2 + a.conj().T / 2


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def eigh_desc(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, U)`` with ``m = U diag(w) U^dagger`` and ``U`` unitary.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    return eigh_stack((a + _adjoint(a)) / 2)  # caller guarantees symmetry intent


def eigh_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigh_desc` of every matrix of a stack ``(..., n, n)`` in one
    call. The stack is trusted: it is neither validated nor symmetrized."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge: {exc}",
            residual=float(np.abs(a).max(initial=0.0)),
        ) from exc
    return w[..., ::-1].copy(), u[..., ::-1].copy()


def trace_norm(m) -> float:
    """Sum of singular values; equals sum |eigenvalue| for Hermitian input."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(m) -> float:
    """Largest singular value; the same LAPACK call as ``norm(m, 2)``
    without its axis handling."""
    a = as_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False)[0])


_ZERO_TOL = 1e-12  # eigenvalues of modulus at most this count as zero in a sign


def sign_hermitian(m) -> np.ndarray:
    """Spectral sign ``U sign(w) U^dagger`` with ``sign(0) := +1``.

    Eigenvalues with ``|w| <= _ZERO_TOL`` count as zero and map to +1, so the
    result is always a Hermitian contraction of norm one and maximizes
    ``tr(m X)`` over Hermitian contractions ``X`` with value ``trace_norm(m)``.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("Hermitian matrix must be square")
    return sign_stack(a)


def sign_stack(a: np.ndarray) -> np.ndarray:
    """:func:`sign_hermitian` of every matrix of a trusted stack
    ``(..., n, n)``, with one eigendecomposition call for the stack."""
    w, u = eigh_stack((a + _adjoint(a)) / 2)
    signs = np.where(w < -_ZERO_TOL, -1.0, 1.0)
    out = (u * signs[..., None, :]) @ _adjoint(u)
    return (out + _adjoint(out)) / 2


def polar_stack(a: np.ndarray) -> np.ndarray:
    """The contraction ``V U^dagger`` from the thin SVD ``m = U S V^dagger``
    of every matrix ``m`` of a trusted stack ``(..., n, q)``, with one SVD
    call for the stack; each result is ``(q, n)``.

    It maximizes ``Re tr(m X)`` over all contractions ``X`` with value
    ``trace_norm(m)``; for unitary ``m`` it is the adjoint.
    """
    try:
        u, _, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}", residual=None) from exc
    return _adjoint(vh) @ _adjoint(u)


def pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2**-e, e)`` with the largest real or imaginary part of the
    complex array ``a`` scaled into [1/2, 1); ``e = 0`` when ``a`` is zero.
    Scaling by a power of two is exact, so a positively homogeneous
    quantity of ``a`` is ``2**e`` times that of the result, which neither
    underflows nor overflows when squared."""
    big = max(float(np.abs(a.real).max(initial=0.0)), float(np.abs(a.imag).max(initial=0.0)))
    e = math.frexp(big)[1]
    return pow2_times(a, -e), e


def pow2_times(a: np.ndarray, e: int) -> np.ndarray:
    """The complex array ``a * 2**e``, exact while it stays in the float
    range."""
    return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)


def pow2_restore(x: float, e: int) -> float:
    """``x * 2**e`` for ``e`` from :func:`pow2_scaled`; ``inf`` beyond the
    float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def zero_pad(a, shape) -> np.ndarray:
    """Complex zeros of ``shape`` with ``a`` in the leading corner: embeds a
    smaller witness into larger dimensions without changing its value."""
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, k) for k in np.shape(a))] = a
    return out


def regroup(x: np.ndarray, shape: tuple, axes: tuple) -> np.ndarray:
    """Every matrix of the stack ``x`` read as an array of ``shape``, its
    axes permuted by ``axes`` and merged into a matrix, rows from the first
    two and columns from the last two."""
    lead = x.shape[:-2]
    y = x.reshape(lead + shape).transpose(*range(len(lead)), *(len(lead) + i for i in axes))
    return y.reshape(lead + (shape[axes[0]] * shape[axes[1]], -1))


def partial_contract_A(G, A, n: int, m: int) -> np.ndarray:
    """Contract the first register of ``G`` against ``A``.

    Returns ``D`` with ``D[k,l] = sum_ij G[(i,k),(j,l)] A[j,i]`` so that
    ``tr(G (A (x) B)) = tr(D B)`` for every ``B``.
    """
    if not (is_count(n) and is_count(m)):
        raise ValidationError("register dimensions must be positive integers")
    a = as_matrix(A)
    if a.shape[0] != a.shape[1]:
        raise ValidationError("first-register operator must be square")
    if a.shape[0] != n:
        raise ValidationError("first-register operator has wrong dimension")
    g = as_matrix(G)
    if g.shape != (n * m, n * m):
        raise ValidationError(
            f"operator shape {g.shape} does not match declared registers ({n},{m})"
        )
    return np.einsum("ikjl,ji->kl", g.reshape(n, m, n, m), a)
