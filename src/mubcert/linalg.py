"""Dense complex linear algebra for small operator dimensions (d <= ~16).

Thin wrappers around LAPACK (via numpy) that pin down the conventions the
rest of the package relies on: descending eigenvalues, explicit tolerances
for every validation predicate, and eigenvalue clamping for marginally
indefinite positive-semidefinite input.  Every function also takes a
stack of matrices, shape (..., d, d), and makes one LAPACK call for all
of it; each matrix of a stack gets the same result as it would alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

DEFAULT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix or a stack of them, shape (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    return a


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True if ``m`` equals its conjugate transpose entrywise within ``tol``.

    For a stack, true if every matrix of it is.
    """
    a = as_matrix(m)
    return bool(np.max(np.abs(a - a.conj().swapaxes(-1, -2))) <= tol)


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """True if ``m`` is Hermitian within ``tol`` with spectrum >= ``-tol``.

    For a stack, true if every matrix of it is.
    """
    a = as_matrix(m)
    if not is_hermitian(a, tol):
        return False
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return False
    return bool(w.min() >= -tol)


def eig_hermitian(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns ``(w, v)`` with real eigenvalues ``w[0] >= w[1] >= ...`` and
    orthonormal eigenvectors in the columns of ``v``, so that
    ``m = sum_k w[k] * outer(v[:, k], v[:, k].conj())``.  A stack of
    shape (..., d, d) gives ``w`` of shape (..., d) and ``v`` of shape
    (..., d, d), matrix by matrix.

    Raises NotHermitian if the input fails the Hermiticity check, and
    NoConvergence if the underlying iterative solver gives up.

    For degenerate eigenvalues the eigenvector choice within the degenerate
    subspace is arbitrary; callers must depend only on eigenvalues or
    spectral projectors there.
    """
    a = as_matrix(m)
    if not is_hermitian(a, tol):
        raise NotHermitian(f"matrix is not Hermitian within tol={tol}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    # eigh returns ascending eigenvalues
    return w[..., ::-1].astype(float), v[..., ::-1]


def operator_norm(m):
    """Largest singular value of a (generally non-Hermitian, or rectangular) matrix.

    A float for one matrix; for a stack of shape (..., r, s), an array of
    shape (...) holding each matrix's norm.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected matrices, got shape {a.shape}")
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norms = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    return float(norms) if a.ndim == 2 else norms


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, or of each in a stack.

    Eigenvalues in ``(-tol, 0)`` are clamped to zero so that effects
    reconstructed from noisy data remain admissible; an eigenvalue below
    ``-tol`` raises NotPSD.
    """
    w, v = eig_hermitian(m, tol)
    if w.min() < -tol:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -tol={-tol:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def validate_povm(ops, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``ops`` is a POVM: PSD effects summing to the identity.

    ``ops`` holds the effects along its third-to-last axis, shape
    (..., n, d, d); a stack of POVMs is valid if every one of them is.
    Effects of different dimensions raise DimensionMismatch.
    """
    try:
        a = as_matrix(ops)
    except ValueError as exc:  # a ragged list of matrices
        raise DimensionMismatch("effects do not share a common dimension") from exc
    if a.ndim < 3:
        raise DimensionMismatch(f"expected effects of shape (n, d, d), got {a.shape}")
    if a.shape[-3] == 0:
        raise DimensionMismatch("empty effect list")
    if not is_psd(a, tol):
        return False
    return bool(np.max(np.abs(a.sum(axis=-3) - np.eye(a.shape[-1]))) <= tol)
