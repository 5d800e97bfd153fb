"""Dense complex linear algebra for small operator dimensions (d <= ~16).

Thin wrappers around LAPACK (via numpy) that pin down the conventions the
rest of the package relies on: descending eigenvalues, explicit tolerances
for every validation predicate, and eigenvalue clamping for marginally
indefinite positive-semidefinite input.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

DEFAULT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True if ``m`` equals its conjugate transpose entrywise within ``tol``."""
    a = as_matrix(m)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """True if ``m`` is Hermitian within ``tol`` with spectrum >= ``-tol``."""
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
    ``m = sum_k w[k] * outer(v[:, k], v[:, k].conj())``.

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
    order = np.argsort(w)[::-1]
    return w[order].astype(float), v[:, order]


def operator_norm(m) -> float:
    """Largest singular value of a (generally non-Hermitian) matrix."""
    a = as_matrix(m)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(s[0]) if s.size else 0.0


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``(-tol, 0)`` are clamped to zero so that effects
    reconstructed from noisy data remain admissible; an eigenvalue below
    ``-tol`` raises NotPSD.
    """
    w, v = eig_hermitian(m, tol)
    if w.min() < -tol:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -tol={-tol:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def validate_povm(ops, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``ops`` is a POVM: PSD effects summing to the identity.

    All effects must share one dimension (DimensionMismatch otherwise).
    """
    mats = [as_matrix(op) for op in ops]
    if not mats:
        raise DimensionMismatch("empty effect list")
    dim = mats[0].shape[0]
    for a in mats:
        if a.shape[0] != dim:
            raise DimensionMismatch("effects do not share a common dimension")
    if not all(is_psd(a, tol) for a in mats):
        return False
    total = sum(mats)
    return bool(np.max(np.abs(total - np.eye(dim))) <= tol)
