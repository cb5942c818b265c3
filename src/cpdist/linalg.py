"""Dense complex linear algebra kernel.

Thin wrappers around LAPACK factorizations that pin down the conventions the
rest of the package relies on: Hermitian inputs are symmetrized and gated,
positive-semidefinite spectra are clipped at an explicit floor, and the
partial trace / polar helpers take explicit tensor factor sizes.

The tolerances here are absolute, set for operators of norm O(1) (states,
channels, contractions). Code that meets other scales rescales first: the
distance programs in `metrics` are posed at unit scale, and
`dilations.minimal_dilation` cuts the Kraus rank relative to the largest
Gram eigenvalue.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITICITY_ATOL",
    "PSD_EIG_FLOOR",
    "as_matrix",
    "hermitian_part",
    "check_hermitian",
    "trace_norm",
    "operator_norm",
    "eigh",
    "psd_sqrt",
    "partial_trace_first",
    "polar_unitary_part",
]

# Largest anti-Hermitian contamination accepted by Hermitian-input routines.
HERMITICITY_ATOL = 1e-8

# psd_sqrt raises if an eigenvalue falls below this; negatives above it are
# treated as roundoff and clipped to zero.
PSD_EIG_FLOOR = -1e-8


def as_matrix(mat) -> np.ndarray:
    """Coerce input to a 2-d complex128 ndarray, rejecting non-finite entries."""
    a = np.asarray(mat, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def hermitian_part(mat) -> np.ndarray:
    """(M + M†)/2 for a square matrix."""
    a = as_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.conj().T) / 2


def check_hermitian(mat) -> np.ndarray:
    """Gate Hermiticity at HERMITICITY_ATOL and return the symmetrized matrix.

    The anti-Hermitian contamination is measured entrywise on (M - M†)/2.
    """
    a = as_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return a.copy()
    skew = 0.5 * np.abs(a - a.conj().T).max()
    if skew > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian: anti-Hermitian part {skew:.3e}")
    return (a + a.conj().T) / 2


def trace_norm(mat) -> float:
    """Sum of singular values (nuclear norm). Accepts any rectangular matrix."""
    a = as_matrix(mat)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(mat) -> float:
    """Largest singular value (spectral norm). Accepts any rectangular matrix."""
    a = as_matrix(mat)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def eigh(mat):
    """Eigendecomposition of a Hermitian matrix.

    Symmetrizes the input after gating the anti-Hermitian part at
    HERMITICITY_ATOL. Returns (eigenvalues ascending, eigenvector columns).
    """
    h = check_hermitian(mat)
    return np.linalg.eigh(h)


def psd_sqrt(mat) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues in [PSD_EIG_FLOOR, 0) are treated as roundoff and clipped to
    zero; anything below the floor raises ValueError.
    """
    w, u = eigh(mat)
    if w.size and w[0] < PSD_EIG_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    return (root + root.conj().T) / 2


def partial_trace_first(mat, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the first tensor factor of an operator on C^a ⊗ C^b.

    `mat` must be square with side dim_first * dim_second; rows and columns
    are indexed (first, second) with the first factor major.
    """
    a = as_matrix(mat)
    side = dim_first * dim_second
    if a.shape != (side, side):
        raise ValueError(
            f"expected shape {(side, side)} for factors ({dim_first}, {dim_second}), "
            f"got {a.shape}"
        )
    r = a.reshape(dim_first, dim_second, dim_first, dim_second)
    return np.einsum("abad->bd", r)


def polar_unitary_part(mat) -> np.ndarray:
    """Partial isometry factor of the polar decomposition M = u |M|.

    Computed from the SVD restricted to the numerical support (singular
    values above max(s) * 1e-12), so u is a partial isometry with
    u† u = projector onto supp |M| and Re tr(u† M) = trace norm of M.
    """
    a = as_matrix(mat)
    if a.size == 0:
        return a.copy()
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(a)
    keep = s > s[0] * 1e-12
    return u[:, keep] @ vh[keep]
