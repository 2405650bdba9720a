"""Dense symmetric eigendecomposition, Toeplitz construction, and the KLT.

Only what the rest of the package needs.  The eigendecomposition is numpy's
LAPACK `eigh`; `jacobi_eigh` wraps it with the package's contract (descending
order, sign convention, PSD clamp, residual check).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence

# Negative eigenvalues above -1e-10 * max|entry| are PSD rounding noise.  The
# clamp is relative, like the residual check, so that clamping never moves the
# reconstruction by more than the residual tolerance at any scale.
_EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric real matrix, validated to be finite and exactly symmetric as stored."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("covariance matrix has non-finite (nan or inf) entries")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric")
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (descending) and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or w.shape != (v.shape[0],):
            raise DimensionMismatch("eigenvalues/eigenvectors shapes disagree")
        if np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be sorted non-increasing")
        gram = v.T @ v
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-10:
            raise ValueError("eigenvector columns are not orthonormal to 1e-10")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def jacobi_eigh(c: SymMatrix) -> EigenPair:
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns eigenvalues sorted descending (stable order on ties) with
    column-orthonormal eigenvectors; each eigenvector's first nonzero
    component is made non-negative so outputs are reproducible.  Negative
    eigenvalues within 1e-10 * max|entry| of zero are clamped to 0 (PSD
    rounding noise).

    The name is kept for its callers and for the benchmark's tracer, which
    hooks it by name.  A LAPACK failure, or a reconstruction residual above
    1e-9 * max|entry|, raises NonConvergence.
    """
    if c.dim > 4096:
        raise DimensionMismatch("jacobi_eigh supports dimensions up to 4096")
    try:
        w, v = np.linalg.eigh(c.a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    scale = np.max(np.abs(c.a))
    w[(w < 0.0) & (w >= -_EIG_CLAMP * scale)] = 0.0
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    # sign convention: first component above noise level is non-negative
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, k] = -col
    pair = EigenPair(w, v)
    if scale > 0.0:
        resid = np.max(np.abs((v * w) @ v.T - c.a))
        if resid > 1e-9 * scale:
            raise NonConvergence("reconstruction residual above tolerance")
    return pair


def toeplitz_covariance(autocov, m: int) -> SymMatrix:
    """Symmetric Toeplitz matrix with entries[i][j] = autocov[|i-j|].

    `autocov` must provide lags 0..m-1 with a positive lag-0 variance.
    """
    r = np.asarray(autocov, dtype=float)
    if m < 1:
        raise ValueError("order must be positive")
    if r.ndim != 1 or r.size < m:
        raise DimensionMismatch(f"need {m} autocovariance lags, got {r.size}")
    if r[0] <= 0:
        raise ValueError("lag-0 autocovariance (variance) must be positive")
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return SymMatrix(r[idx])


def klt_forward(basis: EigenPair, x) -> np.ndarray:
    """Transform-domain coefficients A^T x of a data block."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != basis.dim:
        raise DimensionMismatch(f"vector length {x.shape[-1]} != basis dim {basis.dim}")
    return x @ basis.eigenvectors


def klt_inverse(basis: EigenPair, y) -> np.ndarray:
    """Invert klt_forward: reconstruct x = A y."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != basis.dim:
        raise DimensionMismatch(f"vector length {y.shape[-1]} != basis dim {basis.dim}")
    return y @ basis.eigenvectors.T
