"""Dense real matrix kernels: validation, SVD and top-k SVD.

`svd` is the full thin SVD (LAPACK gesdd).  `top_k` returns only the k
largest singular triplets, from an eigensolve of the Gram matrix of the
shorter side refined by one thin SVD of a k-column matrix; it is what the
estimator fits with.

All functions accept 2-D float arrays and validate finiteness up front.
Everything here is pure and thread-safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# Singular values below RANK_RTOL * sigma_1 count as zero for rank purposes.
RANK_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = left @ diag(singular_values) @ right.T.

    left is m x r, right is n x r, with r = min(m, n) from `svd` and r = k
    from `top_k`; columns orthonormal, singular values nonincreasing and
    nonnegative.
    """
    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        """Numerical rank: count of singular values above RANK_RTOL * sigma_1."""
        s = self.singular_values
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > RANK_RTOL * s[0]))


# Kept by name for the benchmark's span tracer (perfbench/spantrace.py).
def operator_norm_safe(a) -> float:
    """Largest singular value of `a`, from the full SVD."""
    return float(svd(a).singular_values[0])


def svd(a) -> SvdResult:
    """Thin SVD with singular values sorted nonincreasing.

    Raises ConvergenceError if the LAPACK driver fails; never returns
    silently wrong factors.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=u, singular_values=s, right=vt.T)


def top_k(a, k: int) -> SvdResult:
    """The k largest singular triplets of `a`, from its Gram matrix.

    `a` is scaled by max|a| so the Gram matrix cannot overflow.  The top-k
    eigenvectors q of the Gram matrix of the shorter side span the top-k
    singular subspace; one Rayleigh-Ritz step, a thin SVD of the k-column
    projection (b^T q for a wide b, b q for a tall one), rotates q onto the
    singular vectors and gives the singular values.  They are not square
    roots of Gram eigenvalues, which would read zero singular values as
    ~1e-8 sigma_1 and hide rank deficiency.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} out of range [1, {min(m, n)}]")
    scale = float(np.max(np.abs(a))) or 1.0
    b = a / scale
    wide = m <= n
    try:
        _, q = np.linalg.eigh(b @ b.T if wide else b.T @ b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigensolver did not converge: {exc}") from exc
    q = q[:, : -k - 1 : -1]  # top k eigenvectors, largest first
    ritz = svd(b.T @ q if wide else b @ q)
    rotated = q @ ritz.right
    s = ritz.singular_values * scale
    if wide:
        return SvdResult(left=rotated, singular_values=s, right=ritz.left)
    return SvdResult(left=ritz.left, singular_values=s, right=rotated)
