"""Dense real matrix kernels: validation, SVD, rank truncation.

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

    left is m x r, right is n x r, r = min(m, n); columns orthonormal,
    singular values nonincreasing and nonnegative.
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


def truncate_rank(s: SvdResult, k: int) -> np.ndarray:
    """Best rank-k approximation sum_{i<=k} sigma_i u_i v_i^T (Eckart-Young)."""
    r = s.singular_values.shape[0]
    if not 1 <= k <= r:
        raise ValueError(f"rank k={k} out of range [1, {r}]")
    return (s.left[:, :k] * s.singular_values[:k]) @ s.right[:, :k].T
