"""Dense real matrix kernels: validation, SVD and top-k SVD.

`svd` is the full thin SVD (LAPACK gesdd).  `top_k` returns only the k
largest singular triplets, from an eigensolve of the Gram matrix of the
shorter side refined by one thin SVD of a k-column matrix; it is what the
estimator fits with.  It also takes an (n, m, p) stack of n matrices and then
runs each step once over the whole stack; numpy's LAPACK and BLAS loops treat
each matrix of a stack as they treat it alone, so each result equals that of
its matrix alone bit for bit, and each long call releases the GIL.

All functions validate finiteness up front.  Everything here is pure and
thread-safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

# Singular values below RANK_RTOL * sigma_1 count as zero for rank purposes.
RANK_RTOL = 1e-12


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries;
    with `stack`, an (n, m, p) stack of n such matrices passes too."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if min(a.shape) < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = left @ diag(singular_values) @ right.T.

    left is m x r, right is n x r, with r = min(m, n) from `svd` and r = k
    from `top_k`; columns orthonormal, singular values nonincreasing and
    nonnegative.  For a stack, each field stacks one per matrix.
    """
    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self):
        """Numerical rank: count of singular values above RANK_RTOL * sigma_1,
        an int, or an array of one per matrix of a stack."""
        s = self.singular_values
        ranks = np.sum(s > RANK_RTOL * s[..., :1], axis=-1)
        return int(ranks) if s.ndim == 1 else ranks


# Kept by name for the benchmark's span tracer (perfbench/spantrace.py).
def operator_norm_safe(a) -> float:
    """Largest singular value of `a`, from the full SVD."""
    return float(svd(a).singular_values[0])


def svd(a) -> SvdResult:
    """Thin SVD with singular values sorted nonincreasing.

    Raises ConvergenceError if the LAPACK driver fails; never returns
    silently wrong factors.
    """
    return _thin_svd(as_matrix(a))


def _thin_svd(a: np.ndarray) -> SvdResult:
    """`svd` without validation, of a matrix or a stack of them."""
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=u, singular_values=s, right=np.swapaxes(vt, -1, -2))


def top_k(a, k: int) -> SvdResult:
    """The k largest singular triplets of `a`, from its Gram matrix.

    `a` is scaled by max|a| so the Gram matrix cannot overflow.  The top-k
    eigenvectors q of the Gram matrix of the shorter side span the top-k
    singular subspace; one Rayleigh-Ritz step, a thin SVD of the k-column
    projection (b^T q for a wide b, b q for a tall one), rotates q onto the
    singular vectors and gives the singular values.  They are not square
    roots of Gram eigenvalues, which would read zero singular values as
    ~1e-8 sigma_1 and hide rank deficiency.

    For an (n, m, p) stack each matrix has its own scale, and the result
    stacks the triplets of each matrix.
    """
    a = as_matrix(a, stack=True)
    m, n = a.shape[-2:]
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} out of range [1, {min(m, n)}]")
    scale = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    scale[scale == 0.0] = 1.0
    b = a / scale
    bt = np.swapaxes(b, -1, -2)
    wide = m <= n
    try:
        _, q = np.linalg.eigh(b @ bt if wide else bt @ b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigensolver did not converge: {exc}") from exc
    q = q[..., : -k - 1 : -1]  # top k eigenvectors, largest first
    projection = bt @ q if wide else b @ q
    # One matrix goes through `svd`, which the benchmark's span tracer counts
    # and which takes no stack.
    ritz = svd(projection) if a.ndim == 2 else _thin_svd(projection)
    rotated = q @ ritz.right
    s = ritz.singular_values * scale[..., 0]
    if wide:
        return SvdResult(left=rotated, singular_values=s, right=ritz.left)
    return SvdResult(left=ritz.left, singular_values=s, right=rotated)
