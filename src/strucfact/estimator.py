"""Rank-constrained least-squares fit in the projected coefficient space.

Fitting projects the observation through the basis, takes the rank-k
truncated SVD of the projection (the exact minimizer of the squared
Frobenius distance over rank <= k matrices), and splits it into balanced
factors U (d x k) and V (k x tau), which are all a fit stores.  Only the top
k singular triplets are computed, by `linalg.top_k`: a Gram eigensolve on the
shorter side of the d x tau projection plus one thin SVD of a k-column matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import as_matrix
from .structure import StructureBasis, expand, project


@dataclass(frozen=True)
class FactorModel:
    u: np.ndarray            # d x k
    v: np.ndarray            # k x tau
    basis: StructureBasis
    rank: int                # numerical rank, min(k, rank of the projection)

    @property
    def m_tilde_hat(self) -> np.ndarray:
        """d x tau coefficient estimate u @ v, the rank-k truncated SVD."""
        return self.u @ self.v


def fit(x, basis: StructureBasis, k: int) -> FactorModel:
    """Fit a rank-k factor model to a d x T observation matrix; `project`
    validates x and `linalg.top_k` checks 1 <= k <= min(d, tau)."""
    s = linalg.top_k(project(x, basis), k)
    root = np.sqrt(s.singular_values)
    return FactorModel(u=s.left * root, v=(s.right * root).T, basis=basis,
                       rank=s.rank)


def predict(model: FactorModel) -> np.ndarray:
    """Fitted d x T signal matrix: expansion of the coefficient estimate."""
    return expand(model.m_tilde_hat, model.basis)


def risk(estimate, truth) -> float:
    """Normalized squared Frobenius distance ||estimate - truth||_F^2 / (d T)."""
    return empirical_risk(estimate, truth) / np.size(estimate)


def empirical_risk(estimate, x) -> float:
    """Unnormalized squared Frobenius distance ||estimate - x||_F^2."""
    estimate = as_matrix(estimate)
    x = as_matrix(x)
    if estimate.shape != x.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {x.shape}")
    return float(np.sum((estimate - x) ** 2))
