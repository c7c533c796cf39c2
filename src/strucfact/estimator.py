"""Rank-constrained least-squares fit in the projected coefficient space.

Fitting projects the observation through the basis, takes the rank-k
truncated SVD of the projection (the exact minimizer of the squared
Frobenius distance over rank <= k matrices), and splits it into balanced
factors U (d x k) and V (k x tau).
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
    m_tilde_hat: np.ndarray  # d x tau, = u @ v
    rank: int                # numerical rank, min(k, rank of the projection)


def fit(x, basis: StructureBasis, k: int) -> FactorModel:
    """Fit a rank-k factor model to a d x T observation matrix."""
    x = as_matrix(x)
    d = x.shape[0]
    if not 1 <= k <= min(d, basis.tau):
        raise ValueError(f"k={k} out of range [1, {min(d, basis.tau)}]")
    x_tilde = project(x, basis)
    s = linalg.svd(x_tilde)
    m_tilde_hat = linalg.truncate_rank(s, k)
    root = np.sqrt(s.singular_values[:k])
    u = s.left[:, :k] * root
    v = (s.right[:, :k] * root).T
    return FactorModel(u=u, v=v, basis=basis, m_tilde_hat=m_tilde_hat,
                       rank=min(k, s.rank))


def predict(model: FactorModel) -> np.ndarray:
    """Fitted d x T signal matrix: expansion of the coefficient estimate."""
    return expand(model.m_tilde_hat, model.basis)


def risk(estimate, truth) -> float:
    """Normalized squared Frobenius distance ||estimate - truth||_F^2 / (d T)."""
    estimate = as_matrix(estimate)
    truth = as_matrix(truth)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {truth.shape}")
    d, t = estimate.shape
    return float(np.sum((estimate - truth) ** 2) / (d * t))


def empirical_risk(estimate, x) -> float:
    """Unnormalized squared Frobenius distance ||estimate - x||_F^2."""
    estimate = as_matrix(estimate)
    x = as_matrix(x)
    if estimate.shape != x.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {x.shape}")
    return float(np.sum((estimate - x) ** 2))
