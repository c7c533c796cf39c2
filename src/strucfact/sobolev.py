"""Smooth latent factor generation on a Sobolev ellipsoid.

A smooth row is a real trigonometric polynomial

    f(x) = a_0 + sum_{n=1}^{n_terms} a_n sqrt(2) cos(2 pi n x)
                                   + b_n sqrt(2) sin(2 pi n x)

whose coefficients satisfy the ellipsoid condition

    sum_n (2 pi n)^{2 beta} (a_n^2 + b_n^2) <= L^2.

Coefficients are drawn as centered Gaussians with standard deviation
proportional to n^{-beta - 1/2} and then rescaled onto the ellipsoid at a
uniformly drawn radius fraction, so the expected energy beyond frequency N
decays like N^{-2 beta}.  They are drawn straight into the trig basis layout
[a_0, a_1, b_1, a_2, b_2, ...], so a dictionary is their `expand` through
`build_trig`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .structure import StructureBasis, build_trig, expand, project


@dataclass(frozen=True)
class SmoothFactorSpec:
    k: int          # number of latent rows
    beta: int       # smoothness order
    ell: float      # ellipsoid radius L
    n_terms: int    # number of Fourier modes per row

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.beta < 1:
            raise ValueError("beta must be a positive integer")
        if self.ell <= 0:
            raise ValueError("ell must be positive")
        if self.n_terms < 0:
            raise ValueError("n_terms must be nonnegative")


def gen_smooth_coefficients(spec: SmoothFactorSpec, seed: int) -> np.ndarray:
    """Draw ellipsoid-constrained coefficients in the trig basis layout.

    Returns the k x (2 n_terms + 1) matrix [a0, a1, b1, a2, b2, ...], whose
    columns follow the rows of `build_trig`.  For every row,
    sum_n (2 pi n)^{2 beta} (a_n^2 + b_n^2) = (u L)^2 with u ~ U(0, 1].
    """
    rng = np.random.default_rng(seed)
    coef = np.empty((spec.k, 2 * spec.n_terms + 1))
    coef[:, 0] = rng.standard_normal(spec.k)
    if spec.n_terms == 0:
        return coef
    n = np.arange(1, spec.n_terms + 1, dtype=float)
    scale = n ** (-spec.beta - 0.5)
    a, b = coef[:, 1::2], coef[:, 2::2]
    a[:] = rng.standard_normal((spec.k, spec.n_terms)) * scale
    b[:] = rng.standard_normal((spec.k, spec.n_terms)) * scale
    weight = (2.0 * np.pi * n) ** (2 * spec.beta)
    energy = np.sum(weight * (a ** 2 + b ** 2), axis=1)
    u = 1.0 - rng.uniform(size=spec.k)  # in (0, 1]
    coef[:, 1:] *= (u * spec.ell / np.sqrt(energy))[:, None]
    return coef


def gen_smooth_dictionary(spec: SmoothFactorSpec, horizon: int, seed: int) -> np.ndarray:
    """k x horizon matrix of smooth rows sampled on the grid t / horizon."""
    if horizon < 2 * spec.n_terms + 2:
        raise ValueError(
            f"horizon {horizon} too small for n_terms={spec.n_terms}; "
            f"need at least {2 * spec.n_terms + 2}"
        )
    coef = gen_smooth_coefficients(spec, seed)
    return expand(coef, build_trig(spec.n_terms, horizon))


def bias_of_truncation(w, basis: StructureBasis) -> float:
    """Per-entry squared error of projecting smooth rows onto a trig basis.

    Returns ||W - project(W) expanded||_F^2 / (k * horizon): the empirical
    truncation bias of the dictionary onto the basis span.
    """
    if basis.kind != "trig":
        raise ValueError("bias_of_truncation requires a trig basis")
    w = as_matrix(w)
    resid = w - expand(project(w, basis), basis)
    return float(np.sum(resid ** 2) / w.size)


def optimal_cutoff(beta: int, c_beta_l: float, d: int, horizon: int,
                   k: int, sigma_op: float) -> int:
    """Bias/variance-balancing frequency cutoff.

    floor((d * horizon * c_beta_l / (sigma_op * k))^(1 / (2 beta + 1))),
    clamped to [1, (horizon - 1) // 2] so that 2 N < horizon.
    """
    if min(beta, d, horizon, k) < 1 or c_beta_l <= 0 or sigma_op <= 0:
        raise ValueError("all arguments must be positive")
    raw = (d * horizon * c_beta_l / (sigma_op * k)) ** (1.0 / (2 * beta + 1))
    # min first: raw is inf for a tiny sigma_op; 1e-12 guards against 9.999...
    n = int(np.floor(min(raw, horizon) * (1.0 + 1e-12)))
    return max(1, min(n, (horizon - 1) // 2))
