"""Known temporal structure bases and the projection / expansion maps.

A basis is a tau x T matrix L with L @ L.T = c * I_tau for a scalar gram
constant c.  Three families are provided:

  identity:  L = I_T, c = 1 (no structure, tau = T)
  periodic:  L = (I_tau | ... | I_tau), c = T / tau (tau-periodic series)
  trig:      rows {1, sqrt(2) cos(2 pi n t / T), sqrt(2) sin(2 pi n t / T)}
             for n = 1..N evaluated at t = 1..T, tau = 2N + 1, c = T

Projection sends a d x T observation into the d x tau coefficient space
via X @ L.T / c (the pseudo-inverse is L.T / c because L @ L.T = c I);
expansion is the adjoint map back to d x T.

L is applied as an operator and never stored.  Identity is periodic with
tau = T: projection sums the T / tau blocks of tau columns of X, expansion
tiles the coefficients (so it repeats every `basis.period` columns).  Trig
multiplies by one cached read-only table of its rows.  `basis.rows`
materialises L on demand.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


@dataclass(frozen=True)
class StructureBasis:
    kind: str              # "identity" | "periodic" | "trig"
    tau: int
    horizon: int
    gram_constant: float

    @property
    def period(self) -> int:
        """Columns after which an expansion repeats: tau, or T for trig."""
        return self.horizon if self.kind == "trig" else self.tau

    @property
    def rows(self) -> np.ndarray:
        """The dense tau x horizon matrix L, built on each access."""
        return expand(np.eye(self.tau), self)

    def descriptor(self) -> dict:
        """Serializable identification of the basis (never the raw matrix)."""
        return {"kind": self.kind, "tau": self.tau, "horizon": self.horizon}


def build_identity(horizon: int) -> StructureBasis:
    """Unstructured basis: tau = T, L = I_T."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    return StructureBasis("identity", horizon, horizon, 1.0)


def build_periodic(tau: int, horizon: int) -> StructureBasis:
    """Periodic basis: horizon must be a multiple of tau; c = horizon / tau."""
    if tau < 1:
        raise ValueError("tau must be positive")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if horizon % tau != 0:
        raise ValueError(
            f"horizon {horizon} must be divisible by tau {tau} "
            "(periodic structure requires T = p * tau)"
        )
    return StructureBasis("periodic", tau, horizon, horizon / tau)


def build_trig(n_freq: int, horizon: int) -> StructureBasis:
    """Real trigonometric basis with frequencies 0..n_freq; tau = 2 n_freq + 1.

    Discrete orthogonality L L^T = T I holds exactly when 2 * n_freq < T.
    """
    if n_freq < 0:
        raise ValueError("n_freq must be nonnegative")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    if 2 * n_freq >= horizon:
        raise ValueError(
            f"2 * n_freq = {2 * n_freq} must be < horizon = {horizon} "
            "(discrete orthogonality breaks otherwise)"
        )
    return StructureBasis("trig", 2 * n_freq + 1, horizon, float(horizon))


@functools.lru_cache(maxsize=8)
def _trig_rows(n_freq: int, horizon: int) -> np.ndarray:
    """Read-only trig rows [1; sqrt(2) cos; sqrt(2) sin], interleaved per n."""
    t = np.arange(1, horizon + 1)
    phase = 2.0 * np.pi * np.arange(1, n_freq + 1)[:, None] * t / horizon
    rows = np.ones((2 * n_freq + 1, horizon))
    rows[1::2] = np.sqrt(2.0) * np.cos(phase)
    rows[2::2] = np.sqrt(2.0) * np.sin(phase)
    rows.flags.writeable = False
    return rows


def project(x, basis: StructureBasis) -> np.ndarray:
    """Project a d x T matrix onto the basis: X @ L^T / c (d x tau)."""
    x = as_matrix(x)
    if x.shape[1] != basis.horizon:
        raise ValueError(
            f"x has {x.shape[1]} columns but basis horizon is {basis.horizon}"
        )
    if basis.kind == "trig":
        return x @ _trig_rows(basis.tau // 2, basis.horizon).T / basis.gram_constant
    # Sum the T / tau folds along a contiguous axis: numpy sums it pairwise.
    folds = x.reshape(x.shape[0], -1, basis.tau).transpose(0, 2, 1)
    return np.ascontiguousarray(folds).sum(axis=2) / basis.gram_constant


def expand(a_tilde, basis: StructureBasis) -> np.ndarray:
    """Expand a d x tau coefficient matrix back to d x T: A @ L."""
    a_tilde = as_matrix(a_tilde)
    if a_tilde.shape[1] != basis.tau:
        raise ValueError(
            f"coefficient matrix has {a_tilde.shape[1]} columns "
            f"but basis tau is {basis.tau}"
        )
    if basis.kind == "trig":
        return a_tilde @ _trig_rows(basis.tau // 2, basis.horizon)
    return np.tile(a_tilde, basis.horizon // basis.tau)
