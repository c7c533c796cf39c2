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

L is applied as an operator and never stored.  Periodic projection sums
the T / tau blocks of tau columns of X and expansion tiles the coefficients
(so it repeats every `basis.period` columns); identity is the periodic case
tau = T, whose projection is a copy of X.  Trig project and expand multiply
by a cached read-only table of its rows, which fit and select reuse across
calls.  `basis.rows` materialises L on demand as a new array and caches
nothing, so a caller that needs L once (rate-check's noise factor) holds it
only while it uses it.
"""
from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import as_matrix

KINDS = ("identity", "periodic", "trig")


@dataclass(frozen=True)
class StructureBasis:
    kind: str              # one of KINDS
    tau: int
    horizon: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {KINDS}")
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.tau < 1:
            raise ValueError("n_freq must be nonnegative" if self.kind == "trig"
                             else "tau must be positive")
        if self.kind == "identity" and self.tau != self.horizon:
            raise ValueError(f"identity basis needs tau = horizon = {self.horizon}, "
                             f"got tau = {self.tau}")
        if self.kind == "periodic" and self.horizon % self.tau != 0:
            raise ValueError(
                f"horizon {self.horizon} must be divisible by tau {self.tau} "
                "(periodic structure requires T = p * tau)")
        if self.kind == "trig" and self.tau % 2 == 0:
            raise ValueError(f"trig tau = 2 n_freq + 1 must be odd, got {self.tau}")
        if self.kind == "trig" and self.tau > self.horizon:
            raise ValueError(
                f"2 * n_freq = {self.tau - 1} must be < horizon = {self.horizon} "
                "(discrete orthogonality breaks otherwise)")

    @property
    def gram_constant(self) -> float:
        """c in L L^T = c I: T for trig, T / tau otherwise (1.0 for identity)."""
        return float(self.horizon) if self.kind == "trig" else self.horizon / self.tau

    @property
    def period(self) -> int:
        """Columns after which an expansion repeats: tau, or T for trig."""
        return self.horizon if self.kind == "trig" else self.tau

    @property
    def rows(self) -> np.ndarray:
        """The dense tau x horizon matrix L, a new writable array on each
        access; a trig basis builds it anew and never reads or fills the
        cache of project and expand."""
        if self.kind == "trig":
            return _trig_table(self.tau // 2, self.horizon)
        return expand(np.eye(self.tau), self)

    def descriptor(self) -> dict:
        """Serializable identification of the basis (never the raw matrix)."""
        return asdict(self)


def build_identity(horizon: int) -> StructureBasis:
    """Unstructured basis: tau = T, L = I_T."""
    return StructureBasis("identity", horizon, horizon)


def build_periodic(tau: int, horizon: int) -> StructureBasis:
    """Periodic basis: horizon must be a multiple of tau; c = horizon / tau."""
    return StructureBasis("periodic", tau, horizon)


def build_trig(n_freq: int, horizon: int) -> StructureBasis:
    """Real trigonometric basis with frequencies 0..n_freq; tau = 2 n_freq + 1.

    Discrete orthogonality L L^T = T I holds exactly when 2 * n_freq < T.
    """
    return StructureBasis("trig", 2 * n_freq + 1, horizon)


def _trig_table(n_freq: int, horizon: int) -> np.ndarray:
    """Trig rows [1; sqrt(2) cos; sqrt(2) sin], interleaved per n."""
    t = np.arange(1, horizon + 1)
    phase = 2.0 * np.pi * np.arange(1, n_freq + 1)[:, None] * t / horizon
    rows = np.ones((2 * n_freq + 1, horizon))
    rows[1::2] = np.sqrt(2.0) * np.cos(phase)
    rows[2::2] = np.sqrt(2.0) * np.sin(phase)
    return rows


@functools.lru_cache(maxsize=8)
def _trig_rows(n_freq: int, horizon: int) -> np.ndarray:
    """The read-only table of _trig_table that project and expand share."""
    rows = _trig_table(n_freq, horizon)
    rows.flags.writeable = False
    return rows


def project(x, basis: StructureBasis) -> np.ndarray:
    """Project a d x T matrix onto the basis: X @ L^T / c (d x tau).  An
    identity basis also projects an (n, d, T) stack, each matrix alone."""
    x = as_matrix(x, stack=basis.kind == "identity")
    if x.shape[-1] != basis.horizon:
        raise ValueError(
            f"x has {x.shape[-1]} columns but basis horizon is {basis.horizon}"
        )
    if basis.kind == "trig":
        return x @ _trig_rows(basis.tau // 2, basis.horizon).T / basis.gram_constant
    if basis.kind == "identity":
        return x.copy()
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
