"""Penalized selection of the structure resolution tau and the rank k.

Every feasible (basis, k) pair on the candidate grid is scored; the score
is the unnormalized empirical risk plus a penalty proportional to
k * (d + tau + shifted confidence level) * noise level.  The winner is the
pair with the smallest score; exact ties go to the smaller k, then the
smaller tau.  The empirical risks of all ranks of one basis come from the
singular values of the projection alone (see _residuals), without its
singular vectors; only the winner is refit.
Without a given noise level, the plug-in is read from the same profiles.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .estimator import FactorModel, fit
from .linalg import as_matrix
from .structure import StructureBasis, expand, project


@dataclass(frozen=True)
class CandidateGrid:
    bases: list[StructureBasis]
    ranks: list[int]

    def __post_init__(self):
        if not self.bases or not self.ranks:
            raise ValueError("grid must contain at least one basis and one rank")
        horizons = {b.horizon for b in self.bases}
        if len(horizons) != 1:
            raise ValueError(f"all bases must share one horizon, got {sorted(horizons)}")
        if sorted(set(self.ranks)) != list(self.ranks):
            raise ValueError("ranks must be sorted ascending and distinct")
        if self.ranks[0] < 1:
            raise ValueError("ranks must be positive")


@dataclass(frozen=True)
class PenaltyParams:
    lam: float           # lambda in (0, 1)
    c_pen: float         # user-facing constant absorbing the theory constants
    noise_level: float | None  # noise row covariance op norm; None: plug-in
    s: float = 1.0       # confidence parameter

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam!r}")
        if self.c_pen < 0:
            raise ValueError("c_pen must be nonnegative")
        if self.noise_level is not None and self.noise_level <= 0:
            raise ValueError("noise_level must be positive")
        if self.s < 0:
            raise ValueError("s must be nonnegative")


@dataclass(frozen=True)
class ScoreRow:
    basis_index: int
    tau: int
    k: int
    empirical_risk: float
    penalty: float
    score: float


@dataclass(frozen=True)
class SelectionResult:
    winner: ScoreRow     # the table's row with the smallest score
    table: list[ScoreRow] = field(repr=False)
    fitted: FactorModel = field(repr=False)
    noise_level: float   # the level the penalties used

    @property
    def chosen_tau(self) -> int:
        return self.winner.tau

    @property
    def chosen_k(self) -> int:
        return self.winner.k


def penalty(params: PenaltyParams, d: int, tau: int, k: int) -> float:
    """Penalty (c_pen * k / lam) * (d + tau + (s + tau + k)) * noise_level.

    The confidence level is shifted by tau + k so that the grid-wide union
    bound holds; at fixed k the shift's s-dependence is the same for every
    tau, which is why the selected tau does not depend on s when the rank
    grid is a singleton.
    """
    if min(d, tau, k) < 1:
        raise ValueError("d, tau, k must be positive")
    return (params.c_pen * k / params.lam) * (d + tau + (params.s + tau + k)) \
        * params.noise_level


def _residuals(x: np.ndarray, basis: StructureBasis) -> np.ndarray:
    """||X - expand(rank-k fit)||_F^2 for k = 0..min(d, tau).

    Because L L^T = c I, the residual of the rank-k fit splits into the part
    of X outside the row space of L plus c times the singular-value tail of
    the projection that the truncation discards (Eckart-Young).  So the
    profile needs the singular values alone, not the singular vectors.  The
    tail is summed from the smallest value up, so small residuals do not
    cancel.
    """
    x_tilde = project(x, basis)
    # The full SVD's values, not linalg.top_k: the Gram matrix squares the
    # condition number, and the tail must hold at roundoff (noise sigma=1e-9
    # in test_cli's TestSelect.test_noiseless_recovery).
    s2 = linalg.singular_values(x_tilde) ** 2
    # One d x T temporary: the expansion, less X in place, squared in place.
    r = expand(x_tilde, basis)
    r -= x
    out_of_span = float(np.sum(np.square(r, out=r)))
    tail = np.append(np.cumsum(s2[::-1])[::-1], 0.0)
    return out_of_span + basis.gram_constant * tail


def select(x, grid: CandidateGrid, params: PenaltyParams) -> SelectionResult:
    """Score every feasible (basis, k) pair and return the minimizer.

    Pairs with k > min(d, tau) are skipped.  Raises ValueError when no pair
    is feasible.  A `params.noise_level` of None means the
    `calibrate_noise_level` plug-in, read from the same residual profiles.
    """
    x = as_matrix(x)
    d = x.shape[0]
    profiles = {bi: _residuals(x, basis) for bi, basis in enumerate(grid.bases)
                if grid.ranks[0] <= min(d, basis.tau)}
    if not profiles:
        raise ValueError("no feasible (basis, rank) pair on the grid")
    if params.noise_level is None:
        # Feasibility grows with tau, so the largest basis has a profile.
        largest = max(profiles, key=lambda bi: grid.bases[bi].tau)
        level = _plug_in(x, grid.ranks, profiles[largest])
        if level == 0.0:
            raise ValueError("noise_level must be positive, but the plug-in (the "
                             "residual variance of the grid's largest model) is 0; "
                             "give noise_level or shrink the grid")
        params = replace(params, noise_level=level)
    table: list[ScoreRow] = []
    for bi, resid in profiles.items():
        tau = grid.bases[bi].tau
        for k in [k for k in grid.ranks if k <= min(d, tau)]:
            er, pen = float(resid[k]), penalty(params, d, tau, k)
            table.append(ScoreRow(bi, tau, k, er, pen, er + pen))
    winner = min(table, key=lambda r: (r.score, r.k, r.tau))
    return SelectionResult(winner, table,
                           fit(x, grid.bases[winner.basis_index], winner.k),
                           params.noise_level)


def _plug_in(x: np.ndarray, ranks: list[int], resid: np.ndarray) -> float:
    """||X - fitted||_F^2 / (d T) of the largest feasible rank of one basis,
    read from its residual profile `resid` (ranks 0..min(d, tau))."""
    d, t = x.shape
    return float(resid[min(max(ranks), len(resid) - 1)] / (d * t))


def calibrate_noise_level(x, grid: CandidateGrid) -> float:
    """Residual-variance plug-in for the noise level.

    Takes the largest model on the grid (max tau, max feasible k) and returns
    its residual ||X - fitted||_F^2 / (d T).
    """
    x = as_matrix(x)
    return _plug_in(x, grid.ranks, _residuals(x, max(grid.bases, key=lambda b: b.tau)))
