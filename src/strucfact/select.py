"""Penalized selection of the structure resolution tau and the rank k.

Every feasible (basis, k) pair on the candidate grid is scored; the score
is the unnormalized empirical risk plus a penalty proportional to
k * (d + tau + shifted confidence level) * noise level.  The winner is the
pair with the smallest score; exact ties go to the smaller k, then the
smaller tau.  The empirical risks of all ranks of one basis come from a
single SVD of the projection (see _residuals); only the winner is refit.
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
            raise ValueError("lam must lie in (0, 1)")
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
    chosen: bool = False


@dataclass(frozen=True)
class SelectionResult:
    chosen_tau_index: int
    chosen_k: int
    table: list[ScoreRow] = field(repr=False)
    fitted: FactorModel = field(repr=False)
    noise_level: float   # the level the penalties used

    @property
    def chosen_tau(self) -> int:
        return self.table[[r.chosen for r in self.table].index(True)].tau


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
    the projection that the truncation discards (Eckart-Young).  The tail is
    summed from the smallest value up, so small residuals do not cancel.
    """
    x_tilde = project(x, basis)
    # The full SVD, not linalg.top_k: the Gram matrix squares the condition
    # number, and the tail must hold at roundoff (noise sigma=1e-9 in
    # test_cli's TestSelect.test_noiseless_recovery).
    s2 = linalg.svd(x_tilde).singular_values ** 2
    out_of_span = float(np.sum((x - expand(x_tilde, basis)) ** 2))
    tail = np.append(np.cumsum(s2[::-1])[::-1], 0.0)
    return out_of_span + basis.gram_constant * tail


def select(x, grid: CandidateGrid, params: PenaltyParams) -> SelectionResult:
    """Score every feasible (basis, k) pair and return the minimizer.

    Pairs with k > min(d, tau) are skipped.  Raises ValueError when no pair
    is feasible.  A `params.noise_level` of None means the
    `calibrate_noise_level` plug-in, read from the same residual profiles.
    """
    x = as_matrix(x)
    d, t = x.shape
    profiles = {bi: _residuals(x, basis) for bi, basis in enumerate(grid.bases)
                if grid.ranks[0] <= min(d, basis.tau)}
    if params.noise_level is None:
        bi = max(range(len(grid.bases)), key=lambda i: grid.bases[i].tau)
        basis = grid.bases[bi]
        resid = profiles[bi] if bi in profiles else _residuals(x, basis)
        k = min(max(grid.ranks), d, basis.tau)
        params = replace(params, noise_level=float(resid[k] / (d * t)))
    table: list[ScoreRow] = []
    for bi, basis in enumerate(grid.bases):
        ranks = [k for k in grid.ranks if k <= min(d, basis.tau)]
        if not ranks:
            continue
        resid = profiles[bi]
        for k in ranks:
            er = float(resid[k])
            pen = penalty(params, d, basis.tau, k)
            table.append(ScoreRow(bi, basis.tau, k, er, pen, er + pen))
    if not table:
        raise ValueError("no feasible (basis, rank) pair on the grid")
    winner = min(table, key=lambda r: (r.score, r.k, r.tau))
    table = [
        ScoreRow(r.basis_index, r.tau, r.k, r.empirical_risk, r.penalty, r.score,
                 chosen=(r is winner))
        for r in table
    ]
    return SelectionResult(
        chosen_tau_index=winner.basis_index,
        chosen_k=winner.k,
        table=table,
        fitted=fit(x, grid.bases[winner.basis_index], winner.k),
        noise_level=params.noise_level,
    )


def calibrate_noise_level(x, grid: CandidateGrid) -> float:
    """Residual-variance plug-in for the noise level.

    Takes the largest model on the grid (max tau, max feasible k) and returns
    its residual ||X - fitted||_F^2 / (d T).
    """
    x = as_matrix(x)
    d, t = x.shape
    basis = max(grid.bases, key=lambda b: b.tau)
    k = min(max(grid.ranks), d, basis.tau)
    return float(_residuals(x, basis)[k] / (d * t))
