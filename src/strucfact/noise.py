"""Row-wise dependent noise: a sampler, the factor of its projection,
covariance matrices, operator norms.

Rows of the noise matrix are i.i.d. copies of a stationary Gaussian scalar
process observed at t = 1..T: white noise, MA(1) eps_t = eta_t - theta
eta_{t-1} with innovation standard deviation sigma, or AR(1)
eps_t = rho eps_{t-1} + eta_t started from its stationary law and normalized
so the marginal variance is sigma^2 (covariance sigma^2 rho^|i-j|).

Every covariance operator norm is computed without power iteration or a
dense eigensolver.  iid and MA(1) norms are closed forms.  The AR(1)
covariance is a Kac-Murdock-Szego matrix (Kac, Murdock & Szego 1953): its
eigenvalues are sigma^2 (1 - r^2) / (1 - 2 r cos th + r^2), r = |rho|, at the
roots th of f(th) = sin((T+1) th) - 2 r sin(T th) + r^2 sin((T-1) th), and
the top one comes from the smallest root, which bisection finds in O(1) time
in T.

`sample_noise` runs the causal filter F of the spec over Gaussian draws (the
innovations, plus each row's start), so a sample is draws @ F^T.  The
projected noise sample_noise(...) @ L^T for a tau x T set of rows L is then
draws @ (L F)^T.  The draws are independent with standard deviations s, so
each row of it is N(0, S) with S = L Sigma L^T = A^T A for
A = diag(s) (L F)^T, and `projected_noise_factor` returns the tau x tau
triangular factor R of a QR of A.  z @ R for a d x tau standard normal z
then has the law of the projected noise: d tau normals instead of d (T + 1),
and the adjoint filter runs once, over the tau rows, inside the factor.

Reproducibility contract: sampling is a pure function of (spec, d, horizon,
seed), using numpy's PCG64 generator.  Parallel replications must derive
disjoint seeds via `replication_seed(seed, r)`, which mixes the replication
index through a SeedSequence.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

KINDS = ("iid", "ma1", "ar1")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str            # "iid" | "ma1" | "ar1"
    sigma: float         # scale: innovation std (iid, ma1), marginal std (ar1)
    theta: float = 0.0   # MA(1) coefficient
    rho: float = 0.0     # AR(1) coefficient, |rho| < 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        for name in ("sigma", "theta", "rho"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind == "ar1" and not abs(self.rho) < 1:
            raise ValueError(f"rho must satisfy |rho| < 1 for ar1, got {self.rho!r}")
        # sigma^2, and theta^2 for MA(1), scale every covariance and norm.
        for name in ("sigma", "theta") if self.kind == "ma1" else ("sigma",):
            value = getattr(self, name)
            where = f"noise {name} = {value!r}: {name}^2"
            try:
                square = float(value) ** 2
            except OverflowError:
                raise OverflowError(f"{where} overflows") from None
            if name == "sigma" and square == 0.0:
                raise FloatingPointError(f"{where} underflows to 0")


def replication_seed(seed: int, replication: int) -> int:
    """Deterministic per-replication seed, disjoint across replications."""
    return int(np.random.SeedSequence([seed, replication]).generate_state(1)[0])


def _draw_scales(spec: NoiseSpec, horizon: int) -> np.ndarray:
    """Standard deviation of each column of `sample_noise`'s draws: sigma, but
    sigma sqrt(1 - rho^2) for the AR(1) innovations after the start column."""
    if spec.kind == "iid":
        return np.full(horizon, spec.sigma)
    scales = np.full(horizon + 1, spec.sigma * np.sqrt(1.0 - spec.rho ** 2)
                     if spec.kind == "ar1" else spec.sigma)
    scales[0] = spec.sigma
    return scales


def _ar1_scan(y: np.ndarray, rho: float) -> None:
    """y_t += rho y_{t-1} along each row, in place, as a log-depth doubling
    scan: after the pass with shift s, column t holds sum_{j < 2s} rho^j
    (column t - j)."""
    shift, coef = 1, rho
    while shift < y.shape[1] and coef != 0.0:
        y[:, shift:] += coef * y[:, :-shift]
        shift, coef = 2 * shift, coef * coef


def sample_noise(spec: NoiseSpec, d: int, horizon: int, seed: int) -> np.ndarray:
    """Draw a d x horizon noise matrix with i.i.d. rows, deterministic in seed.

    iid noise is its own draws.  MA(1) and AR(1) draw d x (horizon + 1):
    column 0 is each row's start (the burn-in innovation eta_0, or the AR(1)
    value at t = 0 from the stationary law N(0, sigma^2)) and columns
    1..horizon are the innovations, AR(1)'s scaled by sqrt(1 - rho^2) so the
    marginal variance is sigma^2.  The causal filter F of the spec then
    makes the sample draws @ F^T: eps_t = eta_t - theta eta_{t-1}, or
    eps_t = rho eps_{t-1} + eta_t.
    """
    if d < 1 or horizon < 1:
        raise ValueError("d and horizon must be positive")
    rng = np.random.default_rng(seed)
    if spec.kind == "iid":
        draws = rng.standard_normal((d, horizon))
    else:
        draws = np.empty((d, horizon + 1))
        if spec.kind == "ma1":
            # Main innovations first so theta = 0 reproduces the iid sample
            # bit-for-bit; the burn-in eta_0 is drawn afterwards.
            draws[:, 1:] = rng.standard_normal((d, horizon))
            draws[:, :1] = rng.standard_normal((d, 1))
        else:
            draws[:, :1] = rng.standard_normal((d, 1))
            draws[:, 1:] = rng.standard_normal((d, horizon))
    draws *= _draw_scales(spec, horizon)
    if spec.kind == "iid":
        return draws
    if spec.kind == "ma1":
        # Into the scaled copy: the draws and one d x T array at the peak.
        out = spec.theta * draws[:, :-1]
        return np.subtract(draws[:, 1:], out, out=out)
    _ar1_scan(draws, spec.rho)
    return draws[:, 1:]


def projected_noise_factor(spec: NoiseSpec, rows) -> np.ndarray:
    """Upper-triangular tau x tau R with R^T R = rows Sigma rows^T.

    That is the covariance of each row of the projected noise
    sample_noise(...) @ rows.T, so z @ R for a d x tau standard normal z has
    its law (module docstring).  R is the triangle of a QR of
    diag(s) (rows F)^T, for the scales s of the draws; no covariance is
    formed, so no Cholesky squares its condition number.  The adjoint filter
    takes each row l to l F: the row itself for iid, and otherwise the row
    with l_0 = 0 in front, through z_j = l_j - theta l_{j+1} for MA(1) or the
    reverse-time scan z_j = l_j + rho z_{j+1} for AR(1).  It is scaled in
    place, so the QR's copy is the only other tau x (T + 1) array.
    """
    rows = np.asarray(rows, dtype=float)
    if spec.kind == "iid":
        adjoint = rows.copy()
    else:
        adjoint = np.zeros((rows.shape[0], rows.shape[1] + 1))
        adjoint[:, 1:] = rows
        if spec.kind == "ma1":
            adjoint[:, :-1] -= spec.theta * rows
        else:
            _ar1_scan(adjoint[:, ::-1], spec.rho)
    adjoint *= _draw_scales(spec, rows.shape[1])
    return np.linalg.qr(adjoint.T, mode="r")


def covariance_matrix(spec: NoiseSpec, horizon: int) -> np.ndarray:
    """Exact T x T row covariance (symmetric PSD Toeplitz)."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    s2 = float(spec.sigma) ** 2
    if spec.kind == "ar1":
        first = spec.rho ** np.arange(horizon)
    else:  # iid is MA(1) with theta = 0
        th = spec.theta if spec.kind == "ma1" else 0.0
        first = np.zeros(horizon)
        first[0] = 1.0 + th ** 2
        first[1:2] -= th
    idx = np.arange(horizon)
    return s2 * first[np.abs(idx[:, None] - idx[None, :])]


def sigma_op_norm(spec: NoiseSpec, horizon: int) -> float:
    """Operator norm of the row covariance.

    iid and MA(1) values are analytic: the tridiagonal-Toeplitz eigenvalues
    sigma^2 (1 + theta^2 - 2 theta cos(l pi / (T+1))), l = 1..T, peak at
    l = 1 for theta < 0 and at l = T for theta > 0.  The AR(1) norm is the
    top Kac-Murdock-Szego eigenvalue (Kac, Murdock & Szego 1953), found by
    bisection on its scalar root equation in O(1) time in T, with no power
    iteration.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    s2 = float(spec.sigma) ** 2
    if spec.kind == "ar1":
        return s2 * _kms_top_eigenvalue(abs(spec.rho), horizon)
    th = spec.theta if spec.kind == "ma1" else 0.0  # iid is MA(1) with theta = 0
    return s2 * (1.0 + th ** 2 + 2.0 * abs(th) * math.cos(math.pi / (horizon + 1)))


def _kms_top_eigenvalue(r: float, horizon: int) -> float:
    """Largest eigenvalue of the T x T matrix [r^|i-j|], 0 <= r < 1.

    The spectrum depends on |rho| only: flipping the sign of every other
    coordinate maps rho onto -rho.  The smallest root of the KMS equation f
    (module docstring) is bracketed by (0, pi / (T+1)): f > 0 near 0 and
    f < 0 at pi / (T+1).  Both f and the eigenvalue's denominator are
    evaluated in half-angle forms that do not cancel as r -> 1.
    """
    if r == 0.0 or horizon == 1:
        return 1.0
    gap = (1.0 - r) ** 2

    def f(th):
        # sin((T+/-1) th) expanded around sin(T th) and cos(T th)
        return (math.sin(horizon * th) * (gap - 2.0 * (1.0 + r * r) * math.sin(th / 2) ** 2)
                + (1.0 - r * r) * math.sin(th) * math.cos(horizon * th))

    lo, hi = 0.0, math.pi / (horizon + 1)
    mid = hi / 2
    while lo < mid < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return (1.0 - r) * (1.0 + r) / (gap + 4.0 * r * math.sin(mid / 2) ** 2)
