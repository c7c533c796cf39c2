"""The Monte Carlo engine of rate-check: its points, a block of replications,
the slope.

rate-check replicates in the coefficient space of each point's basis L.
Because L L^T = c I, a fit sees only the projection X L^T / c = B + E L^T / c
of X = B L + E, and ||A L - B L||_F^2 = c ||A - B||_F^2.  A smooth truth is
written over the wider of its own and the fit's trig basis, whose rows stay
orthogonal because 2 max(n_terms, n_freq) < T.  So one replication draws the
true coefficients B, adds the projected noise, fits it through
build_identity(tau), and returns c ||A_hat - B||_F^2 / (d T), without ever
forming a d x T signal.  For a trig basis the projected noise is z @ R: z is a
d x tau standard normal drawn from the replication's noise seed, and R is the
tau x tau factor of its row covariance L Sigma L^T / c^2, built once per
point by noise.projected_noise_factor (which runs the AR(1) filter over the
tau rows of L, never over a sample).  A periodic basis projects a noise
sample, and an identity basis with MA(1) or AR(1) noise, or with T - k < d,
takes one as it is, which costs O(d T).

An identity basis with iid noise and T - k >= d never draws the d x T noise
either.  Write the truth as A Q^T, for the QR factorization V^T = Q R and
A = U R^T, and complete Q to an orthogonal [Q Q2].  The noise E [Q Q2] is
again iid, so in these coordinates the observation is [A + sigma E1 | sigma
E2] with a d x k E1 and a d x (T - k) E2.  The fit sees E2 only through its
Gram matrix E2 E2^T, a Wishart matrix whose Bartlett factor Lb (lower
triangular: standard normals below the diagonal, sqrt(chi^2_{T-k-i}) on it;
Bartlett 1933, Odell & Feiveson 1966) has the same law.  So the replication
fits the d x (k + d) matrix Z = [A + sigma E1 | sigma Lb], whose Gram matrix
has the law of the observation's, and its risk against [A | 0] is
||P (A + sigma E1) - A||_F^2 + sigma^2 tr(P Lb Lb^T) for the fit's projector
P, as for the d x T fit.  Its reports differ from those of the d x T fit
by Monte Carlo noise only: over seeds 1-8 of the ratecheck-unstructured
benchmark config, each point's mean risk moved by 0.989-1.008 times, with
paired z-scores of mean -0.20 and standard deviation 0.81.

Replications run in blocks of consecutive indices at one point.
block_risks draws each replication of a block alone, from its own seeds and
in the same order as it would alone.  On the Bartlett route the loop keeps
only those draws, each in its row of a preallocated block array; Z is then
assembled for the whole block by three assignments, fitted by one
estimator.fit and scored by one sum of squares over the (n, d, k + d)
stack.  The other routes stack the block's d x width observations into one
(n, d, width) array, fit it with one estimator.fit and score each
replication.  The fit's Gram products, eigensolves and Ritz SVDs run once
over the stack, and numpy releases the GIL in each, so another pool thread
draws meanwhile.  Each matrix of a stack is fitted and summed bit for bit
as it would be alone, so no risk depends on its block, nor a report on
--threads.  block_size sizes a block by what each replication keeps until
the fit, within BLOCK_DOUBLES: 6 replications of the Bartlett route at
d = 50, and one where a replication samples d x T noise with d T above
BLOCK_DOUBLES / 2, so peak memory does not grow there.
"""
from __future__ import annotations

import numpy as np

# Called as noise.sample_noise, never by an imported name, so that a wrapper
# set on a module attribute (perfbench's span tracer) sees every call.
from . import estimator, noise, sobolev, structure

# numpy error state under which an overflow or a NaN raises FloatingPointError
# (exit 3) instead of printing a RuntimeWarning.
FP_ERRORS = {"over": "raise", "invalid": "raise"}
# Doubles (192 KiB) that a block's replications may keep until its fit: 6
# Bartlett replications at d = 50.  400 of them on two threads took 0.23 s
# in blocks of 6, against 0.27 s in blocks of 4 (2^14 doubles) and 0.42 s
# one at a time; blocks of 8 took 0.21 s and added 0.4 MB of peak RSS, and
# blocks of 32 took 0.22 s and added 5.7 MB (warm, 2-core Xeon).
BLOCK_DOUBLES = 3 * 2 ** 13


def truth(d: int, k: int, seed: int, width: int,
          smooth: sobolev.SmoothFactorSpec | None):
    """Factors (U, V) of one ground truth M = U V L.  V is a k x width
    Gaussian matrix, or with `smooth` the smooth coefficients in the layout of
    build_trig(n_terms, T), and then the rows of U have norm 1."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((d, k))
    if smooth is None:
        return u, rng.standard_normal((k, width))
    # Not `seed` itself, whose first draw is U's first row.
    v = sobolev.gen_smooth_coefficients(smooth, noise.replication_seed(seed, 0))
    return u / np.linalg.norm(u, axis=1, keepdims=True), v


def build_point(spec: noise.NoiseSpec, basis: structure.StructureBasis, d: int,
                k: int, s: float, smooth: sobolev.SmoothFactorSpec | None,
                c_beta_l: float | None):
    """A rate-check point: (report row with theoretical_rate, noise law (basis, R)).

    For a trig basis L, R is the tau x tau factor of the projected noise
    E L^T / c: R^T R is its row covariance L Sigma L^T / c^2.  It is None for
    identity and periodic bases, which sample their noise or, for an identity
    basis with iid noise and T - k >= d, draw a Bartlett factor (module
    docstring).
    """
    tau, horizon = basis.tau, basis.horizon
    if k > min(d, tau):
        raise ValueError(f"rate-check: k={k} exceeds min(d, tau) = "
                         f"{min(d, tau)} at T={horizon}")
    row = {"d": d, "T": horizon, "tau": tau, "k": k}
    rate = noise.sigma_op_norm(spec, horizon) * k * (d + tau + s) / (d * horizon)
    if smooth is not None:
        row["n_freq"] = n_freq = tau // 2
        rate += c_beta_l * float(n_freq) ** (-2 * smooth.beta)
    factor = None
    if basis.kind == "trig":
        factor = noise.projected_noise_factor(spec, basis.rows) / basis.gram_constant
    return dict(row, theoretical_rate=rate), (basis, factor)


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """`a` with zero columns appended up to `width` columns."""
    if a.shape[1] == width:
        return a
    wide = np.zeros((a.shape[0], width))
    wide[:, :a.shape[1]] = a
    return wide


def _bartlett(d, k, spec, basis) -> bool:
    """Whether a point's replications take the Bartlett route (module docstring)."""
    return basis.kind == "identity" and spec.kind == "iid" and basis.horizon - k >= d


def block_size(d, k, spec, smooth, basis) -> int:
    """Replications per block at a point: as many as keep their arrays within
    BLOCK_DOUBLES until their block is fitted, and at least one.  On the
    Bartlett route that is Z (d x (k + d)), A and E1 (d x k each), and the
    d (d - 1) / 2 normals and d chi-squares of Lb.  Otherwise it is the
    widest d x width array: T where a replication samples d x T noise, and
    for a trig basis the wider of the fit's tau and the 2 n_terms + 1
    coefficients of the smooth truth."""
    if _bartlett(d, k, spec, basis):
        doubles = d * (k + d) + 2 * d * k + d * (d - 1) // 2 + d
    elif basis.kind == "trig":
        doubles = d * max(basis.tau, 2, 2 * smooth.n_terms + 1)
    else:
        doubles = d * basis.horizon
    return max(1, BLOCK_DOUBLES // doubles)


def block_risks(d, k, spec, seed, smooth, point, indices) -> np.ndarray:
    """simulate -> fit -> normalized risk of each replication in `indices` at
    one point (basis, R), all in the coefficient space of its basis, with one
    estimator.fit of their stacked observations (module docstring)."""
    basis, noise_factor = point
    tau, horizon = basis.tau, basis.horizon
    # A pool thread starts from numpy's default error state, not main's.
    with np.errstate(**FP_ERRORS):
        if _bartlett(d, k, spec, basis):
            return _bartlett_risks(d, k, spec.sigma, seed, horizon, indices)
        # Zero columns change no fit and no risk.  They widen the narrower of
        # a smooth truth and its estimate, and tau = 1 to the two columns
        # build_identity needs.
        fit_width = max(tau, 2)
        observations, truths = [], []
        for idx in indices:
            eps_seed = noise.replication_seed(seed, 2 * idx + 1)
            u, v = truth(d, k, noise.replication_seed(seed, 2 * idx), tau, smooth)
            # x_tilde starts as the projected noise E L^T / c, which is E
            # itself for the identity basis.
            if noise_factor is None:
                x_tilde = noise.sample_noise(spec, d, horizon, eps_seed)
                if basis.kind == "periodic":
                    x_tilde = structure.project(x_tilde, basis)
            else:
                x_tilde = (np.random.default_rng(eps_seed).standard_normal((d, tau))
                           @ noise_factor)
            b = _widen(u @ v, max(v.shape[1], fit_width))
            x_tilde += b[:, :tau]
            observations.append(_widen(x_tilde, fit_width))
            truths.append(b)
        # One observation is its own stack, so a d x T one is never copied.
        x = (observations[0][None] if len(observations) == 1
             else np.stack(observations))
        model = estimator.fit(x, structure.build_identity(fit_width), k)
        return np.array([basis.gram_constant
                         * estimator.empirical_risk(_widen(a_hat, b.shape[1]), b)
                         / (d * horizon)
                         for a_hat, b in zip(model.m_tilde_hat, truths)])


def _bartlett_risks(d, k, sigma, seed, horizon, indices) -> np.ndarray:
    """block_risks on the Bartlett route.  Each replication draws, from its
    own seeds, A = U R^T, then E1, the strict lower triangle of Lb in
    np.tril_indices order and the chi^2_{T-k-i} of its diagonal, i = 0..d-1.
    Z = [A + sigma E1 | sigma Lb] is then assembled, fitted and scored
    against [A | 0] once over the whole block."""
    n, lower = len(indices), np.tril_indices(d, -1)
    a, e1 = np.empty((n, d, k)), np.empty((n, d, k))
    below, chi2 = np.empty((n, lower[0].size)), np.empty((n, d))
    rows = np.arange(d)
    dof = horizon - k - rows
    for i, idx in enumerate(indices):
        u, v = truth(d, k, noise.replication_seed(seed, 2 * idx), horizon, None)
        a[i] = u @ np.linalg.qr(v.T, mode="r").T
        rng = np.random.default_rng(noise.replication_seed(seed, 2 * idx + 1))
        rng.standard_normal(out=e1[i])
        rng.standard_normal(out=below[i])
        chi2[i] = rng.chisquare(dof)
    z = np.zeros((n, d, k + d))
    z[:, :, :k] = a + sigma * e1
    factor = z[:, :, k:]
    factor[:, lower[0], lower[1]] = sigma * below
    factor[:, rows, rows] = sigma * np.sqrt(chi2)
    # An identity basis has c = 1.  The sum over a C-contiguous (n, d, w)
    # stack adds each matrix in the order of its sum alone.
    diff = estimator.fit(z, structure.build_identity(k + d), k).m_tilde_hat
    diff[:, :, :k] -= a
    return np.sum(diff ** 2, axis=(1, 2)) / (d * horizon)


def loglog_slope(rates, means):
    """OLS slope of log(mean risk) on log(rate), with slope standard error
    (np.polyfit scales the covariance by residual / (n - 2))."""
    (slope, intercept), cov = np.polyfit(np.log(rates), np.log(means), 1, cov=True)
    return float(slope), float(intercept), float(np.sqrt(cov[0, 0]))
