"""The Monte Carlo engine of rate-check: its points, a block of replications,
the slope.

rate-check replicates in the coefficient space of each point's basis L.
Because L L^T = c I, a fit sees only the projection X L^T / c = B + E L^T / c
of X = B L + E, and ||A L - B L||_F^2 = c ||A - B||_F^2.  A smooth truth is
written over the wider of its own and the fit's trig basis, whose rows stay
orthogonal because 2 max(n_terms, n_freq) < T.  So one replication draws the
true coefficients B, adds the projected noise, fits it through
build_identity(tau), and returns c ||A_hat - B||_F^2 / (d T), without ever
forming a d x T signal.  build_point picks each point's noise route once.
On the factor route, every trig basis and a periodic one with 2 tau <= d, the
projected noise is z @ R: z is a d x tau standard normal drawn from the
replication's noise seed, and R is the tau x tau factor of its row
covariance L Sigma L^T / c^2, built once per point by
noise.projected_noise_factor (which runs the AR(1) filter over the tau rows
of L, never over a sample).  On the sample route a periodic basis with
2 tau > d projects a d x T noise sample, and an identity basis with MA(1) or
AR(1) noise, or with T - k < d, takes one as it is, which costs O(d T) per
replication.

The periodic rule bounds memory; time needs none.  A replication through
z @ R was never slower than sample and project (0.43-0.58 ms against
0.84-26 ms at d = 50, and no slower at d = 400 and 1000 even at tau = T, on
one OpenBLAS thread), so T is not in the rule.  But building R holds about
four tau x T arrays, and a sampled replication about two d x T arrays: at
d = 50, AR(1), T = 96000 and tau = 25 the build peaked at 102 MB of RSS in
0.26 s, and one sampled replication at 114 MB in 0.40 s.

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
in the same order as it would alone, into a stack x of the (n, d, w)
observations it fits and one of the (n, d, wt) truths it is scored against:
on the Bartlett route Z (w = k + d), assembled by three assignments, and A
(wt = k); elsewhere the projected noise plus the truth's first tau
coefficients (w = max(tau, 2): zero columns change no fit) and U V (wt =
tau, or 2 n_terms + 1 for a smooth truth).  One tail fits x by one
estimator.fit and scores the block by one sum of squares of the estimate,
zero-padded to max(w, wt) columns, less the truth.  The fit's Gram
products, eigensolves and Ritz SVDs run once over the stack, and numpy
releases the GIL in each, so another thread draws meanwhile.  Each
matrix of a stack is fitted and summed bit for bit as it would be alone, so
no risk depends on its block, nor a report on --threads.  block_size sizes
a block by what each replication keeps until the fit, within BLOCK_DOUBLES:
6 replications of the Bartlett route at d = 50, and one where the sample
route's d x T noise sample outgrows the budget, so peak memory does not grow
there.
"""
from __future__ import annotations

import numpy as np

# Called as noise.sample_noise, never by an imported name, so that a wrapper
# set on a module attribute (perfbench's span tracer) sees every call.
from . import estimator, noise, sobolev, structure

# numpy error state under which an overflow or a NaN raises FloatingPointError
# (exit 3) instead of printing a RuntimeWarning.
FP_ERRORS = {"over": "raise", "invalid": "raise"}
# Doubles (192 KiB) that a block's replications may keep until its fit: their
# rows of both stacks and their other draws (block_size), 6 Bartlett
# replications at d = 50.  400 of them on two threads took 0.23 s in blocks
# of 6, against 0.27 s in blocks of 4 (2^14 doubles) and 0.42 s one at a
# time; blocks of 8 took 0.21 s and added 0.4 MB of peak RSS, and blocks of
# 32 took 0.22 s and added 5.7 MB (warm, 2-core Xeon).
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
    """A rate-check point: (report row with theoretical_rate, noise law
    (basis, route, R)).

    The route is decided here, once (module docstring): "bartlett" for an
    identity basis with iid noise and T - k >= d, "factor" for a trig basis
    and for a periodic one with 2 tau <= d, and "sample" otherwise.  On the
    factor route R is the tau x tau factor of the projected noise E L^T / c,
    R^T R = L Sigma L^T / c^2, and elsewhere it is None.
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
    if basis.kind == "identity" and spec.kind == "iid" and horizon - k >= d:
        route = "bartlett"
    elif basis.kind == "trig" or (basis.kind == "periodic" and 2 * tau <= d):
        route = "factor"
        factor = noise.projected_noise_factor(spec, basis.rows) / basis.gram_constant
    else:
        route = "sample"
    return dict(row, theoretical_rate=rate), (basis, route, factor)


def block_size(d, k, smooth, point) -> int:
    """Replications per block at a point: as many as keep their arrays within
    BLOCK_DOUBLES until their block is fitted, and at least one.  That is a
    replication's rows of both stacks, plus on the Bartlett route E1 (d x k)
    and the d (d - 1) / 2 normals and d chi-squares of Lb, and on the sample
    route its d x T noise sample."""
    basis, route, _ = point
    if route == "bartlett":
        doubles = d * (k + d) + 2 * d * k + d * (d - 1) // 2 + d
    else:
        truth_width = basis.tau if smooth is None else 2 * smooth.n_terms + 1
        sample = basis.horizon if route == "sample" else 0
        doubles = d * (max(basis.tau, 2) + truth_width + sample)
    return max(1, BLOCK_DOUBLES // doubles)


def block_risks(d, k, spec, seed, smooth, point, indices) -> np.ndarray:
    """simulate -> fit -> normalized risk of each replication in `indices` at
    one point (basis, route, R), all in the coefficient space of its basis, with one
    estimator.fit of the block's observations (module docstring)."""
    basis, route, _ = point
    # A pool thread starts from numpy's default error state, not main's.
    with np.errstate(**FP_ERRORS):
        draw = _bartlett_block if route == "bartlett" else _projected_block
        x, truths = draw(d, k, spec, seed, smooth, point, indices)
        width = x.shape[2]
        estimate = estimator.fit(x, structure.build_identity(width), k).m_tilde_hat
        # The narrower stack comes off the wider one: the padded estimate less
        # the truth, or where the truth is wider its negation, same squares.
        diff, less = ((estimate, truths) if width >= truths.shape[2]
                      else (truths, estimate))
        diff[:, :, :less.shape[2]] -= less
        # The sum over a C-contiguous (n, d, w) stack adds each matrix in the
        # order of its sum alone.
        return (basis.gram_constant * np.sum(np.square(diff, out=diff), axis=(1, 2))
                / (d * basis.horizon))


def _projected_block(d, k, spec, seed, smooth, point, indices):
    """The observations and truths of a block on the factor and sample routes.
    Each replication draws its truth U V and its projected noise E L^T / c
    (z @ R on the factor route; a sample, projected for a periodic basis, on
    the sample route), and observes the noise plus the truth's first tau
    coefficients."""
    basis, route, noise_factor = point
    tau = basis.tau
    for i, idx in enumerate(indices):
        u, v = truth(d, k, noise.replication_seed(seed, 2 * idx), tau, smooth)
        b = u @ v
        eps_seed = noise.replication_seed(seed, 2 * idx + 1)
        if route == "factor":
            e = np.random.default_rng(eps_seed).standard_normal((d, tau)) @ noise_factor
        else:
            e = noise.sample_noise(spec, d, basis.horizon, eps_seed)
            if basis.kind == "periodic":
                e = structure.project(e, basis)
        e[:, :b.shape[1]] += b[:, :tau]
        if i == 0:
            # After the first draw, so that a block of one never holds a d x T
            # sample beside its stacks, and a d beyond any address space fails
            # in U's draw, as a MemoryError.  tau = 1 gets a zero column.
            x = np.zeros((len(indices), d, max(tau, 2)))
            truths = np.empty((len(indices), d, b.shape[1]))
        x[i, :, :tau], truths[i] = e, b
    return x, truths


def _bartlett_block(d, k, spec, seed, smooth, point, indices):
    """The observations Z and truths A of a block on the Bartlett route.  Each
    replication draws, from its own seeds, A = U R^T, then E1, the strict
    lower triangle of Lb in np.tril_indices order and the chi^2_{T-k-i} of
    its diagonal, i = 0..d-1.  Z = [A + sigma E1 | sigma Lb] is then
    assembled for the whole block."""
    n, lower, sigma = len(indices), np.tril_indices(d, -1), spec.sigma
    a, e1 = np.empty((n, d, k)), np.empty((n, d, k))
    below, chi2 = np.empty((n, lower[0].size)), np.empty((n, d))
    rows, horizon = np.arange(d), point[0].horizon
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
    return z, a


def loglog_slope(rates, means):
    """OLS slope of log(mean risk) on log(rate), with slope standard error
    (np.polyfit scales the covariance by residual / (n - 2))."""
    (slope, intercept), cov = np.polyfit(np.log(rates), np.log(means), 1, cov=True)
    return float(slope), float(intercept), float(np.sqrt(cov[0, 0]))
