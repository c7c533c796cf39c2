import math
import time
import tracemalloc

import numpy as np
import pytest

from strucfact import (NoiseSpec, build_identity, build_periodic, build_trig,
                       covariance_matrix, replication_seed, sample_noise,
                       sigma_op_norm)
from strucfact.noise import KINDS, projected_noise_factor

SPECS = [
    NoiseSpec("iid", sigma=1.0),
    NoiseSpec("iid", sigma=0.3),
    NoiseSpec("ma1", sigma=1.0, theta=0.7),
    NoiseSpec("ma1", sigma=0.5, theta=-1.3),
    NoiseSpec("ar1", sigma=1.0, rho=0.6),
    NoiseSpec("ar1", sigma=2.0, rho=-0.8),
]


def ar1_bound(sigma, rho):
    """sigma^2 (1 + |rho|) / (1 - |rho|), the spectral density's maximum,
    which bounds every AR(1) covariance norm."""
    return sigma ** 2 * (1.0 + abs(rho)) / (1.0 - abs(rho))


class TestNoiseSpec:
    def test_rejects_nonstationary_ar1(self):
        with pytest.raises(ValueError):
            NoiseSpec("ar1", sigma=1.0, rho=1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec("iid", sigma=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("arma", sigma=1.0)

    @pytest.mark.parametrize("kind, field, value, error, message", [
        *[pytest.param(kind, "sigma", 1e200, OverflowError,
                       "noise sigma = 1e+200: sigma^2 overflows",
                       id=f"{kind}-sigma-overflow") for kind in KINDS],
        *[pytest.param(kind, "sigma", 1e-300, FloatingPointError,
                       "noise sigma = 1e-300: sigma^2 underflows to 0",
                       id=f"{kind}-sigma-underflow") for kind in KINDS],
        pytest.param("ma1", "theta", 1e200, OverflowError,
                     "noise theta = 1e+200: theta^2 overflows",
                     id="ma1-theta-overflow"),
    ])
    def test_rejects_a_square_out_of_range(self, kind, field, value, error,
                                           message):
        with pytest.raises(error) as info:
            NoiseSpec(kind, **{"sigma": 1.0, field: value})
        assert isinstance(info.value, ArithmeticError)
        assert str(info.value) == message


class TestSampleNoise:
    @pytest.mark.parametrize("spec", SPECS)
    def test_linear_in_sigma(self, spec):
        base = NoiseSpec(spec.kind, sigma=1.0, theta=spec.theta, rho=spec.rho)
        a = sample_noise(spec, 4, 10, seed=3)
        b = sample_noise(base, 4, 10, seed=3)
        np.testing.assert_allclose(a, spec.sigma * b, rtol=1e-12)

    def test_ma1_theta_zero_is_iid(self):
        ma = sample_noise(NoiseSpec("ma1", 1.0, theta=0.0), 3, 8, seed=5)
        iid = sample_noise(NoiseSpec("iid", 1.0), 3, 8, seed=5)
        np.testing.assert_array_equal(ma, iid)

    def test_deterministic_given_seed(self):
        spec = NoiseSpec("ar1", 1.0, rho=0.4)
        np.testing.assert_array_equal(sample_noise(spec, 5, 12, seed=9),
                                      sample_noise(spec, 5, 12, seed=9))
        assert not np.array_equal(sample_noise(spec, 5, 12, seed=9),
                                  sample_noise(spec, 5, 12, seed=10))

    def test_ar1_lag_one_autocovariance(self):
        spec = NoiseSpec("ar1", 1.0, rho=0.8)
        eps = sample_noise(spec, 200, 400, seed=123)
        lag0 = np.mean(eps * eps)
        lag1 = np.mean(eps[:, 1:] * eps[:, :-1])
        assert lag1 / lag0 == pytest.approx(0.8, rel=0.1)

    def test_ar1_stationary_variance(self):
        rho, sigma = 0.6, 2.0
        spec = NoiseSpec("ar1", sigma, rho=rho)
        eps = sample_noise(spec, 4000, 10, seed=77)
        # variance must be flat at sigma^2 over time (stationary start)
        np.testing.assert_allclose(np.mean(eps ** 2, axis=0), sigma ** 2,
                                   rtol=0.15)

    def test_replication_seeds_distinct(self):
        seeds = {replication_seed(42, r) for r in range(100)}
        assert len(seeds) == 100


class TestCovarianceMatrix:
    def test_iid(self):
        np.testing.assert_allclose(
            covariance_matrix(NoiseSpec("iid", 0.5), 4), 0.25 * np.eye(4))

    def test_ma1_theta_one(self):
        cov = covariance_matrix(NoiseSpec("ma1", 1.0, theta=1.0), 2)
        np.testing.assert_allclose(cov, [[2.0, -1.0], [-1.0, 2.0]])

    def test_ar1_half(self):
        cov = covariance_matrix(NoiseSpec("ar1", 1.0, rho=0.5), 3)
        np.testing.assert_allclose(
            cov, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("horizon", [3, 10, 50])
    def test_symmetric_psd(self, spec, horizon):
        cov = covariance_matrix(spec, horizon)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10

    def test_matches_empirical_covariance(self):
        for spec in (NoiseSpec("iid", 1.0),
                     NoiseSpec("ma1", 1.0, theta=0.5),
                     NoiseSpec("ar1", 1.0, rho=0.6)):
            eps = sample_noise(spec, 5000, 20, seed=2024)
            emp = eps.T @ eps / 5000
            cov = covariance_matrix(spec, 20)
            rel = (np.linalg.norm(emp - cov, 2) / np.linalg.norm(cov, 2))
            assert rel < 0.2


class TestSigmaOpNorm:
    def test_iid(self):
        assert sigma_op_norm(NoiseSpec("iid", 2.0), 10) == 4.0

    def test_ma1_theta_one_t3(self):
        # tridiag(-1, 2, -1) eigenvalues are 2 - sqrt(2), 2, 2 + sqrt(2)
        op_norm = sigma_op_norm(NoiseSpec("ma1", 1.0, theta=1.0), 3)
        assert op_norm == pytest.approx(2.0 + np.sqrt(2.0))
        oracle = np.linalg.eigvalsh(
            covariance_matrix(NoiseSpec("ma1", 1.0, theta=1.0), 3))[-1]
        assert op_norm == pytest.approx(oracle, rel=1e-12)

    def test_ar1_bound(self):
        op_norm = sigma_op_norm(NoiseSpec("ar1", 1.0, rho=0.5), 50)
        assert op_norm <= ar1_bound(1.0, 0.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("horizon", [3, 10, 50])
    def test_matches_dense_eigensolver(self, spec, horizon):
        oracle = np.linalg.eigvalsh(covariance_matrix(spec, horizon))[-1]
        assert sigma_op_norm(spec, horizon) == pytest.approx(oracle, rel=1e-8)

    def test_op_norm_below_bound_on_grid(self):
        for theta in np.linspace(-2.0, 2.0, 17):
            s = sigma_op_norm(NoiseSpec("ma1", 1.0, theta=float(theta)), 25)
            assert s <= (1.0 + abs(theta)) ** 2 * (1 + 1e-9)
        for rho in np.linspace(-0.94, 0.94, 17):
            s = sigma_op_norm(NoiseSpec("ar1", 1.0, rho=float(rho)), 25)
            assert s <= ar1_bound(1.0, rho) * (1 + 1e-9)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda spec: sample_noise(spec, 0, 5, 0),
                 "d and horizon must be positive", id="sample_noise-d-0"),
    pytest.param(lambda spec: sample_noise(spec, 3, 0, 0),
                 "d and horizon must be positive", id="sample_noise-horizon-0"),
    pytest.param(lambda spec: covariance_matrix(spec, 0),
                 "horizon must be positive", id="covariance_matrix-horizon-0"),
    pytest.param(lambda spec: sigma_op_norm(spec, 0),
                 "horizon must be positive", id="sigma_op_norm-horizon-0"),
])
def test_a_size_below_one_is_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(NoiseSpec("ar1", sigma=1.0, rho=0.5))


class TestProjectedNoiseBound:
    @pytest.mark.parametrize("basis", [
        build_identity(12), build_periodic(3, 12), build_trig(2, 12)])
    @pytest.mark.parametrize("spec", [
        NoiseSpec("iid", 1.0),
        NoiseSpec("ma1", 1.0, theta=0.6),
        NoiseSpec("ar1", 1.0, rho=0.5)])
    def test_monte_carlo_projected_covariance_below_bound(self, basis, spec):
        eps = sample_noise(spec, 20000, basis.horizon, seed=55)
        proj = eps @ basis.rows.T / basis.gram_constant
        emp_cov = proj.T @ proj / proj.shape[0]
        emp_op = np.linalg.eigvalsh(emp_cov)[-1]
        # L^T / c contracts the covariance operator norm by 1 / c.
        bound = sigma_op_norm(spec, basis.horizon) / basis.gram_constant
        assert emp_op <= bound * 1.1


class TestNoiseSpecValues:
    @pytest.mark.parametrize("field, value", [
        ("sigma", "1"), ("rho", "0.5"), ("theta", "0.1"),
        ("sigma", float("nan")), ("sigma", float("inf")),
        ("theta", float("nan")), ("rho", float("-inf")),
        ("sigma", True), ("theta", False), ("rho", None), ("sigma", [1.0]),
    ])
    def test_rejects_non_finite_or_non_real(self, field, value):
        kwargs = {"sigma": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            NoiseSpec("ar1", **kwargs)

    @pytest.mark.parametrize("sigma", [1, np.float64(0.5), np.int64(2),
                                       1e-160, 1e154])
    def test_accepts_real_numbers(self, sigma):
        assert NoiseSpec("ma1", sigma=sigma, theta=0.3).sigma == sigma


class TestAr1OpNormClosedForm:
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.9, -0.9, 0.99])
    @pytest.mark.parametrize("horizon", [2, 3, 250, 1024])
    def test_matches_dense_eigvalsh(self, rho, horizon):
        spec = NoiseSpec("ar1", sigma=1.5, rho=rho)
        oracle = np.linalg.eigvalsh(covariance_matrix(spec, horizon))[-1]
        assert sigma_op_norm(spec, horizon) == pytest.approx(oracle, rel=1e-11)

    def test_horizon_one_is_marginal_variance(self):
        assert sigma_op_norm(NoiseSpec("ar1", 2.0, rho=0.7), 1) == 4.0

    def test_long_horizon_is_fast_and_below_bound(self):
        spec = NoiseSpec("ar1", sigma=1.0, rho=0.9)
        sigma_op_norm(spec, 100)  # warm-up
        start = time.perf_counter()
        op_norm = sigma_op_norm(spec, 10 ** 5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05
        assert op_norm <= ar1_bound(1.0, 0.9)
        assert op_norm == pytest.approx(ar1_bound(1.0, 0.9), rel=1e-5)


class TestMa1OpNormClosedForm:
    @pytest.mark.parametrize("theta", [0.5, -0.5, 1.0, -1.0, 2.5, -2.5])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 250, 1024])
    def test_matches_dense_eigvalsh(self, theta, horizon):
        spec = NoiseSpec("ma1", sigma=1.5, theta=theta)
        oracle = np.linalg.eigvalsh(covariance_matrix(spec, horizon))[-1]
        assert sigma_op_norm(spec, horizon) == pytest.approx(oracle, rel=1e-12)

    def test_long_horizon_allocates_no_arrays(self):
        spec = NoiseSpec("ma1", sigma=1.0, theta=0.6)
        sigma_op_norm(spec, 100)  # warm-up
        tracemalloc.start()
        try:
            sigma_op_norm(spec, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestAr1Sampler:
    @pytest.mark.parametrize("rho", [0.5, -0.9, 0.99, 0.0])
    def test_matches_reference_recursion(self, rho):
        sigma, d, horizon, seed = 1.3, 4, 300, 21
        rng = np.random.default_rng(seed)
        eps0 = sigma * rng.standard_normal((d, 1))
        eta = sigma * np.sqrt(1.0 - rho ** 2) * rng.standard_normal((d, horizon))
        ref = np.empty((d, horizon))
        for i in range(d):
            prev = float(eps0[i, 0])
            for t in range(horizon):
                prev = float(eta[i, t]) + rho * prev
                ref[i, t] = prev
        got = sample_noise(NoiseSpec("ar1", sigma, rho=rho), d, horizon, seed)
        assert got.shape == (d, horizon)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestMa1Sampler:
    @pytest.mark.parametrize("theta", [0.5, -2.5, 0.9, 0.0])
    def test_matches_reference_recursion(self, theta):
        sigma, d, horizon, seed = 1.3, 4, 300, 21
        rng = np.random.default_rng(seed)
        # The main innovations are drawn first, the burn-in eta_0 after them.
        eta = sigma * rng.standard_normal((d, horizon))
        eta0 = sigma * rng.standard_normal((d, 1))
        ref = np.empty((d, horizon))
        for i in range(d):
            prev = float(eta0[i, 0])
            for t in range(horizon):
                ref[i, t] = float(eta[i, t]) - theta * prev
                prev = float(eta[i, t])
        got = sample_noise(NoiseSpec("ma1", sigma, theta=theta), d, horizon, seed)
        assert got.shape == (d, horizon)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_equals_the_difference_of_its_draws_bit_for_bit(self):
        """The same bits as draws[:, 1:] - theta * draws[:, :-1] over the
        scaled draws, the expression that held three arrays at once."""
        spec, d, horizon, seed = NoiseSpec("ma1", 1.3, theta=0.6), 4, 300, 21
        rng = np.random.default_rng(seed)
        draws = np.empty((d, horizon + 1))
        draws[:, 1:] = rng.standard_normal((d, horizon))
        draws[:, :1] = rng.standard_normal((d, 1))
        draws *= spec.sigma
        want = draws[:, 1:] - spec.theta * draws[:, :-1]
        assert sample_noise(spec, d, horizon, seed).tobytes() == want.tobytes()

    def test_peaks_at_twice_its_sample(self):
        """The draws and one d x T array: tracemalloc read 2.0003 times the
        sample at d = 50, T = 20000, where the difference of two scaled
        slices read 3.0003."""
        spec, d, horizon = NoiseSpec("ma1", 0.5, theta=0.6), 50, 20000
        sample_noise(spec, d, horizon, 1)
        tracemalloc.start()
        try:
            sample_noise(spec, d, horizon, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * 8 * d * horizon


class TestIidIsMa1ThetaZero:
    @pytest.mark.parametrize("horizon", [1, 2, 10, 1000])
    @pytest.mark.parametrize("sigma", [0.3, 2.0, 1e150])
    def test_iid_op_norm_equals_ma1_theta_zero_exactly(self, sigma, horizon):
        iid = sigma_op_norm(NoiseSpec("iid", sigma), horizon)
        assert iid == sigma_op_norm(NoiseSpec("ma1", sigma, theta=0.0), horizon)
        assert iid == float(sigma) ** 2

    def test_iid_ignores_a_stray_theta(self):
        assert sigma_op_norm(NoiseSpec("iid", 0.7, theta=0.9), 12) \
            == sigma_op_norm(NoiseSpec("iid", 0.7), 12)

    @pytest.mark.parametrize("kind", ["iid", "ar1"])
    def test_a_stray_theta_is_never_squared(self, kind):
        spec = NoiseSpec(kind, 0.7, theta=1e200, rho=0.5 if kind == "ar1" else 0.0)
        assert sigma_op_norm(spec, 12) == sigma_op_norm(
            NoiseSpec(kind, 0.7, rho=spec.rho), 12)
        assert type(sigma_op_norm(spec, 12)) is float


ADJOINT_SPECS = [
    NoiseSpec("iid", 0.7),
    *[NoiseSpec("ma1", 0.7, theta=th) for th in (0.5, -0.5, 2.5, -2.5)],
    *[NoiseSpec("ar1", 0.7, rho=rho) for rho in (0.0, 0.5, 0.95, -0.8)],
]


def adjoint_row_sets(horizon, n_freq):
    """Rows L at one horizon: trig rows with n_freq frequencies, and for
    n_freq = 0 also the identity and periodic rows, which do not depend on
    n_freq and so are checked once per horizon."""
    rows = {"trig": build_trig(n_freq, horizon).rows}
    if n_freq == 0:
        rows["identity"] = build_identity(horizon).rows
        rows["periodic"] = build_periodic(math.gcd(horizon, 4), horizon).rows
    return rows


def reference_draws(spec, d, horizon, seed):
    """The Gaussian draws behind sample_noise, rebuilt in its documented
    order: MA(1) draws the innovations before each row's start column, AR(1)
    the start first.  Returns the draws and their standard deviations."""
    rng = np.random.default_rng(seed)
    if spec.kind == "iid":
        return rng.standard_normal((d, horizon)) * spec.sigma, \
            np.full(horizon, spec.sigma)
    if spec.kind == "ma1":
        main = rng.standard_normal((d, horizon))
        start = rng.standard_normal((d, 1))
    else:
        start = rng.standard_normal((d, 1))
        main = rng.standard_normal((d, horizon))
    scales = np.full(horizon + 1, spec.sigma)
    if spec.kind == "ar1":
        scales[1:] *= np.sqrt(1.0 - spec.rho ** 2)
    return np.hstack([start, main]) * scales, scales


def reference_filter(spec, horizon):
    """The dense causal filter F with sample = draws @ F^T: the identity
    for iid, F[t, t + 1] = 1 and F[t, t] = -theta for MA(1), and
    F[t, j] = rho^(t + 1 - j) for j <= t + 1 for AR(1)."""
    if spec.kind == "iid":
        return np.eye(horizon)
    lag = np.arange(1, horizon + 1)[:, None] - np.arange(horizon + 1)[None, :]
    if spec.kind == "ma1":
        return (lag == 0) - spec.theta * (lag == 1)
    return np.where(lag >= 0, spec.rho ** np.maximum(lag, 0), 0.0)


class TestFilterAdjoint:
    """The filter F that sample_noise applies and whose adjoint L F
    projected_noise_factor builds: the sample is the documented draws through
    F, and F diag(s^2) F^T is the covariance that the factor is checked
    against, row set by row set, in TestProjectedNoiseFactor."""

    @pytest.mark.parametrize("horizon", [2, 3, 128, 1024])
    @pytest.mark.parametrize("spec", ADJOINT_SPECS,
                             ids=lambda s: f"{s.kind}-{s.theta}-{s.rho}")
    def test_projected_noise_matches_the_sample(self, spec, horizon):
        d, seed = 5, 17
        draws, scales = reference_draws(spec, d, horizon, seed)
        f = reference_filter(spec, horizon)
        sample = sample_noise(spec, d, horizon, seed)
        ref = draws @ f.T
        assert sample.shape == ref.shape == (d, horizon)
        assert np.max(np.abs(sample - ref)) <= 1e-12 * np.max(np.abs(ref))
        cov = covariance_matrix(spec, horizon)
        got = (f * scales) @ (f * scales).T
        assert np.max(np.abs(got - cov)) <= 1e-12 * np.max(np.abs(cov))

    @pytest.mark.parametrize("spec", [NoiseSpec("iid", 0.7),
                                      NoiseSpec("ma1", 1.0, theta=0.6),
                                      NoiseSpec("ar1", 1.0, rho=0.95)],
                             ids=["iid", "ma1", "ar1"])
    def test_trig_rows_at_long_horizon_take_o_tau_t_memory(self, spec):
        horizon = 10 ** 5
        rows = build_trig(2, horizon).rows
        projected_noise_factor(spec, rows[:, :8])  # warm-up
        tracemalloc.start()
        try:
            factor = projected_noise_factor(spec, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.shape == (5, 5)
        # The scaled adjoint and the QR's copy of it: about 2 tau (T + 1)
        # doubles.  One T x T array would be 80 GB.
        assert peak < 3 * 5 * (horizon + 1) * 8


class TestProjectedNoiseFactor:
    """R^T R of the factor is the projected covariance L Sigma L^T."""

    @pytest.mark.parametrize("horizon, n_freq", [
        (horizon, n) for horizon in (3, 128, 1024) for n in (0, 1, 6)
        if 2 * n < horizon])
    @pytest.mark.parametrize("spec", ADJOINT_SPECS,
                             ids=lambda s: f"{s.kind}-{s.theta}-{s.rho}")
    def test_matches_the_covariance_oracle(self, spec, horizon, n_freq):
        cov = covariance_matrix(spec, horizon)
        for name, rows in adjoint_row_sets(horizon, n_freq).items():
            factor = projected_noise_factor(spec, rows)
            assert factor.shape == (rows.shape[0],) * 2, name
            np.testing.assert_array_equal(factor, np.triu(factor))
            ref = rows @ cov @ rows.T
            got = factor.T @ factor
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name
