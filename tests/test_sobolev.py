import numpy as np
import pytest

from strucfact import (SmoothFactorSpec, bias_of_truncation, build_periodic,
                       build_trig, gen_smooth_dictionary, optimal_cutoff)
from strucfact.sobolev import gen_smooth_coefficients


def mean_bias(beta, n_grid, seeds, k=8, n_terms=96, horizon=512, ell=1.0):
    spec = SmoothFactorSpec(k=k, beta=beta, ell=ell, n_terms=n_terms)
    biases = np.zeros(len(n_grid))
    for seed in seeds:
        w = gen_smooth_dictionary(spec, horizon, seed)
        for i, n in enumerate(n_grid):
            biases[i] += bias_of_truncation(w, build_trig(n, horizon))
    return biases / len(seeds)


class TestGeneration:
    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_coefficients_on_ellipsoid(self, beta, seed):
        spec = SmoothFactorSpec(k=4, beta=beta, ell=2.5, n_terms=32)
        coef = gen_smooth_coefficients(spec, seed)
        assert coef.shape == (4, 65)
        a, b = coef[:, 1::2], coef[:, 2::2]
        n = np.arange(1, 33)
        energy = np.sum((2 * np.pi * n) ** (2 * beta) * (a ** 2 + b ** 2), axis=1)
        assert np.all(energy <= spec.ell ** 2 * (1 + 1e-9))
        assert np.all(energy > 0)

    def test_degenerate_constant_rows(self):
        spec = SmoothFactorSpec(k=1, beta=1, ell=1.0, n_terms=0)
        w = gen_smooth_dictionary(spec, 10, seed=3)
        assert np.ptp(w) == 0.0

    def test_seeds_differ(self):
        spec = SmoothFactorSpec(k=2, beta=2, ell=1.0, n_terms=8)
        w1 = gen_smooth_dictionary(spec, 40, seed=1)
        w2 = gen_smooth_dictionary(spec, 40, seed=2)
        assert np.max(np.abs(w1 - w2)) > 0

    @pytest.mark.parametrize("field, value, message", [
        ("k", 0, "k must be positive"),
        ("beta", 0, "beta must be a positive integer"),
        ("ell", 0.0, "ell must be positive"),
        ("n_terms", -1, "n_terms must be nonnegative")])
    def test_spec_rejects_a_bad_field(self, field, value, message):
        fields = {"k": 1, "beta": 1, "ell": 1.0, "n_terms": 4, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            SmoothFactorSpec(**fields)

    def test_horizon_too_small(self):
        spec = SmoothFactorSpec(k=1, beta=1, ell=1.0, n_terms=20)
        with pytest.raises(ValueError):
            gen_smooth_dictionary(spec, 41, seed=0)

    def test_high_frequency_energy_decays(self):
        # DFT oracle: row energy above frequency n falls off with n
        spec = SmoothFactorSpec(k=6, beta=3, ell=1.0, n_terms=64)
        w = gen_smooth_dictionary(spec, 256, seed=11)
        spectrum = np.abs(np.fft.rfft(w, axis=1)) ** 2
        tail_8 = spectrum[:, 9:].sum()
        tail_2 = spectrum[:, 3:].sum()
        assert tail_8 < tail_2 * (8 / 2) ** (-2 * 3) * 10


class TestBias:
    def test_exact_representation(self):
        spec = SmoothFactorSpec(k=3, beta=2, ell=1.0, n_terms=4)
        w = gen_smooth_dictionary(spec, 64, seed=7)
        assert bias_of_truncation(w, build_trig(4, 64)) <= 1e-12
        assert bias_of_truncation(w, build_trig(6, 64)) <= 1e-12

    def test_nonincreasing_in_cutoff(self):
        spec = SmoothFactorSpec(k=3, beta=1, ell=1.0, n_terms=48)
        w = gen_smooth_dictionary(spec, 256, seed=5)
        biases = [bias_of_truncation(w, build_trig(n, 256))
                  for n in (2, 4, 8, 16, 32)]
        assert np.all(np.diff(biases) <= 1e-15)

    def test_requires_trig_basis(self):
        with pytest.raises(ValueError):
            bias_of_truncation(np.zeros((2, 12)), build_periodic(3, 12))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_decay_slope(self, beta):
        n_grid = (2, 4, 8, 16)
        biases = mean_bias(beta, n_grid, seeds=range(16))
        slope = np.polyfit(np.log(n_grid), np.log(biases), 1)[0]
        assert -2 * beta - 0.5 <= slope <= -2 * beta + 0.5


class TestOptimalCutoff:
    def test_exact_fifth_power(self):
        # d * T * C / (sigma_op * k) = 32, beta = 2 -> floor(32^(1/5)) = 2
        assert optimal_cutoff(2, 1.0, 4, 8, 1, 1.0) == 2

    def test_huge_noise_clamps_to_one(self):
        assert optimal_cutoff(2, 1.0, 4, 8, 1, 1e12) == 1

    def test_tiny_noise_clamps_to_half_horizon(self):
        # 6 * 64 / 1e-320 overflows to inf before the clamp.
        assert optimal_cutoff(2, 1.0, 6, 64, 1, 1e-320) == 31

    def test_exact_cube(self):
        # ratio 1000, beta = 1 -> floor(1000^(1/3)) = 10
        assert optimal_cutoff(1, 1.0, 10, 100, 1, 1.0) == 10

    def test_clamped_below_half_horizon(self):
        n = optimal_cutoff(1, 1e9, 100, 20, 1, 1.0)
        assert 2 * n < 20

    def test_monotonicity(self):
        base = dict(beta=2, c_beta_l=1.0, d=30, horizon=4096, k=2, sigma_op=0.5)

        def cut(**kw):
            args = {**base, **kw}
            return optimal_cutoff(args["beta"], args["c_beta_l"], args["d"],
                                  args["horizon"], args["k"], args["sigma_op"])

        assert cut(d=60) >= cut()
        assert cut(horizon=8192) >= cut()
        assert cut(c_beta_l=4.0) >= cut()
        assert cut(sigma_op=2.0) <= cut()
        assert cut(k=8) <= cut()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_cutoff(2, 0.0, 4, 8, 1, 1.0)


class TestEvaluateRows:
    """A smooth dictionary equals its trig polynomials summed term by term."""

    @pytest.mark.parametrize("n_terms, horizon", [(96, 1024), (7, 30), (0, 10)])
    def test_matches_reference_loop(self, n_terms, horizon):
        spec = SmoothFactorSpec(k=3, beta=2, ell=5.0, n_terms=n_terms)
        coef = gen_smooth_coefficients(spec, seed=4)
        x = np.arange(1, horizon + 1) / horizon
        ref = np.tile(coef[:, :1], (1, horizon))
        for n in range(1, n_terms + 1):
            phase = 2.0 * np.pi * n * x
            ref += np.sqrt(2.0) * (coef[:, 2 * n - 1][:, None] * np.cos(phase)
                                   + coef[:, 2 * n][:, None] * np.sin(phase))
        for _ in range(2):  # the second call reads the cached table
            w = gen_smooth_dictionary(spec, horizon, seed=4)
            assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert w.flags.writeable
