import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from strucfact import (CandidateGrid, NoiseSpec, PenaltyParams,
                       SelectionResult, build_periodic, build_trig,
                       calibrate_noise_level, empirical_risk, expand, fit,
                       penalty, predict, project, risk, sample_noise, select)
from strucfact import linalg
from strucfact.noise import replication_seed

# The package re-exports the function `select` under its module's name.
select_module = importlib.import_module("strucfact.select")


def periodic_instance(d, horizon, tau, k, seed, sigma=None):
    rng = np.random.default_rng(seed)
    basis = build_periodic(tau, horizon)
    m = expand(rng.standard_normal((d, k)) @ rng.standard_normal((k, tau)), basis)
    if sigma is None:
        return m, m
    eps = sample_noise(NoiseSpec("iid", sigma), d, horizon,
                       replication_seed(seed, 1))
    return m, m + eps


class TestPenalty:
    def test_direct_arithmetic(self):
        params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=0.25, s=1.0)
        assert penalty(params, d=30, tau=12, k=2) == pytest.approx(114.0)

    def test_superlinear_in_k(self):
        params = PenaltyParams(lam=0.5, c_pen=1.0, noise_level=1.0, s=0.0)
        assert penalty(params, 10, 4, 4) > 2 * penalty(params, 10, 4, 2)

    def test_zero_constant_gives_zero(self):
        params = PenaltyParams(lam=0.5, c_pen=0.0, noise_level=1.0)
        assert penalty(params, 10, 4, 2) == 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PenaltyParams(lam=1.0, c_pen=1.0, noise_level=1.0)
        with pytest.raises(ValueError):
            PenaltyParams(lam=0.5, c_pen=1.0, noise_level=0.0)
        with pytest.raises(ValueError, match="c_pen must be nonnegative"):
            PenaltyParams(lam=0.5, c_pen=-1.0, noise_level=1.0)
        with pytest.raises(ValueError, match="s must be nonnegative"):
            PenaltyParams(lam=0.5, c_pen=1.0, noise_level=1.0, s=-1.0)


class TestGrid:
    def test_mixed_horizons_rejected(self):
        with pytest.raises(ValueError):
            CandidateGrid([build_periodic(2, 8), build_periodic(3, 12)], [1])

    def test_unsorted_ranks_rejected(self):
        with pytest.raises(ValueError):
            CandidateGrid([build_periodic(2, 8)], [2, 1])

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(ValueError, match="ranks must be positive"):
            CandidateGrid([build_periodic(2, 8)], [0])


class TestSelect:
    def grid(self, horizon, taus, ranks):
        return CandidateGrid([build_periodic(t, horizon) for t in taus],
                             list(ranks))

    def test_noiseless_recovery(self):
        m, x = periodic_instance(10, 48, tau=6, k=2, seed=4)
        grid = self.grid(48, [2, 6, 12, 48], range(1, 5))
        params = PenaltyParams(lam=0.5, c_pen=1e-6, noise_level=1.0)
        result = select(x, grid, params)
        assert (result.chosen_tau, result.chosen_k) == (6, 2)

    def test_score_table_complete_and_exact(self):
        _, x = periodic_instance(5, 24, tau=4, k=2, seed=1, sigma=0.5)
        grid = self.grid(24, [4, 8, 24], range(1, 8))
        params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=0.25)
        result = select(x, grid, params)
        seen = {(r.tau, r.k) for r in result.table}
        feasible = {(t, k) for t in (4, 8, 24) for k in range(1, 8)
                    if k <= min(5, t)}
        assert seen == feasible and len(result.table) == len(feasible)
        for row in result.table:
            assert row.score == row.empirical_risk + row.penalty
            assert row.penalty == penalty(params, 5, row.tau, row.k)

    def test_argmin_and_tie_break(self):
        _, x = periodic_instance(5, 24, tau=4, k=2, seed=2, sigma=0.3)
        grid = self.grid(24, [4, 8], [1, 2, 3])
        params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=0.09)
        result = select(x, grid, params)
        best = min(r.score for r in result.table)
        assert result.winner in result.table and result.winner.score == best
        ties = sorted((r.k, r.tau) for r in result.table if r.score == best)
        assert (result.chosen_k, result.chosen_tau) == ties[0]

    def test_infeasible_pairs_skipped(self):
        _, x = periodic_instance(3, 12, tau=2, k=1, seed=3, sigma=0.1)
        grid = self.grid(12, [2, 12], [1, 2, 3])
        result = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                               noise_level=0.01))
        assert {(r.tau, r.k) for r in result.table} == {
            (2, 1), (2, 2), (12, 1), (12, 2), (12, 3)}

    def test_empty_feasible_grid_errors(self):
        x = np.zeros((2, 12))
        grid = self.grid(12, [4], [3])
        with pytest.raises(ValueError):
            select(x, grid, PenaltyParams(lam=0.5, c_pen=1.0, noise_level=1.0))

    def test_singleton_rank_tau_choice_independent_of_s(self):
        grid = self.grid(24, [2, 4, 8, 24], [2])
        for seed in range(10):
            _, x = periodic_instance(6, 24, tau=4, k=2, seed=seed, sigma=0.4)
            taus = set()
            for s in (0.0, 1.0, 5.0, 10.0):
                params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=0.16, s=s)
                taus.add(select(x, grid, params).chosen_tau)
            assert len(taus) == 1

    def test_selected_risk_close_to_best_fixed_pair(self):
        # selected-model mean risk at most 3x the best fixed (tau, k)
        d, horizon, tau, k, sigma = 8, 48, 6, 2, 0.5
        grid = self.grid(48, [3, 6, 12, 48], [1, 2, 3, 4])
        params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=sigma ** 2)
        sel_risks = []
        fixed_risks = {(b.tau, kk): [] for b in grid.bases for kk in grid.ranks
                       if kk <= min(d, b.tau)}
        for seed in range(100):
            m, x = periodic_instance(d, horizon, tau, k, seed=seed, sigma=sigma)
            result = select(x, grid, params)
            sel_risks.append(risk(predict(result.fitted), m))
            for basis in grid.bases:
                for kk in grid.ranks:
                    if kk <= min(d, basis.tau):
                        fixed_risks[(basis.tau, kk)].append(
                            risk(predict(fit(x, basis, kk)), m))
        best_fixed = min(np.mean(v) for v in fixed_risks.values())
        assert np.mean(sel_risks) <= 3 * best_fixed


class TestCalibrateNoiseLevel:
    def test_noiseless_is_zero(self):
        m, x = periodic_instance(6, 24, tau=4, k=2, seed=9)
        grid = CandidateGrid([build_periodic(4, 24), build_periodic(24, 24)],
                             [1, 2, 3])
        level = calibrate_noise_level(x, grid)
        assert level <= 1e-12 * np.mean(m ** 2)

    def test_pure_noise_recovers_variance(self):
        sigma = 0.7
        x = sample_noise(NoiseSpec("iid", sigma), 200, 120, seed=21)
        grid = CandidateGrid([build_periodic(4, 120)], [1, 2])
        level = calibrate_noise_level(x, grid)
        assert level == pytest.approx(sigma ** 2, rel=0.3)

    def test_nonincreasing_as_largest_model_grows(self):
        _, x = periodic_instance(6, 24, tau=4, k=2, seed=10, sigma=0.5)
        levels = []
        for tau, k in ((4, 1), (8, 2), (24, 4)):
            grid = CandidateGrid([build_periodic(tau, 24)], list(range(1, k + 1)))
            levels.append(calibrate_noise_level(x, grid))
        assert np.all(np.diff(levels) <= 1e-12)


class TestResidualProfile:
    """The spectrum-based residuals equal the residuals of direct fits."""

    def instance(self):
        _, x = periodic_instance(8, 24, tau=4, k=2, seed=12, sigma=0.5)
        grid = CandidateGrid([build_periodic(4, 24), build_trig(3, 24),
                              build_periodic(24, 24)], list(range(1, 7)))
        return x, grid

    def test_table_matches_direct_fits(self):
        x, grid = self.instance()
        result = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                               noise_level=0.25))
        assert len(result.table) == 4 + 6 + 6
        for row in result.table:
            basis = grid.bases[row.basis_index]
            direct = empirical_risk(predict(fit(x, basis, row.k)), x)
            assert row.empirical_risk == pytest.approx(direct, rel=1e-12)

    def test_plug_in_matches_direct_fit(self):
        x, grid = self.instance()
        d, t = x.shape
        direct = np.sum((x - predict(fit(x, grid.bases[2], 6))) ** 2) / (d * t)
        assert calibrate_noise_level(x, grid) == pytest.approx(direct, rel=1e-12)

    def test_one_svd_per_basis_and_no_calibration_fit(self, monkeypatch):
        x, grid = self.instance()
        calls = []
        svd, values = linalg.svd, linalg.singular_values
        monkeypatch.setattr(linalg, "svd",
                            lambda a: calls.append("svd") or svd(a))
        monkeypatch.setattr(linalg, "singular_values",
                            lambda a: calls.append("values") or values(a))
        result = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                               noise_level=0.25))
        # The values alone per basis, then one full SVD for the winner's refit.
        assert calls == ["values"] * len(grid.bases) + ["svd"]
        np.testing.assert_array_equal(
            result.fitted.m_tilde_hat,
            fit(x, grid.bases[result.winner.basis_index],
                result.chosen_k).m_tilde_hat)

        def no_fit(*args):
            raise AssertionError("calibrate_noise_level must not fit")
        monkeypatch.setattr(select_module, "fit", no_fit)
        calls.clear()
        calibrate_noise_level(x, grid)
        assert calls == ["values"]

    @pytest.mark.parametrize("basis", [build_periodic(4, 24), build_trig(3, 24),
                                       build_periodic(24, 24)],
                             ids=["periodic-4", "trig-3", "periodic-T"])
    def test_profile_matches_a_full_svd_reference(self, basis):
        x, _ = self.instance()
        x_tilde = project(x, basis)
        s = np.linalg.svd(x_tilde, full_matrices=False)[1]
        reference = np.array(
            [np.sum((x - expand(x_tilde, basis)) ** 2)
             + basis.gram_constant * np.sum(s[k:] ** 2)
             for k in range(len(s) + 1)])
        np.testing.assert_allclose(select_module._residuals(x, basis),
                                   reference, rtol=1e-13)

    def test_peak_memory_holds_no_singular_vectors(self):
        # At tau = T the projection is d x T, and so are the right singular
        # vectors of a full SVD: the profile may hold the projection and one
        # d x T residual (2.0 x.nbytes here), but not the vectors as well
        # (3.0 x.nbytes with them).
        d, horizon = 40, 480
        x = np.random.default_rng(3).standard_normal((d, horizon))
        basis = build_periodic(horizon, horizon)
        select_module._residuals(x, basis)  # warm up numpy's caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            select_module._residuals(x, basis)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    def test_the_winner_is_held_once(self):
        x, grid = self.instance()
        result = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                               noise_level=None))
        assert [f.name for f in dataclasses.fields(SelectionResult)] == [
            "winner", "table", "fitted", "noise_level"]
        assert sum(r is result.winner for r in result.table) == 1
        assert (result.chosen_tau, result.chosen_k) == (result.winner.tau,
                                                        result.winner.k)
        assert result.fitted.basis is grid.bases[result.winner.basis_index]


class TestPlugInSelect:
    """noise_level=None: select reads the plug-in from its own profiles."""

    def test_equals_calibrate_then_select(self):
        x, grid = TestResidualProfile().instance()
        level = calibrate_noise_level(x, grid)
        expected = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                                 noise_level=level))
        result = select(x, grid, PenaltyParams(lam=0.5, c_pen=2.0,
                                               noise_level=None))
        assert result.noise_level == expected.noise_level == level
        assert result.table == expected.table
        assert result.winner == expected.winner
        np.testing.assert_array_equal(result.fitted.m_tilde_hat,
                                      expected.fitted.m_tilde_hat)
