import dataclasses

import numpy as np
import pytest

from strucfact import (NoiseSpec, build_identity, build_periodic, build_trig,
                       empirical_risk, expand, fit, predict, project, risk,
                       sample_noise, svd)


def structured_instance(basis, d, k, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((d, k))
    v = rng.standard_normal((k, basis.tau))
    return expand(u @ v, basis)


class TestFit:
    @pytest.mark.parametrize("basis,k", [
        (build_identity(12), 1),
        (build_identity(12), 3),
        (build_periodic(4, 12), 2),
        (build_periodic(6, 24), 4),
        (build_trig(3, 20), 2),
        (build_trig(5, 32), 3),
    ])
    def test_noiseless_exact_recovery(self, basis, k):
        x = structured_instance(basis, 8, k, seed=k)
        model = fit(x, basis, k)
        err = np.linalg.norm(predict(model) - x, "fro")
        assert err <= 1e-9 * np.linalg.norm(x, "fro")

    @pytest.mark.parametrize("d,basis", [(6, build_periodic(12, 24)),
                                         (20, build_periodic(6, 24))])
    def test_rank_deficient_fit_reports_true_rank(self, d, basis):
        # d < tau and d > tau: the Gram matrix is taken on either side.
        x = structured_instance(basis, d, 2, seed=9)
        model = fit(x, basis, 5)
        assert model.rank == 2
        err = np.linalg.norm(predict(model) - x, "fro")
        assert err <= 1e-9 * np.linalg.norm(x, "fro")

    def test_full_rank_fit_is_projection(self):
        rng = np.random.default_rng(2)
        basis = build_periodic(4, 12)
        x = rng.standard_normal((6, 12))
        model = fit(x, basis, min(6, basis.tau))
        np.testing.assert_allclose(model.m_tilde_hat, project(x, basis),
                                   atol=1e-10)

    def test_rank_constrained_beats_full_rank_under_noise(self):
        # true rank 2 signal: the k=2 fit filters more noise than k=8
        basis = build_periodic(8, 40)
        spec = NoiseSpec("iid", sigma=0.3)
        gains = []
        for seed in range(50):
            m = structured_instance(basis, 10, 2, seed=seed)
            x = m + sample_noise(spec, 10, 40, seed=1000 + seed)
            r2 = risk(predict(fit(x, basis, 2)), m)
            r8 = risk(predict(fit(x, basis, 8)), m)
            gains.append(r8 - r2)
        assert np.mean(gains) > 0

    def test_balanced_factors(self):
        rng = np.random.default_rng(5)
        basis = build_periodic(5, 15)
        model = fit(rng.standard_normal((7, 15)), basis, 3)
        np.testing.assert_allclose(model.u @ model.v, model.m_tilde_hat,
                                   rtol=1e-10, atol=1e-12)
        assert np.linalg.norm(model.u, "fro") == pytest.approx(
            np.linalg.norm(model.v, "fro"), rel=1e-10)

    def test_k_out_of_range(self):
        basis = build_periodic(4, 8)
        x = np.zeros((3, 8))
        with pytest.raises(ValueError):
            fit(x, basis, 0)
        with pytest.raises(ValueError):
            fit(x, basis, 4)  # min(d=3, tau=4) = 3

    def test_erm_beats_random_rank_k_candidates(self):
        rng = np.random.default_rng(31)
        basis = build_identity(8)
        for _ in range(10):
            x = rng.standard_normal((6, 8))
            k = int(rng.integers(1, 5))
            model = fit(x, basis, k)
            best = empirical_risk(model.m_tilde_hat, project(x, basis))
            x_tilde = project(x, basis)
            for _ in range(200):
                cand = rng.standard_normal((6, k)) @ rng.standard_normal((k, 8))
                alpha = np.sum(x_tilde * cand) / max(np.sum(cand * cand), 1e-300)
                assert best <= empirical_risk(alpha * cand, x_tilde) + 1e-12

    def test_empirical_risk_nonincreasing_in_k(self):
        rng = np.random.default_rng(17)
        basis = build_periodic(6, 18)
        x = rng.standard_normal((8, 18))
        risks = [empirical_risk(predict(fit(x, basis, k)), x)
                 for k in range(1, 7)]
        assert np.all(np.diff(risks) <= 1e-10)


class TestFactorModel:
    BASES = [build_identity(10), build_periodic(5, 15), build_trig(3, 16)]

    def test_fields_are_the_factors(self):
        model = fit(np.eye(4, 10), build_identity(10), 2)
        assert [f.name for f in dataclasses.fields(model)] == [
            "u", "v", "basis", "rank"]

    @pytest.mark.parametrize("basis", BASES)
    def test_m_tilde_hat_is_the_factor_product(self, basis):
        x = np.random.default_rng(6).standard_normal((7, basis.horizon))
        model = fit(x, basis, 3)
        np.testing.assert_array_equal(model.m_tilde_hat, model.u @ model.v)
        with pytest.raises(AttributeError):
            model.m_tilde_hat = np.zeros((7, basis.tau))

    @pytest.mark.parametrize("basis", BASES)
    def test_predict_expands_the_factor_product(self, basis):
        x = np.random.default_rng(7).standard_normal((7, basis.horizon))
        model = fit(x, basis, 3)
        np.testing.assert_array_equal(predict(model),
                                      expand(model.u @ model.v, basis))


class TestPredict:
    def test_identity_basis(self):
        rng = np.random.default_rng(9)
        basis = build_identity(6)
        model = fit(rng.standard_normal((4, 6)), basis, 2)
        np.testing.assert_allclose(predict(model), model.m_tilde_hat)

    def test_zero_signal(self):
        basis = build_periodic(2, 6)
        model = fit(np.zeros((3, 6)), basis, 1)
        np.testing.assert_allclose(predict(model), 0.0, atol=1e-12)

    def test_periodic_prediction_is_periodic(self):
        rng = np.random.default_rng(12)
        basis = build_periodic(4, 16)
        pred = predict(fit(rng.standard_normal((5, 16)), basis, 2))
        np.testing.assert_allclose(pred[:, :12], pred[:, 4:], atol=1e-12)

    def test_rank_bound(self):
        rng = np.random.default_rng(21)
        basis = build_trig(4, 24)
        pred = predict(fit(rng.standard_normal((7, 24)), basis, 3))
        assert svd(pred).rank <= 3


class TestRisks:
    def test_risk_identical(self):
        a = np.ones((3, 4))
        assert risk(a, a) == 0.0

    def test_risk_all_ones_difference(self):
        assert risk(np.ones((3, 4)), np.zeros((3, 4))) == pytest.approx(1.0)

    def test_risk_single_entry(self):
        est = np.zeros((2, 2))
        truth = np.zeros((2, 2))
        est[0, 0] = 2.0
        assert risk(est, truth) == pytest.approx(1.0)

    def test_risk_shape_mismatch(self):
        with pytest.raises(ValueError):
            risk(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empirical_risk_zero_and_unit(self):
        x = np.arange(6.0).reshape(2, 3)
        assert empirical_risk(x, x) == 0.0
        bumped = x.copy()
        bumped[0, 0] += 1.0
        assert empirical_risk(bumped, x) == pytest.approx(1.0)

    def test_risk_decomposition_identity(self):
        # ||A - M||^2 - ||A - X||^2 + ||eps||^2 = 2 <eps, A - M>, X = M + eps
        rng = np.random.default_rng(77)
        for _ in range(20):
            a = rng.standard_normal((5, 7))
            m = rng.standard_normal((5, 7))
            eps = rng.standard_normal((5, 7))
            x = m + eps
            big_r = np.sum((a - m) ** 2)
            small_r = empirical_risk(a, x)
            inner = np.sum(eps * (a - m))
            scale = (np.linalg.norm(a, "fro") + np.linalg.norm(m, "fro")
                     + np.linalg.norm(eps, "fro")) ** 2
            assert abs(big_r - small_r + np.sum(eps ** 2) - 2 * inner) \
                <= 1e-8 * scale


class TestFitDelegatesItsChecks:
    def test_rank_error_is_top_ks(self):
        with pytest.raises(ValueError, match=r"rank k=4 out of range \[1, 3\]"):
            fit(np.zeros((3, 8)), build_periodic(4, 8), 4)

    def test_non_finite_input_is_rejected_by_project(self):
        x = np.zeros((3, 8))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit(x, build_periodic(4, 8), 1)


class TestFitStack:
    def test_each_matrix_gives_its_own_fit(self):
        # Beside Gaussian ones: a zero matrix, one scaled by 1e-3 and one of
        # rank 1 < k.
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((5, 8, 30))
        stack[1] = 0.0
        stack[2] *= 1e-3
        stack[3] = rng.standard_normal((8, 1)) @ rng.standard_normal((1, 30))
        basis = build_identity(30)
        model = fit(stack, basis, 2)
        for i, x in enumerate(stack):
            alone = fit(x, basis, 2)
            assert np.array_equal(model.u[i], alone.u)
            assert np.array_equal(model.v[i], alone.v)
            assert np.array_equal(model.m_tilde_hat[i], alone.m_tilde_hat)
            assert model.rank[i] == alone.rank
        assert model.rank.tolist() == [2, 0, 2, 1, 2]

    @pytest.mark.parametrize("basis", [build_periodic(4, 12), build_trig(2, 12)])
    def test_only_an_identity_basis_fits_a_stack(self, basis):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=3"):
            fit(np.ones((2, 3, 12)), basis, 1)
