import numpy as np
import pytest

from strucfact import svd, truncate_rank
from strucfact.linalg import operator_norm_safe


def char_poly_eigs_3x3(a):
    """Eigenvalues of a 3x3 matrix from its characteristic polynomial.

    Independent oracle: coefficients from trace, principal 2x2 minors and
    determinant, roots via numpy's companion-matrix solver.
    """
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
           - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
           + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)


def frobenius_from_svd(a):
    """Frobenius norm as the l2 norm of the singular values."""
    return float(np.sqrt(np.sum(svd(a).singular_values ** 2)))


class TestFrobeniusNorm:
    def test_identity_2x2(self):
        assert frobenius_from_svd(np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_zero_matrix(self):
        assert frobenius_from_svd(np.zeros((3, 4))) == 0.0

    def test_pythagorean_row(self):
        assert frobenius_from_svd(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0]]))


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm_safe(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_nilpotent_shift(self):
        assert operator_norm_safe(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_ar1_3x3_vs_char_poly_oracle(self):
        rho = 0.5
        a = rho ** np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        expected = char_poly_eigs_3x3(a)[-1]  # PSD: top eig = op norm
        assert operator_norm_safe(a) == pytest.approx(expected, rel=1e-10)

    def test_all_ones_in_null_space(self):
        # The all-ones vector lies in the null space of the Gram matrix.
        a = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert operator_norm_safe(a) == pytest.approx(2.0)

    def test_bounded_by_frobenius(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = rng.integers(2, 9, size=2)
            a = rng.standard_normal((m, n))
            op = operator_norm_safe(a)
            fro = np.linalg.norm(a, "fro")
            assert op <= fro * (1 + 1e-10)
            assert fro <= np.sqrt(min(m, n)) * op * (1 + 1e-10)

    def test_psd_matches_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 8)
            b = rng.standard_normal((n, n))
            a = b @ b.T
            assert operator_norm_safe(a) == pytest.approx(
                np.linalg.eigvalsh(a)[-1], rel=1e-8)


class TestSvd:
    def test_identity(self):
        s = svd(np.eye(3))
        np.testing.assert_allclose(s.singular_values, [1.0, 1.0, 1.0])

    def test_rank_one_outer_product(self):
        u = np.array([2.0, 0.0, 0.0])
        v = np.array([0.0, 3.0, 0.0, 0.0])
        s = svd(np.outer(u, v))
        assert s.singular_values[0] == pytest.approx(6.0)
        np.testing.assert_allclose(s.singular_values[1:], 0.0, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 4))
        s = svd(a)
        recon = (s.left * s.singular_values) @ s.right.T
        assert np.linalg.norm(recon - a, "fro") < 1e-9 * np.linalg.norm(a, "fro")
        r = len(s.singular_values)
        assert np.linalg.norm(s.left.T @ s.left - np.eye(r), "fro") <= 1e-9 * r
        assert np.linalg.norm(s.right.T @ s.right - np.eye(r), "fro") <= 1e-9 * r

    def test_singular_values_nonincreasing(self):
        rng = np.random.default_rng(3)
        s = svd(rng.standard_normal((6, 7)))
        assert np.all(np.diff(s.singular_values) <= 0)
        assert np.all(s.singular_values >= 0)


class TestTruncateRank:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 6))
        s = svd(a)
        recon = truncate_rank(s, len(s.singular_values))
        assert np.linalg.norm(recon - a, "fro") < 1e-9 * np.linalg.norm(a, "fro")

    def test_rank_one_input_exact(self):
        a = np.outer([1.0, 2.0], [3.0, -1.0, 0.5])
        recon = truncate_rank(svd(a), 1)
        np.testing.assert_allclose(recon, a, atol=1e-12)

    def test_k_out_of_range(self):
        s = svd(np.eye(3))
        with pytest.raises(ValueError):
            truncate_rank(s, 0)
        with pytest.raises(ValueError):
            truncate_rank(s, 4)

    def test_rank_bound(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        assert svd(truncate_rank(svd(a), 2)).rank <= 2

    def test_dominates_random_rank_2_candidates(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((6, 6))
        best = truncate_rank(svd(a), 2)
        err = np.linalg.norm(a - best, "fro")
        for _ in range(1000):
            cand = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
            # optimal scalar rescale keeps the candidate rank-2 but fairer
            alpha = np.sum(a * cand) / max(np.sum(cand * cand), 1e-300)
            assert err <= np.linalg.norm(a - alpha * cand, "fro") + 1e-12
