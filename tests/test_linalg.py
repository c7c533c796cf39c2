import numpy as np
import pytest

from strucfact import linalg, svd
from strucfact.linalg import operator_norm_safe, top_k

WIDE_AND_TALL = [(6, 40), (40, 6)]


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


def rank_k_product(s, k):
    """sum_{i<=k} sigma_i u_i v_i^T from an SvdResult's leading triplets."""
    return (s.left[:, :k] * s.singular_values[:k]) @ s.right[:, :k].T


def gapped(shape, seed):
    """Random singular vectors with singular values 1, 1/2, 1/4, ..."""
    rng = np.random.default_rng(seed)
    m, n = shape
    r = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return (u * 2.0 ** -np.arange(r)) @ v.T


@pytest.mark.parametrize("shape", WIDE_AND_TALL)
class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_svd_truncation_on_gapped_spectrum(self, shape, k):
        a = gapped(shape, seed=k)
        full, top = svd(a), top_k(a, k)
        np.testing.assert_allclose(top.singular_values,
                                   full.singular_values[:k], rtol=1e-13)
        np.testing.assert_allclose(rank_k_product(top, k),
                                   rank_k_product(full, k),
                                   rtol=0, atol=1e-14)
        assert top.left.shape == (shape[0], k)
        assert top.right.shape == (shape[1], k)
        np.testing.assert_allclose(top.left.T @ top.left, np.eye(k), atol=1e-14)
        np.testing.assert_allclose(top.right.T @ top.right, np.eye(k), atol=1e-14)

    def test_exact_low_rank_counts_rank(self, shape):
        # sqrt of the Gram eigenvalues would put the zero singular values
        # near 1e-8 sigma_1, above RANK_RTOL.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        top = top_k(a, 4)
        assert top.rank == 2
        assert np.all(top.singular_values[2:] < 1e-14 * top.singular_values[0])

    def test_zero_matrix(self, shape):
        top = top_k(np.zeros(shape), 2)
        assert top.rank == 0
        np.testing.assert_array_equal(top.singular_values, 0.0)
        np.testing.assert_array_equal(rank_k_product(top, 2), 0.0)

    def test_huge_entries_give_finite_factors(self, shape):
        a = 1e200 * np.random.default_rng(5).standard_normal(shape)
        top = top_k(a, 3)
        assert all(np.all(np.isfinite(f)) for f in (top.left, top.right))
        np.testing.assert_allclose(top.singular_values,
                                   1e200 * svd(a / 1e200).singular_values[:3],
                                   rtol=1e-13)

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, shape, k):
        with pytest.raises(ValueError):
            top_k(np.ones(shape), k)

    def test_one_svd_call(self, shape, monkeypatch):
        calls = []
        inner = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or inner(a))
        top_k(gapped(shape, seed=0), 3)
        assert calls == [(max(shape), 3)]


def ragged_stack(shape, n, seed):
    """n matrices of one shape: one scaled by 1e-3, then a zero one and one
    of rank 2 beside Gaussian ones, as far as n reaches."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, *shape))
    stack[0] *= 1e-3
    if n > 1:
        stack[1] = 0.0
    if n > 2:
        stack[2] = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
    return stack


class TestTopKStack:
    """A stack is each matrix alone: its own scale, rank and bits."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("shape", WIDE_AND_TALL + [(7, 7), (50, 52)])
    def test_each_matrix_gives_its_own_top_k(self, shape, n):
        stack = ragged_stack(shape, n, seed=n)
        top = top_k(stack, 3)
        for i, a in enumerate(stack):
            alone = top_k(a, 3)
            assert np.array_equal(top.left[i], alone.left)
            assert np.array_equal(top.singular_values[i], alone.singular_values)
            assert np.array_equal(top.right[i], alone.right)
            assert top.rank[i] == alone.rank
        assert top.rank.tolist() == [3, 0, 2, 3, 3, 3][:n]

    def test_a_stack_never_reaches_svd(self, monkeypatch):
        calls = []
        inner = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a.shape) or inner(a))
        top_k(ragged_stack((6, 40), 3, seed=0), 3)
        assert calls == []

    def test_svd_rejects_a_stack(self):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=3"):
            svd(np.ones((2, 3, 4)))

    @pytest.mark.parametrize("stack, match", [
        (np.ones((0, 3, 4)), "dimensions must be positive"),
        (np.ones((2, 3, 0)), "dimensions must be positive"),
        (np.full((2, 3, 4), np.nan), "finite"),
        (np.ones((1, 2, 3, 4)), "ndim=4"),
    ])
    def test_a_malformed_stack_is_rejected(self, stack, match):
        with pytest.raises(ValueError, match=match):
            top_k(stack, 1)
