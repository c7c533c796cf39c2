import dataclasses
import tracemalloc

import numpy as np
import pytest

from strucfact import (StructureBasis, build_identity, build_periodic,
                       build_trig, expand, project)
from strucfact import structure

ALL_BASES = [
    build_identity(4),
    build_identity(12),
    build_periodic(1, 5),
    build_periodic(2, 6),
    build_periodic(3, 12),
    build_periodic(5, 5),
    build_trig(0, 5),
    build_trig(1, 8),
    build_trig(2, 8),
    build_trig(3, 16),
]


class TestBuilders:
    def test_identity(self):
        b = build_identity(4)
        assert b.tau == 4 and b.gram_constant == 1.0
        np.testing.assert_array_equal(b.rows, np.eye(4))

    def test_identity_minimal(self):
        np.testing.assert_array_equal(build_identity(2).rows, np.eye(2))

    def test_identity_rejects_horizon_1(self):
        with pytest.raises(ValueError):
            build_identity(1)

    def test_periodic_blocks(self):
        b = build_periodic(2, 6)
        assert b.gram_constant == 3.0
        np.testing.assert_array_equal(b.rows, np.hstack([np.eye(2)] * 3))

    def test_periodic_tau_equals_horizon_matches_identity(self):
        np.testing.assert_array_equal(build_periodic(5, 5).rows,
                                      build_identity(5).rows)

    def test_periodic_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            build_periodic(3, 7)

    def test_trig_constant_row(self):
        b = build_trig(0, 5)
        assert b.tau == 1 and b.gram_constant == 5.0
        np.testing.assert_allclose(b.rows, np.ones((1, 5)))

    def test_trig_orthogonality_by_direct_summation(self):
        # oracle: sum the pairwise row products explicitly over t = 1..T
        b = build_trig(2, 8)
        assert b.rows.shape == (5, 8)
        for i in range(5):
            for j in range(5):
                total = sum(b.rows[i, t] * b.rows[j, t] for t in range(8))
                expected = 8.0 if i == j else 0.0
                assert total == pytest.approx(expected, abs=1e-9)

    def test_trig_rejects_too_many_frequencies(self):
        with pytest.raises(ValueError):
            build_trig(3, 6)

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_gram_identity(self, basis):
        resid = np.linalg.norm(
            basis.rows @ basis.rows.T - basis.gram_constant * np.eye(basis.tau),
            "fro")
        assert resid <= 1e-9 * basis.gram_constant * basis.tau

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_full_row_rank(self, basis):
        assert np.linalg.matrix_rank(basis.rows) == basis.tau


class TestProjectExpand:
    def test_project_averages_identical_periods(self):
        b = build_periodic(2, 4)
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.hstack([block, block])
        np.testing.assert_allclose(project(x, b), block)

    def test_identity_projection_is_noop(self):
        b = build_identity(4)
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(project(x, b), x)

    def test_identity_projection_is_a_bitwise_copy(self):
        x = np.random.default_rng(3).standard_normal((5, 40))
        x[0, :3] = [-0.0, 5e-324, 1e308]
        got = project(x, build_identity(40))
        assert got.tobytes() == x.tobytes()
        assert not np.shares_memory(got, x)

    def test_project_averages_distinct_periods(self):
        b = build_periodic(2, 4)
        b1 = np.array([[1.0, 2.0]])
        b2 = np.array([[5.0, 10.0]])
        np.testing.assert_allclose(project(np.hstack([b1, b2]), b), (b1 + b2) / 2)

    def test_expand_periodic_tiles(self):
        b = build_periodic(2, 6)
        block = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(expand(block, b), np.hstack([block] * 3))

    def test_expand_identity_noop(self):
        b = build_identity(3)
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(expand(a, b), a)

    def test_expand_trig_constant_coefficient(self):
        b = build_trig(1, 4)
        coeff = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(expand(coeff, b), np.ones((1, 4)), atol=1e-12)

    def test_dimension_mismatch_errors(self):
        b = build_periodic(2, 6)
        with pytest.raises(ValueError):
            project(np.zeros((2, 5)), b)
        with pytest.raises(ValueError):
            expand(np.zeros((2, 3)), b)

    def test_identity_projects_a_stack_as_each_matrix(self):
        stack = np.random.default_rng(4).standard_normal((3, 5, 12))
        got = project(stack, build_identity(12))
        assert got.tobytes() == stack.tobytes()
        assert not np.shares_memory(got, stack)

    @pytest.mark.parametrize("basis", [build_periodic(4, 12), build_trig(2, 12)])
    def test_periodic_and_trig_project_reject_a_stack(self, basis):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=3"):
            project(np.ones((2, 3, 12)), basis)

    @pytest.mark.parametrize("basis", [build_identity(12), build_periodic(4, 12),
                                       build_trig(2, 12)])
    def test_expand_rejects_a_stack(self, basis):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=3"):
            expand(np.ones((2, 3, basis.tau)), basis)

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_project_after_expand_is_identity(self, basis):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, basis.tau))
        back = project(expand(a, basis), basis)
        assert np.linalg.norm(back - a, "fro") <= 1e-9 * np.linalg.norm(a, "fro")

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_pseudo_inverse_projector(self, basis):
        t = basis.horizon
        p = basis.rows.T @ basis.rows / basis.gram_constant
        assert np.linalg.norm(p @ p - p, "fro") <= 1e-9 * t
        assert np.linalg.norm(p - p.T, "fro") <= 1e-12 * t

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_expansion_energy(self, basis):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, basis.tau))
        lhs = np.linalg.norm(expand(a, basis), "fro") ** 2
        rhs = basis.gram_constant * np.linalg.norm(a, "fro") ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9)


def dense_reference(basis):
    """L written out from its definition, independently of structure.py."""
    tau, horizon = basis.tau, basis.horizon
    if basis.kind != "trig":
        return np.hstack([np.eye(tau)] * (horizon // tau))
    t = np.arange(1, horizon + 1)
    rows = [np.ones(horizon)]
    for n in range(1, tau // 2 + 1):
        rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * n * t / horizon))
        rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * n * t / horizon))
    return np.array(rows)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))


class TestOperatorsMatchDense:
    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_project(self, basis):
        x = np.random.default_rng(21).standard_normal((3, basis.horizon))
        assert_close(project(x, basis),
                     x @ dense_reference(basis).T / basis.gram_constant)

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_expand(self, basis):
        a = np.random.default_rng(22).standard_normal((3, basis.tau))
        assert_close(expand(a, basis), a @ dense_reference(basis))

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_rows(self, basis):
        rows = basis.rows
        assert_close(rows, dense_reference(basis))
        # The same bytes as expanding the identity, in a new writable array:
        # a trig basis copies its cached read-only table.
        np.testing.assert_array_equal(rows, expand(np.eye(basis.tau), basis))
        assert rows.flags.writeable
        assert not np.shares_memory(rows, basis.rows)
        if basis.kind == "trig":
            assert not np.shares_memory(
                rows, structure._trig_rows(basis.tau // 2, basis.horizon))

    def test_identity_and_periodic_allocate_no_dense_matrix(self):
        # A dense eye(4096) alone would take 134 MB.
        x = np.random.default_rng(23).standard_normal((2, 4096))
        tracemalloc.start()
        try:
            for basis in (build_identity(4096), build_periodic(4096, 4096)):
                expand(project(x, basis), basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBasisIsItsThreeFields:
    def test_fields_and_derived_gram_constant(self):
        b = StructureBasis("periodic", 4, 12)
        assert [f.name for f in dataclasses.fields(b)] == ["kind", "tau", "horizon"]
        assert b.gram_constant == 3.0
        assert b.descriptor() == {"kind": "periodic", "tau": 4, "horizon": 12}
        assert StructureBasis("identity", 7, 7).gram_constant == 1.0
        assert StructureBasis("trig", 5, 12).gram_constant == 12.0

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_direct_construction_equals_the_builder(self, basis):
        direct = StructureBasis(basis.kind, basis.tau, basis.horizon)
        assert direct == basis
        a = np.random.default_rng(0).standard_normal((3, basis.tau))
        np.testing.assert_allclose(project(expand(a, direct), direct), a,
                                   atol=1e-12)

    @pytest.mark.parametrize("args, match", [
        (("fourier", 5, 10), "unknown basis kind 'fourier'"),
        (("trig", 4, 12), "must be odd"),
        (("identity", 4, 12), "tau = horizon"),
    ])
    def test_rejects_an_inconsistent_basis(self, args, match):
        with pytest.raises(ValueError, match=match):
            StructureBasis(*args)

    @pytest.mark.parametrize("build, args, match", [
        (build_identity, (1,), "horizon must be at least 2"),
        (build_periodic, (0, 6), "tau must be positive"),
        (build_periodic, (3, 7), "divisible by tau 3"),
        (build_trig, (-1, 8), "n_freq must be nonnegative"),
        (build_trig, (4, 8), "2 \\* n_freq = 8 must be < horizon = 8"),
    ])
    def test_builders_keep_their_messages(self, build, args, match):
        with pytest.raises(ValueError, match=match):
            build(*args)
