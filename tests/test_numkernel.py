import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from symspaces.numkernel import (
    DEFAULT_TOL,
    DomainError,
    Tolerance,
    as_matrix,
    mat_exp,
    mat_log,
    nullspace,
    numerical_rank,
    op_norm,
)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_eps == 1e-10
        assert DEFAULT_TOL.rel_eps == 1e-9

    @pytest.mark.parametrize("bad", [(-1e-10, 1e-9), (1e-10, 0.0), (0.0, 1e-9)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerance(*bad)

    @pytest.mark.parametrize("bad", [(np.inf, 1e-9), (1e-10, np.inf), (np.nan, 1e-9), (1e-10, np.nan)])
    def test_rejects_non_finite(self, bad):
        # an infinite tolerance would pass every check
        with pytest.raises(ValueError, match="finite"):
            Tolerance(*bad)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal_scalar_oracle(self):
        # exp acts entrywise on the diagonal
        got = mat_exp(np.diag([1.0, 2.0]))
        want = np.diag([math.exp(1.0), math.exp(2.0)])
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_rotation_closed_form(self):
        t = math.pi / 2
        got = mat_exp(np.array([[0.0, t], [-t, 0.0]]))
        assert np.allclose(got, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)

    def test_rotation_generic_angle(self):
        t = 0.731
        got = mat_exp(np.array([[0.0, t], [-t, 0.0]]))
        want = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        assert np.allclose(got, want, atol=1e-14)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6))
    def test_matches_scipy_on_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
        got = mat_exp(a)
        want = scipy.linalg.expm(a)
        assert np.linalg.norm(got - want) <= 1e-11 * max(np.linalg.norm(want), 1.0)

    def test_large_norm_against_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        a *= 50.0 / np.linalg.norm(a)
        got, want = mat_exp(a), scipy.linalg.expm(a)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6))
    def test_commuting_sum_property(self, seed):
        # exp(a+b) = exp(a) exp(b) whenever ab = ba; b a polynomial in a
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3)) * 0.7
        c = rng.standard_normal(3)
        b = c[0] * np.eye(3) + c[1] * a + c[2] * a @ a
        lhs = mat_exp(a + b)
        rhs = mat_exp(a) @ mat_exp(b)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= DEFAULT_TOL.rel_eps * scale * 10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_budget_overflow(self):
        with pytest.raises(DomainError):
            mat_exp(1e20 * np.eye(2))

    def test_empty_matrix(self):
        assert mat_exp(np.zeros((0, 0))).shape == (0, 0)


class TestMatLog:
    def test_identity(self):
        assert np.allclose(mat_log(np.eye(3)), np.zeros((3, 3)), atol=1e-15)

    def test_diagonal_scalar_oracle(self):
        got = mat_log(np.diag([math.exp(0.1), math.exp(-0.2)]))
        assert np.allclose(got, np.diag([0.1, -0.2]), atol=1e-13)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip_inside_ball(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        x = rng.standard_normal((n, n))
        x *= 0.29 / max(np.linalg.norm(x), 1e-12)
        a = mat_exp(x)
        assert np.linalg.norm(mat_log(a) - x) <= 1e-11
        assert np.linalg.norm(mat_exp(mat_log(a)) - a) <= 1e-11

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = np.eye(4) + 0.4 * rng.standard_normal((4, 4)) / 4.0
        assert np.linalg.norm(mat_log(a) - scipy.linalg.logm(a)) <= 1e-11

    def test_near_domain_boundary(self):
        a = np.diag([1.95, 0.9])  # op_norm(a - I) = 0.95
        assert np.allclose(mat_log(a), np.diag([math.log(1.95), math.log(0.9)]), atol=1e-12)

    def test_rejects_outside_principal_domain(self):
        with pytest.raises(DomainError):
            mat_log(np.diag([2.5, 1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_log(np.ones((1, 2)))


class TestNullspace:
    def test_full_rank_identity(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_zero_map(self):
        # the zero map annihilates everything: kernel is all of R^3
        ns = nullspace(np.zeros((2, 3)))
        assert ns.shape == (3, 3)
        assert np.allclose(ns.T @ ns, np.eye(3), atol=1e-12)

    def test_rank_one_hand_oracle(self):
        # [[1,1],[1,1]] has eigenpairs (2, (1,1)) and (0, (1,-1))
        ns = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert ns.shape == (2, 1)
        direction = np.array([1.0, -1.0]) / math.sqrt(2)
        assert abs(abs(float(ns[:, 0] @ direction)) - 1.0) <= 1e-12

    def test_no_rows_means_full_kernel(self):
        ns = nullspace(np.zeros((0, 4)))
        assert ns.shape == (4, 4)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    def test_dimension_and_annihilation(self, seed, r):
        rng = np.random.default_rng(seed)
        n, m = 5, 4
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        ns = nullspace(a)
        assert ns.shape == (m, m - min(r, m))
        if ns.shape[1]:
            sigma_max = np.linalg.norm(a, 2)
            thresh = DEFAULT_TOL.abs_eps + DEFAULT_TOL.rel_eps * sigma_max
            assert np.max(np.abs(a @ ns)) <= 10 * thresh
            assert np.allclose(ns.T @ ns, np.eye(ns.shape[1]), atol=DEFAULT_TOL.abs_eps * 100)

    def test_numerical_rank(self):
        assert numerical_rank(np.eye(4)) == 4
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1


class TestHelpers:
    def test_as_matrix_validates(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])

    def test_op_norm(self):
        assert op_norm(np.diag([3.0, -4.0])) == 4.0
        assert op_norm(np.zeros((0, 0))) == 0.0

    def test_close_uses_scale(self):
        tol = Tolerance(1e-10, 1e-9)
        big = 1e6 * np.eye(2)
        assert tol.close(big, big + 1e-4)
        assert not tol.close(big, big + 1.0)
