import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implreg.linalg import (
    SPECTRAL,
    KernelError,
    as_matrix,
    outer_product,
    schatten_norm,
    singular_values,
    svd,
    svd2x2_analytic,
)


def rand_matrix(seed, d, dp, scale=10.0):
    return np.random.default_rng(seed).uniform(-scale, scale, size=(d, dp))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("inf")], [0.0, 1.0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])


class TestSvd:
    def test_identity(self):
        u, sigmas, v = svd(np.eye(2))
        assert np.allclose(sigmas, [1.0, 1.0])
        assert np.allclose(np.abs(u.T @ v), np.eye(2), atol=1e-12)

    def test_permutation(self):
        u, sigmas, v = svd([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sigmas, [1.0, 1.0])

    def test_solution_matrix_x3(self):
        # expected values from the closed form, cross-checked by a
        # brute-force eigen-solve of the 2x2 Gram matrix
        w = [[3.0, 1.0], [1.0, 0.0]]
        gram_eigs = sorted(np.linalg.eigvalsh(np.array(w).T @ np.array(w)), reverse=True)
        assert math.sqrt(gram_eigs[0]) == pytest.approx(3.302775637731995, abs=1e-12)
        u, sigmas, v = svd(w)
        assert sigmas[0] == pytest.approx(3.302775637731995, abs=1e-10)
        assert sigmas[1] == pytest.approx(0.30277563773199456, abs=1e-10)

    def test_rank_deficient_still_orthonormal(self):
        u, sigmas, v = svd([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert sigmas[1] == 0.0
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-10)
        assert np.allclose((u * sigmas) @ v.T, [[1, 2], [2, 4], [3, 6]], atol=1e-10)

    def test_sign_convention(self):
        u, sigmas, v = svd([[-5.0, 0.0], [0.0, 1.0]])
        for r in range(2):
            lead = np.argmax(np.abs(u[:, r]))
            assert u[lead, r] >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8))
    def test_reconstruction_and_orthonormality(self, seed, d, dp):
        m = rand_matrix(seed, d, dp, scale=3.0)
        u, sigmas, v = svd(m)
        k = min(d, dp)
        assert (u.shape, sigmas.shape, v.shape) == ((d, k), (k,), (dp, k))
        norm = np.linalg.norm(m)
        tol = 1e-10 * max(norm, 1.0)
        assert np.abs((u * sigmas) @ v.T - m).max() <= tol
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-10
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] >= 0

    def test_matches_analytic_on_random_2x2(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = rng.uniform(-10, 10, size=(2, 2))
            s1, s2 = svd2x2_analytic(m)
            u, sigmas, v = svd(m)
            assert abs(sigmas[0] - s1) <= 1e-10
            assert abs(sigmas[1] - s2) <= 1e-10

    def test_lapack_failure_raises_kernel_error_with_input(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        m = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(KernelError) as info:
            svd(m)
        assert np.array_equal(info.value.matrix, m)

    def test_cutoff_is_relative(self):
        u, sigmas, v = svd(np.diag([1.0, 1e-12]))
        assert sigmas[1] == pytest.approx(1e-12, rel=1e-12, abs=0.0)

    def test_zero_matrix(self):
        u, sigmas, v = svd(np.zeros((3, 2)))
        assert np.array_equal(sigmas, [0.0, 0.0])
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3)])
    def test_sign_convention_rectangular(self, shape):
        m = rand_matrix(7, *shape)
        u, sigmas, v = svd(m)
        for r in range(min(shape)):
            lead = np.argmax(np.abs(u[:, r]))
            assert u[lead, r] >= 0
        assert np.abs((u * sigmas) @ v.T - m).max() <= 1e-12 * np.abs(m).max()


class TestSingularValues:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 4)])
    def test_matches_full_svd(self, shape):
        for seed in range(20):
            m = rand_matrix(seed, *shape)
            sig = singular_values(m)
            full = svd(m)[1]
            assert sig.shape == full.shape
            assert np.abs(sig - full).max() <= 1e-13 * full[0]

    def test_2x2_is_the_closed_form(self):
        m = rand_matrix(3, 2, 2)
        assert tuple(singular_values(m)) == svd2x2_analytic(m)

    def test_rank_deficient_gets_exact_zero(self):
        assert singular_values([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])[1] == 0.0

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4), (4, 3), (1, 3)])
    def test_stack_equals_each_matrix_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        full = rng.normal(size=(50, *shape))
        # rank one: on LAPACK's path the trailing values hit the cutoff
        low = rng.normal(size=(50, shape[0], 1)) @ rng.normal(size=(50, 1, shape[1]))
        for stack in (full, low, np.zeros((3, *shape))):
            got = singular_values(stack)
            want = np.array([singular_values(m) for m in stack])
            assert got.shape == want.shape == (len(stack), min(shape))
            assert got.tobytes() == want.tobytes()
        if min(shape) > 1 and shape != (2, 2):
            assert (singular_values(low)[:, 1:] == 0.0).all()

    @staticmethod
    def assert_2x2_stack_is_the_closed_form(stack):
        stack = np.asarray(stack, dtype=float).reshape(-1, 2, 2)
        got = singular_values(stack)
        want = np.array([svd2x2_analytic(m) for m in stack]).reshape(-1, 2)
        assert got.shape == want.shape == (len(stack), 2)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
                    st.sampled_from([0.0, -0.0, 1e-150, -1e-150, 1e150, -1e150]),
                ),
                min_size=4,
                max_size=4,
            ),
            max_size=12,
        )
    )
    def test_2x2_stack_is_the_closed_form_of_each_matrix(self, entries):
        self.assert_2x2_stack_is_the_closed_form(entries)

    def test_2x2_stack_edge_cases(self):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=(30, 2, 1)), rng.normal(size=(30, 1, 2))
        q, _ = np.linalg.qr(rng.normal(size=(30, 2, 2)))
        scales = 10.0 ** rng.uniform(-150, 150, size=(30, 1, 1))
        for stack in (
            rng.normal(size=(500, 2, 2)),
            # exact zeros of both signs
            [[[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [-0.0, -0.0]], [[0.0, 1.0], [-0.0, 0.0]]],
            u @ v,  # rank one
            3.0 * q,  # equal singular values
            [[[2.0, 0.0], [0.0, 2.0]], [[0.0, -5.0], [5.0, 0.0]]],
            scales * rng.normal(size=(30, 2, 2)),  # 1e-150 to 1e150
            np.zeros((0, 2, 2)),  # an empty stack
        ):
            self.assert_2x2_stack_is_the_closed_form(stack)

    def test_stack_rejects_non_finite(self):
        stack = np.ones((4, 3, 3))
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            singular_values(stack)


class TestSvd2x2Analytic:
    def test_solution_matrix_x0(self):
        assert svd2x2_analytic([[0.0, 1.0], [1.0, 0.0]]) == (1.0, 1.0)

    def test_rank1_diagonal(self):
        s1, s2 = svd2x2_analytic([[-7.5, 0.0], [0.0, 0.0]])
        assert (s1, s2) == (7.5, 0.0)

    def test_solution_matrix_x3(self):
        s1, s2 = svd2x2_analytic([[3.0, 1.0], [1.0, 0.0]])
        assert s1 == pytest.approx(3.302775637731995, abs=1e-14)
        assert s2 == pytest.approx(0.30277563773199456, abs=1e-14)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            svd2x2_analytic(np.eye(3))


class TestSchattenNorm:
    def test_nuclear_of_identity(self):
        assert schatten_norm(np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_spectral_of_solution_matrix_x0(self):
        assert schatten_norm([[0.0, 1.0], [1.0, 0.0]], SPECTRAL) == pytest.approx(1.0, abs=1e-12)

    def test_frobenius_from_entries(self):
        assert schatten_norm([[3.0, 1.0], [1.0, 0.0]], 2.0) == pytest.approx(math.sqrt(11.0), abs=1e-12)

    def test_float_inf_means_spectral(self):
        m = [[3.0, 1.0], [1.0, 0.0]]
        assert schatten_norm(m, float("inf")) == schatten_norm(m, SPECTRAL)

    def test_spectral_is_the_float_infinity(self):
        m = rand_matrix(5, 3, 4)
        assert SPECTRAL == math.inf
        assert schatten_norm(m, SPECTRAL) == float(singular_values(m)[0])
        with pytest.raises(ValueError):
            schatten_norm(m, -math.inf)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_order2_equals_entrywise_frobenius(self, seed, d, dp):
        m = rand_matrix(seed, d, dp, scale=4.0)
        assert schatten_norm(m, 2.0) == pytest.approx(float(np.sqrt((m * m).sum())), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 0.75]))
    def test_weakened_triangle_inequality(self, seed, p):
        # for p < 1 the triangle inequality holds with factor 2^(1/p - 1)
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, size=(2, 2))
        b = rng.uniform(-5, 5, size=(2, 2))
        c = 2.0 ** (1.0 / p - 1.0)
        lhs = schatten_norm(a + b, p)
        rhs = c * (schatten_norm(a, p) + schatten_norm(b, p))
        assert lhs <= rhs * (1 + 1e-12)


class TestOuterProduct:
    def test_basis_pair(self):
        t = outer_product([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(t, [[0.0, 1.0], [0.0, 0.0]])

    def test_order3(self):
        t = outer_product([[1.0, 2.0], [3.0], [4.0]])
        assert t.shape == (2, 1, 1)
        assert t[0, 0, 0] == 12.0 and t[1, 0, 0] == 24.0

    def test_scalar_vectors(self):
        assert outer_product([[2.0], [-3.0]])[0, 0] == -6.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            outer_product([])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_frobenius_is_product_of_vector_norms(self, seed, order):
        rng = np.random.default_rng(seed)
        vs = [rng.normal(size=rng.integers(1, 5)) for _ in range(order)]
        t = outer_product(vs)
        expected = math.prod(float(np.linalg.norm(v)) for v in vs)
        assert float(np.linalg.norm(t)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_kernel_error_carries_input():
    err = KernelError("boom", np.eye(2))
    assert err.matrix.shape == (2, 2)
