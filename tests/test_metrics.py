import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implreg import metrics
from implreg.linalg import SPECTRAL, singular_values
from implreg.metrics import (
    base_task_bounds,
    dist_from_rank,
    effective_rank_of_sigmas,
    perturbed_task_bounds,
    solution_norm_argmin,
    solution_singular_values,
    triangle_constant,
)

NUCLEAR = 1.0


def solution_matrix(x):
    return np.array([[x, 1.0], [1.0, 0.0]])


class TestQuasiNormSpec:
    """A (quasi-)norm is named by its Schatten order; its triangle
    constant comes from :func:`triangle_constant`."""

    def test_triangle_constants(self):
        assert triangle_constant(1.0) == 1.0
        assert triangle_constant(2.0) == 1.0
        assert triangle_constant(SPECTRAL) == 1.0
        assert triangle_constant(0.5) == 2.0
        assert triangle_constant(0.25) == pytest.approx(2.0**3)

    def test_rejects_bad_order(self):
        evaluators = (
            triangle_constant,
            lambda p: base_task_bounds(0.1, p),
            lambda p: perturbed_task_bounds(0.1, 1.0, 1.0, 0.0, p),
        )
        for p in (0.0, -2.0, math.nan):
            for evaluate in evaluators:
                with pytest.raises(ValueError, match="^Schatten order must be positive"):
                    evaluate(p)

    @pytest.mark.parametrize("p", [SPECTRAL, math.inf, float("inf")])
    def test_infinite_order_is_spectral(self, p):
        assert triangle_constant(p) == 1.0


class TestEffectiveRank:
    def test_maximal_on_balanced_solution(self):
        assert effective_rank_of_sigmas(singular_values(solution_matrix(0.0))) == pytest.approx(2.0, abs=1e-12)

    def test_rank_one_matrix(self):
        assert effective_rank_of_sigmas(singular_values(np.outer([1.0, 2.0], [3.0, -1.0]))) == pytest.approx(1.0, abs=1e-9)

    def test_solution_matrix_x3(self):
        # frozen from the closed-form singular values fed through the
        # entropy definition at high precision
        assert effective_rank_of_sigmas(singular_values(solution_matrix(3.0))) == pytest.approx(1.3342530099260723, abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            effective_rank_of_sigmas(singular_values(np.zeros((2, 2))))

    def test_equals_integer_rank_for_equal_singular_values(self):
        assert effective_rank_of_sigmas(singular_values(np.diag([2.0, 2.0, 0.0]))) == pytest.approx(2.0, abs=1e-12)
        assert effective_rank_of_sigmas(singular_values(5.0 * np.eye(4))) == pytest.approx(4.0, abs=1e-12)

    def test_stack_equals_each_row_and_the_positive_only_sum(self):
        rng = np.random.default_rng(11)
        for k in range(1, 8):
            sig = rng.uniform(0.0, 3.0, size=(200, k))
            sig[rng.uniform(size=sig.shape) < 0.3] = 0.0  # exact zeros, as from the cutoff
            sig[:, 0] += 0.5  # no zero row
            got = effective_rank_of_sigmas(sig)
            rows = [effective_rank_of_sigmas(row) for row in sig]
            assert all(type(r) is float for r in rows)
            assert got.tobytes() == np.array(rows).tobytes()
            # the entropy over the positive values alone
            for row, r in zip(sig, rows):
                pos = row[row > 0] / row.sum()
                assert r == float(np.exp(-(pos * np.log(pos)).sum()))

    def test_stack_with_a_zero_row_raises(self):
        with pytest.raises(ValueError, match="zero matrix"):
            effective_rank_of_sigmas(np.array([[2.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_range(self, seed, d, dp):
        m = np.random.default_rng(seed).normal(size=(d, dp))
        er = effective_rank_of_sigmas(singular_values(m))
        assert 0.0 < er <= min(d, dp) + 1e-12


class TestDistFromRank:
    def test_full_rank_bound_is_zero(self):
        m = np.random.default_rng(0).normal(size=(3, 3))
        assert dist_from_rank(m, 3) == pytest.approx(0.0, abs=1e-12)

    def test_2x2_rank1_distance_is_second_singular_value(self):
        for x in (0.0, 1.5, -4.0):
            m = solution_matrix(x)
            assert dist_from_rank(m, 1) == pytest.approx(solution_singular_values(x)[1], abs=1e-10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dist_from_rank(np.eye(2), 3)

    def test_matches_random_search_on_3x3(self):
        """Stochastic oracle: a million random rank-one directions with
        optimal scaling, the best candidates polished by alternating
        closed-form least squares on the two vectors.  Never touches the
        SVD kernel; can only overestimate the distance, and must come
        within 1e-3 of the SVD tail."""
        rng = np.random.default_rng(123)
        m = rng.normal(size=(3, 3))
        exact = dist_from_rank(m, 1)

        def residual(u, v):
            uv = np.outer(u, v)
            scale = float((uv * m).sum()) / float((uv * uv).sum())
            return float(np.linalg.norm(scale * uv - m))

        candidates = []
        for _ in range(10):
            u = rng.normal(size=(100_000, 3))
            v = rng.normal(size=(100_000, 3))
            uv = u[:, :, None] * v[:, None, :]
            denom = (uv * uv).sum(axis=(1, 2))
            scale = (uv * m).sum(axis=(1, 2)) / denom
            diff = scale[:, None, None] * uv - m
            dists = np.sqrt((diff * diff).sum(axis=(1, 2)))
            k = int(np.argmin(dists))
            candidates.append((float(dists[k]), u[k], v[k]))
        best = min(c[0] for c in candidates)
        for _, u, v in sorted(candidates, key=lambda c: c[0])[:3]:
            for _ in range(50):  # alternating exact 1-D least squares
                u = m @ v / float(v @ v)
                v = m.T @ u / float(u @ u)
            best = min(best, residual(u, v))
        assert exact <= best + 1e-12
        assert best - exact <= 1e-3


class TestSolutionSingularValues:
    def test_balanced_point(self):
        assert solution_singular_values(0.0) == (1.0, 1.0)

    def test_x3_values_and_determinant_identity(self):
        s1, s2 = solution_singular_values(3.0)
        assert s1 == pytest.approx(3.302775637731995, abs=1e-12)
        assert s2 == pytest.approx(0.30277563773199456, abs=1e-12)
        assert s1 * s2 == pytest.approx(1.0, abs=1e-12)  # |det| = 1 on the family

    def test_monotone_in_free_entry(self):
        xs = np.arange(0.0, 10.0 + 1e-9, 0.01)
        s1s, s2s = zip(*(solution_singular_values(x) for x in xs))
        assert all(b > a for a, b in zip(s1s, s1s[1:]))
        assert all(b < a for a, b in zip(s2s, s2s[1:]))


class TestBaseTaskBounds:
    def test_nuclear_at_loss_001_is_vacuous(self):
        norm_lb, _, _ = base_task_bounds(0.01, NUCLEAR)
        assert norm_lb == pytest.approx(-0.9289321881345254, abs=1e-12)

    def test_zero_loss_limits(self):
        norm_lb, erank_ub, dist_ub = base_task_bounds(0.0, NUCLEAR)
        assert norm_lb == math.inf
        assert erank_ub == 1.0
        assert dist_ub == 0.0

    def test_nuclear_at_loss_1e6(self):
        norm_lb, _, _ = base_task_bounds(1e-6, NUCLEAR)
        assert norm_lb == pytest.approx(699.1067811865474, abs=1e-9)

    def test_schatten_half_offset_is_8c2(self):
        # c = 2, a = 1 / (2 sqrt(2)): b = 8 c^2 = 32 dominates sqrt(2) a = 1/2
        norm_lb, _, _ = base_task_bounds(0.25, 0.5)
        assert norm_lb == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)) / 0.5 - 32.0, abs=1e-12)


class TestPerturbedTaskBounds:
    def test_specialization_diverges_like_base(self):
        for ell in (1e-2, 1e-4, 1e-6):
            pb, _, _ = perturbed_task_bounds(ell, 1.0, 1.0, 0.0, NUCLEAR)
            assert pb == pytest.approx(1.0 / math.sqrt(2 * ell) - 8.0, abs=1e-9)

    def test_finite_zero_loss_limit(self):
        pb, _, _ = perturbed_task_bounds(0.0, 1.0, 1.0, 0.1, NUCLEAR)
        assert pb == pytest.approx(2.0, abs=1e-12)  # 1/0.1 - max(1/1.1, 8)

    def test_rejects_zero_adjacent(self):
        with pytest.raises(ValueError):
            perturbed_task_bounds(0.1, 0.0, 1.0, 0.0, NUCLEAR)

    def test_upper_bounds_at_zero_loss(self):
        _, erank_ub, dist_ub = perturbed_task_bounds(0.0, 2.0, -1.0, 0.05, NUCLEAR)
        assert erank_ub == pytest.approx(1.0 + 16.0 * 0.05 / 1.0, abs=1e-12)
        assert dist_ub == pytest.approx(4.0 * 0.05, abs=1e-12)


LOSSES = [0.0, 5e-324, 1e-300, 1e-4, 0.5, 1e300] + (10.0 ** np.random.default_rng(3).uniform(-12, 1, 200)).tolist()


def scalar_base_oracle(ell, c):
    # the per-sample formulas on math.sqrt, as the CSV columns were once built
    a = 1.0 / (math.sqrt(2.0) * c)
    b = max(math.sqrt(2.0) * a, 8.0 * c**2)
    norm_lb = math.inf if ell == 0.0 else a / math.sqrt(ell) - b
    erank_ub = 1.0 + (2.0 * math.sqrt(12.0) / math.log(2.0)) * math.sqrt(ell)
    return norm_lb, erank_ub, 3.0 * math.sqrt(2.0) * math.sqrt(ell)


def scalar_perturbed_oracle(ell, z, z_prime, eps, c):
    az, azp, ae = abs(z), abs(z_prime), abs(eps)
    zmin = min(az, azp)
    a = 1.0 / c
    b = max(a * az * azp / (ae + zmin), 8.0 * c**2 * max(az, azp, ae))
    denom = ae + math.sqrt(2.0 * ell)
    norm_lb = math.inf if denom == 0.0 else a * az * azp / denom - b
    erank_ub = 1.0 + (16.0 / zmin) * (ae + math.sqrt(2.0 * ell))
    dist_ub = 4.0 * ae + (4.0 + math.sqrt(az * azp) / zmin) * math.sqrt(2.0 * ell)
    return norm_lb, erank_ub, dist_ub


# Schatten orders with their triangle constants, spelled out for the oracles
ORDERS = [(1.0, 1.0), (0.5, 2.0)]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestBoundsOverLossArrays:
    @pytest.mark.parametrize("p, c", ORDERS, ids=["nuclear", "schatten_half"])
    def test_base_array_equals_scalar_calls(self, p, c):
        column = base_task_bounds(np.array(LOSSES), p)
        for k, values in enumerate(column):
            assert isinstance(values, np.ndarray)
            scalars = [base_task_bounds(ell, p)[k] for ell in LOSSES]
            assert all(type(v) is float for v in scalars)
            assert bits(values) == bits(scalars)
            assert bits(scalars) == bits([scalar_base_oracle(ell, c)[k] for ell in LOSSES])

    @pytest.mark.parametrize("z, z_prime, eps", [(1.0, 1.0, 0.0), (1.0, 1.0, 0.01), (0.7, -1.3, -0.05)])
    def test_perturbed_array_equals_scalar_calls(self, z, z_prime, eps):
        for p, c in ORDERS:
            column = perturbed_task_bounds(np.array(LOSSES), z, z_prime, eps, p)
            for k, values in enumerate(column):
                scalars = [perturbed_task_bounds(ell, z, z_prime, eps, p)[k] for ell in LOSSES]
                assert all(type(v) is float for v in scalars)
                assert bits(values) == bits(scalars)
                assert bits(scalars) == bits([scalar_perturbed_oracle(ell, z, z_prime, eps, c)[k] for ell in LOSSES])
            assert (column[0][0] == math.inf) == (eps == 0.0)

    def test_negative_loss_rejected(self):
        for ell in (-1e-300, np.array([0.1, -0.0, -1e-12])):
            with pytest.raises(ValueError):
                base_task_bounds(ell, NUCLEAR)
            with pytest.raises(ValueError):
                perturbed_task_bounds(ell, 1.0, 1.0, 0.1, NUCLEAR)
        base_task_bounds(np.array([0.1, -0.0]), NUCLEAR)  # -0.0 is not negative


class TestSolutionNormArgmin:
    @pytest.mark.parametrize("p", [NUCLEAR, SPECTRAL], ids=["nuclear", "spectral"])
    def test_coarse_grid(self, p):
        assert solution_norm_argmin(p, [-2.0, -1.0, 0.0, 1.0, 2.0]) == 0.0

    def test_quasi_norm_fine_grid(self):
        grid = np.arange(-3.0, 3.0 + 1e-9, 0.1).round(10).tolist()
        assert solution_norm_argmin(0.5, grid) == 0.0

    def test_grid_must_contain_zero(self):
        with pytest.raises(ValueError):
            solution_norm_argmin(NUCLEAR, [1.0, 2.0])


class TestEvaluatorConsistency:
    def test_base_and_specialized_perturbed_share_scaling(self):
        # both families diverge as loss -> 0 at z = z' = 1, eps = 0;
        # constants differ by design, so only the scaling is compared
        for ell in (1e-4, 1e-8):
            base = base_task_bounds(ell, NUCLEAR)[0]
            pert = perturbed_task_bounds(ell, 1.0, 1.0, 0.0, NUCLEAR)[0]
            assert base > 0 and pert > 0
            assert pert / base == pytest.approx(1.0, rel=0.2)
