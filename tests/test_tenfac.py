import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implreg import matfac, tenfac
from implreg.tenfac import (
    AdaptiveLrState,
    CpModel,
    TensorTask,
    adaptive_step,
    als_fit,
    cp_compose,
    cp_loss_and_grads,
    default_terms,
    estimate_rank,
    gen_ground_truth,
    sample_observations,
    train_cp,
)


def random_model(seed, dims, terms):
    rng = np.random.default_rng(seed)
    return CpModel(tuple(rng.normal(size=(terms, d)) for d in dims))


def full_task(tensor):
    t = np.asarray(tensor)
    obs = {idx: float(t[idx]) for idx in np.ndindex(t.shape)}
    unobserved = next(iter(obs))
    del obs[unobserved]
    return TensorTask(dims=t.shape, observations=obs)


def fd_grads(model, task, step=1e-5):
    grads = []
    for n, f in enumerate(model.factors):
        g = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            bump = [x.copy() for x in model.factors]
            bump[n][idx] += step
            up, _ = cp_loss_and_grads(CpModel(tuple(bump)), task)
            bump[n][idx] -= 2 * step
            down, _ = cp_loss_and_grads(CpModel(tuple(bump)), task)
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def gather_loss_and_grads(factors, task):
    """The gather-and-one-hot formula the dense masked gradient replaced:
    per-observation products of gathered factor entries, scattered back
    to each mode through one-hot matrices."""
    keys = sorted(task.observations)
    idx = np.array(keys, dtype=np.intp).reshape(len(keys), len(task.dims))
    vals = np.array([task.observations[k] for k in keys])
    n_obs, n_modes = vals.size, len(factors)
    gathered = [factors[n][:, idx[:, n]] for n in range(n_modes)]
    prod = gathered[0].copy()
    for g in gathered[1:]:
        prod *= g
    resid = prod.sum(axis=0) - vals
    lo = 0.5 * float(resid @ resid)
    grads = []
    for n in range(n_modes):
        others = np.ones((factors[0].shape[0], n_obs))
        for m in range(n_modes):
            if m != n:
                others = others * gathered[m]
        onehot = np.zeros((n_obs, task.dims[n]))
        onehot[np.arange(n_obs), idx[:, n]] = 1.0
        grads.append((others * resid) @ onehot)
    return lo, grads


def eckart_young_floor(t, r):
    """Lower bound on the MSE of any r-term CP model of ``t``."""
    tails = [
        float((np.linalg.svd(np.moveaxis(t, n, 0).reshape(t.shape[n], -1), compute_uv=False)[r:] ** 2).sum())
        for n in range(t.ndim)
    ]
    return max(tails) / t.size


class TestCpCompose:
    def test_single_term_is_outer_product(self):
        model = CpModel((np.array([[1.0, 2.0]]), np.array([[3.0, 4.0, 5.0]])))
        assert np.allclose(cp_compose(model), np.outer([1, 2], [3, 4, 5]))

    def test_zero_factors_give_zero_tensor(self):
        model = CpModel((np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2))))
        assert np.array_equal(cp_compose(model), np.zeros((2, 2, 2)))

    def test_order2_matches_naive_loops(self):
        model = random_model(0, (3, 3), 2)
        t = cp_compose(model)
        a, b = model.factors
        for i in range(3):
            for j in range(3):
                expected = sum(a[r, i] * b[r, j] for r in range(2))
                assert t[i, j] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_scale_symmetry(self, seed):
        # multiplying one mode's term by s and another's by 1/s leaves
        # the composed tensor unchanged
        rng = np.random.default_rng(seed)
        model = random_model(seed, (3, 2, 4), 2)
        s = float(rng.uniform(0.5, 4.0))
        scaled = [f.copy() for f in model.factors]
        scaled[0][1] *= s
        scaled[1][1] /= s
        diff = cp_compose(CpModel(tuple(scaled))) - cp_compose(model)
        assert np.abs(diff).max() <= 1e-12 * max(1.0, np.abs(cp_compose(model)).max())


class TestCpLossAndGrads:
    def test_exact_fit_gives_zero(self):
        model = random_model(1, (3, 3, 3), 2)
        task = full_task(cp_compose(model))
        lo, grads = cp_loss_and_grads(model, task)
        assert lo == pytest.approx(0.0, abs=1e-20)
        for g in grads:
            assert np.abs(g).max() <= 1e-10

    def test_order2_matches_depth2_matrix_gradients(self):
        """A two-mode CP model is a depth-2 factorization W = F1^T F2;
        its gradients must match the matrix-factorization ones."""
        model = random_model(2, (2, 2), 2)
        f1, f2 = model.factors
        task2d = matfac.make_base_task()
        obs = {k: v for k, v in task2d.observations.items()}
        task = TensorTask(dims=(2, 2), observations=obs)
        lo, grads = cp_loss_and_grads(model, task)
        net = matfac.DeepNet((f2, f1.T))  # W = F1^T @ F2
        g_w1, g_w2 = matfac.factor_gradients(net, task2d)
        assert lo == pytest.approx(matfac.loss(task2d, matfac.product_matrix(net)), abs=1e-14)
        assert np.allclose(grads[0], g_w2.T, atol=1e-12)
        assert np.allclose(grads[1], g_w1, atol=1e-12)

    def test_matches_finite_differences_order3(self):
        model = random_model(3, (3, 2, 3), 2)
        truth = cp_compose(random_model(4, (3, 2, 3), 1))
        task = sample_observations(truth, 10, seed=5)
        analytic = cp_loss_and_grads(model, task)[1]
        numeric = fd_grads(model, task)
        for a, n in zip(analytic, numeric):
            denom = max(float(np.linalg.norm(a)), 1e-12)
            assert float(np.linalg.norm(a - n)) / denom <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([3, 4]), st.integers(1, 3))
    def test_gradients_match_fd_random(self, seed, order, terms):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(2, 5)) for _ in range(order))
        model = random_model(seed + 1, dims, terms)
        truth = cp_compose(random_model(seed + 2, dims, 1))
        n_obs = int(rng.integers(3, min(12, np.prod(dims) - 1)))
        task = sample_observations(truth, n_obs, seed=seed + 3)
        analytic = cp_loss_and_grads(model, task)[1]
        numeric = fd_grads(model, task)
        for a, n in zip(analytic, numeric):
            denom = max(float(np.linalg.norm(a)), 1e-12)
            assert float(np.linalg.norm(a - n)) / denom <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4))
    def test_matches_gather_formula(self, seed, order, terms):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(2, 5)) for _ in range(order))
        total = int(np.prod(dims))
        flat = rng.choice(total, size=int(rng.integers(1, total)), replace=False)
        obs = {tuple(int(i) for i in np.unravel_index(f, dims)): float(rng.normal()) for f in flat}
        task = TensorTask(dims=dims, observations=obs)
        model = random_model(seed + 1, dims, terms)
        lo, grads = cp_loss_and_grads(model, task)
        lo_ref, grads_ref = gather_loss_and_grads(model.factors, task)
        assert lo == pytest.approx(lo_ref, rel=1e-12, abs=0.0)
        for g, ref in zip(grads, grads_ref):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_shape_mismatch_rejected(self):
        model = random_model(0, (2, 2), 1)
        task = TensorTask(dims=(3, 3), observations={(0, 0): 1.0})
        with pytest.raises(ValueError):
            cp_loss_and_grads(model, task)


class TestOrderOne:
    """A one-mode CP model is a sum of R vectors."""

    def test_compose_loss_and_grads(self):
        model = CpModel((np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]]),))
        assert np.array_equal(cp_compose(model), np.array([1.5, 2.0, 2.0]))
        task = TensorTask(dims=(3,), observations={(0,): 1.0, (2,): 4.0})
        lo, grads = cp_loss_and_grads(model, task)
        resid = np.array([0.5, 0.0, -2.0])  # entry 1 is unobserved
        assert lo == pytest.approx(0.5 * float(resid @ resid), rel=1e-15)
        assert len(grads) == 1
        assert np.array_equal(grads[0], np.vstack([resid, resid]))

    def test_train_and_rank(self):
        task = TensorTask(dims=(3,), observations={(0,): 1.0, (2,): -0.5})
        assert train_cp(task, 2, 1e-2, seed=0).converged
        assert estimate_rank(np.array([1.0, -2.0, 0.5])) == 1


class TestAdaptiveStep:
    def test_first_step_formula(self):
        model = CpModel((np.zeros((1, 2)), np.zeros((1, 2))))
        grads = [np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]])]
        g2 = 25.0
        _, state = adaptive_step(model, grads, AdaptiveLrState())
        assert state.t == 1
        assert state.gamma == pytest.approx(0.01 * g2, abs=1e-15)
        # bias correction makes gamma_1 / (1 - beta) = g2 exactly
        expected_eta = 0.01 / (math.sqrt(g2) + 1e-6)
        stepped, _ = adaptive_step(model, grads, AdaptiveLrState())
        assert np.allclose(stepped.factors[0], -expected_eta * grads[0], atol=1e-15)

    def test_zero_gradient_keeps_model_and_decays_gamma(self):
        model = random_model(0, (2, 2), 1)
        state = AdaptiveLrState(gamma=1.0, t=5)
        zero = [np.zeros_like(f) for f in model.factors]
        out, state2 = adaptive_step(model, zero, state)
        for a, b in zip(out.factors, model.factors):
            assert np.array_equal(a, b)
        assert state2.gamma == pytest.approx(0.99, abs=1e-15)

    def test_constant_gradient_norm_limit(self):
        # with a constant total squared norm g, the step approaches
        # base / (sqrt(g) + 1e-6) as the bias correction washes out
        g = 4.0
        state = AdaptiveLrState()
        model = CpModel((np.zeros((1, 1)), np.zeros((1, 1))))
        grads = [np.array([[2.0]]), np.array([[0.0]])]
        for _ in range(10_000):
            _, state = adaptive_step(model, grads, state)
        eta = state.base_eta / (math.sqrt(state.gamma / (1 - state.beta**state.t)) + 1e-6)
        assert eta == pytest.approx(0.01 / (math.sqrt(g) + 1e-6), rel=1e-9)


class TestTrainCp:
    def test_fully_observed_rank1_reaches_threshold(self):
        truth = gen_ground_truth((8, 8, 8), 1, seed=0)
        task = full_task(truth)
        result = train_cp(task, default_terms((8, 8, 8)), 1e-3, seed=0)
        assert result.converged
        assert result.trajectory[-1].mse < 1e-6

    def test_all_but_one_observed_allowed(self):
        truth = gen_ground_truth((3, 3), 1, seed=1)
        task = sample_observations(truth, 8, seed=0)
        assert len(task.observations) == 8

    def test_terms_below_true_rank_plateau(self):
        truth = gen_ground_truth((4, 4, 4), 3, seed=2)
        task = full_task(truth)
        result = train_cp(task, 2, 1e-2, seed=0, max_iters=20_000)
        assert not result.converged
        assert result.iterations == 20_000
        assert result.trajectory[-1].mse > 1e-6

    def test_deterministic_per_seed(self):
        truth = gen_ground_truth((4, 4), 1, seed=3)
        task = sample_observations(truth, 10, seed=1)
        a = train_cp(task, 4, 1e-2, seed=9, max_iters=500)
        b = train_cp(task, 4, 1e-2, seed=9, max_iters=500)
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.array_equal(fa, fb)

    def test_loop_is_loss_grads_plus_adaptive_step(self):
        # train_cp updates its factors in place; k of its iterations equal
        # k public steps from the same start, bit for bit
        truth = gen_ground_truth((4, 4), 1, seed=3)
        task = sample_observations(truth, 10, seed=1)
        model = train_cp(task, 4, 1e-2, seed=9, mse_threshold=0.0, max_iters=0).model
        state = AdaptiveLrState()
        for _ in range(200):
            _, grads = cp_loss_and_grads(model, task)
            model, state = adaptive_step(model, grads, state)
        trained = train_cp(task, 4, 1e-2, seed=9, mse_threshold=0.0, max_iters=200)
        assert trained.iterations == 200
        for fa, fb in zip(trained.model.factors, model.factors):
            assert np.array_equal(fa, fb)


class TestAls:
    def test_rank1_target_fits_fast(self):
        truth = cp_compose(random_model(5, (4, 4, 4), 1))
        model, mse = als_fit(truth, 1, threshold=1e-10, max_sweeps=50)
        assert mse < 1e-10
        # independent check: the fit reproduces the tensor entrywise
        assert np.abs(cp_compose(model) - truth).max() <= 1e-4 * np.abs(truth).max()

    def test_terms_at_true_rank_fit(self):
        truth = gen_ground_truth((5, 5, 5), 2, seed=6)
        _, mse = als_fit(truth, 2)
        assert mse < 1e-6

    def test_monotone_mse_across_sweeps(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(4, 4, 4))
        prev = math.inf
        for sweeps in (1, 2, 4, 8, 16):
            _, mse = als_fit(truth, 3, threshold=0.0, max_sweeps=sweeps)
            assert mse <= prev + 1e-12
            prev = mse

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            als_fit(np.ones((2, 2)), 0)


class TestEstimateRank:
    def test_generated_rank1(self):
        truth = gen_ground_truth((6, 6, 6), 1, seed=8)
        assert estimate_rank(truth) == 1

    def test_generated_rank3(self):
        truth = gen_ground_truth((6, 6, 6), 3, seed=9)
        assert estimate_rank(truth) == 3

    def test_zero_tensor_is_rank_zero(self):
        assert estimate_rank(np.zeros((3, 3, 3))) == 0

    def test_sentinel_when_out_of_range(self):
        truth = gen_ground_truth((4, 4), 3, seed=10)
        assert estimate_rank(truth, r_max=2) == 3  # r_max + 1 sentinel

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([(3, 4), (3, 3, 3), (2, 3, 4), (2, 2, 2, 3)]))
    def test_als_never_beats_eckart_young_floor(self, seed, dims):
        # a count the rank search skips could not have succeeded
        t = np.random.default_rng(seed).normal(size=dims)
        slack = 1e-13 * float((t * t).sum()) / t.size
        for r in range(1, default_terms(dims) + 1):
            _, mse = als_fit(t, r, threshold=0.0, max_sweeps=30, seed=seed % 3)
            assert mse >= eckart_young_floor(t, r) * (1.0 - 1e-9) - slack

    @pytest.mark.parametrize("r_star", [1, 2, 3])
    def test_preset_truths_fit_only_from_their_rank(self, r_star, monkeypatch):
        # the seed-0 8x8x8 truths keep their rank, and the floor skips
        # every smaller count without a fit
        truth = gen_ground_truth((8, 8, 8), r_star, seed=0)
        fitted = []
        als = tenfac.als_fit

        def counting(t, terms, *args, **kwargs):
            fitted.append(terms)
            return als(t, terms, *args, **kwargs)

        monkeypatch.setattr(tenfac, "als_fit", counting)
        assert estimate_rank(truth) == r_star
        assert fitted and min(fitted) == r_star

    def test_same_estimate_as_search_from_one(self, monkeypatch):
        # the noise leaves fits just under the threshold, where each
        # unfolding's tail is near it but no single one exceeds it; the
        # reference run sees all-zero singular values, so it skips no count
        tensors = []
        for seed in range(6):
            noise = np.random.default_rng(seed).normal(0.0, 8e-4, size=(3, 3, 3))
            tensors.append(cp_compose(random_model(seed, (3, 3, 3), 1 + seed % 3)) + noise)
        skipping = [estimate_rank(t) for t in tensors]
        monkeypatch.setattr(tenfac, "singular_values", lambda a: np.zeros(min(a.shape)))
        assert skipping == [estimate_rank(t) for t in tensors]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**5), st.integers(1, 3))
    def test_never_exceeds_construction_terms(self, seed, terms):
        model = random_model(seed, (4, 4, 4), terms)
        assert estimate_rank(cp_compose(model)) <= terms


class TestGenGroundTruth:
    def test_unit_frobenius_norm(self):
        t = gen_ground_truth((8, 8, 8), 1, seed=11)
        assert float(np.linalg.norm(t)) == pytest.approx(1.0, abs=1e-12)

    def test_estimated_rank_matches(self):
        for r in (1, 2):
            t = gen_ground_truth((5, 5, 5), r, seed=12)
            assert estimate_rank(t) == r

    def test_2x2_rank1_is_exactly_rank1(self):
        t = gen_ground_truth((2, 2), 1, seed=13)
        assert np.linalg.matrix_rank(t, tol=1e-10) == 1

    def test_default_terms_value(self):
        assert default_terms((8, 8, 8)) == 64
        assert default_terms((8, 8, 8, 8)) == 512


class TestTaskValidation:
    def test_rejects_full_observation(self):
        with pytest.raises(ValueError):
            TensorTask(dims=(2, 2), observations={idx: 1.0 for idx in np.ndindex(2, 2)})

    def test_rejects_empty_observation_set(self):
        with pytest.raises(ValueError):
            TensorTask(dims=(2, 2), observations={})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            TensorTask(dims=(2, 2), observations={(2, 0): 1.0})

    def test_sample_observations_count_and_determinism(self):
        truth = gen_ground_truth((4, 4, 4), 1, seed=14)
        a = sample_observations(truth, 20, seed=3)
        b = sample_observations(truth, 20, seed=3)
        assert len(a.observations) == 20
        assert a.observations == b.observations
