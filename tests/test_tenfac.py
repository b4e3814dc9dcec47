import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implreg import harness, matfac, tenfac
from implreg.matfac import CompletionTask
from implreg.tenfac import (
    CpModel,
    als_fit,
    cp_compose,
    cp_loss_and_grads,
    default_terms,
    estimate_rank,
    gen_ground_truth,
    sample_observations,
    train_cp,
    train_cp_runs,
)
from implreg.rng import stream


def random_model(seed, dims, terms):
    rng = np.random.default_rng(seed)
    return CpModel(tuple(rng.normal(size=(terms, d)) for d in dims))


def full_task(tensor):
    t = np.asarray(tensor)
    obs = {idx: float(t[idx]) for idx in np.ndindex(t.shape)}
    unobserved = next(iter(obs))
    del obs[unobserved]
    return CompletionTask(shape=t.shape, observations=obs)


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
    idx = np.array(keys, dtype=np.intp).reshape(len(keys), len(task.shape))
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
        onehot = np.zeros((n_obs, task.shape[n]))
        onehot[np.arange(n_obs), idx[:, n]] = 1.0
        grads.append((others * resid) @ onehot)
    return lo, grads


def old_khatri_rao(mats, terms):
    """The column-layout product the row layout replaced: (prod d_n,
    terms), built from a ones row (so the first mode is multiplied by an
    exact 1.0); callers used its transpose."""
    out = np.ones((1, terms))
    for m in mats:
        out = (out[:, None, :] * m.T[None, :, :]).reshape(-1, terms)
    return out


def old_unfold(t, n):
    return np.moveaxis(t, n, 0).reshape(t.shape[n], -1)


def old_compose(factors):
    dims = tuple(f.shape[1] for f in factors)
    return (factors[0].T @ old_khatri_rao(factors[1:], factors[0].shape[0]).T).reshape(dims)


def old_loss_and_grads(factors, task):
    """The dense masked MTTKRP the shared partial one replaced: mode n's
    gradient from the Khatri-Rao product of all the other modes."""
    terms = factors[0].shape[0]
    kr = old_khatri_rao(factors[1:], terms)
    err = (factors[0].T @ kr.T).reshape(task.shape) * task.mask - task.target
    lo = 0.5 * float((err * err).sum())
    grads = []
    for n in range(len(task.shape)):
        if n:
            kr = old_khatri_rao([*factors[:n], *factors[n + 1 :]], terms)
        grads.append(kr.T @ old_unfold(err, n).T)
    return lo, grads


def shared_loss_and_grads(factors, task):
    """The shared partial MTTKRP written out per mode and per term on the
    old products: compose, loss and mode 0 as in old_loss_and_grads, then
    M = F_0 @ unfold_0(E) and row r of mode n >= 1's gradient
    (left_r @ M_r) @ right_r, with M_r viewed (left, d_n * right) and then
    (d_n, right), left_r and right_r the rows of the Khatri-Rao products
    of the modes before and after n, and a side with no modes left out."""
    terms, last = factors[0].shape[0], len(factors) - 1
    kr = old_khatri_rao(factors[1:], terms).T
    err = (factors[0].T @ kr).reshape(task.shape) * task.mask - task.target
    lo = 0.5 * float((err * err).sum())
    grads = [kr @ old_unfold(err, 0).T]
    m = factors[0] @ old_unfold(err, 0)
    for n in range(1, last + 1):
        left = old_khatri_rao(factors[1:n], terms).T
        right = old_khatri_rao(factors[n + 1 :], terms).T
        g = np.empty(factors[n].shape)
        for r in range(terms):
            part = m[r].reshape(left.shape[1], -1)
            if n > 1:
                part = left[r] @ part
            part = part.reshape(factors[n].shape[1], -1)
            g[r] = part @ right[r] if n < last else part.ravel()
        grads.append(g)
    return lo, grads


def oracle_train_cp(task, terms, init_std, seed, mse_threshold=1e-6, max_iters=10**6, grads_of=shared_loss_and_grads):
    """train_cp on per-mode factor arrays and per-mode gradient arrays,
    the gradient ``grads_of`` (the shared partial MTTKRP by default,
    old_loss_and_grads for the trainer before it) and the rate formula
    written out (base 1e-2, EMA weight 0.99, bias-corrected); returns
    (iterations, trajectory tuples, factors).  Fails on divergence."""
    subs = stream(seed, 7).spawn(len(task.shape))
    factors = [subs[n].normal(0.0, init_std, size=(terms, d)) for n, d in enumerate(task.shape)]
    gamma, t = 0.0, 0
    trajectory = []
    it = 0
    while True:
        lo, grads = grads_of(factors, task)
        mse = 2.0 * lo / len(task.observations)
        assert math.isfinite(lo)
        if it % tenfac.CP_LOG_STRIDE == 0:
            trajectory.append((it, lo, mse))
        if mse < mse_threshold or it >= max_iters:
            break
        g2 = 0.0
        for g in grads:
            g2 += float((g * g).sum())
        t += 1
        gamma = 0.99 * gamma + (1.0 - 0.99) * g2
        eta_t = 1e-2 / (math.sqrt(gamma / (1.0 - 0.99**t)) + 1e-6)
        for n in range(len(factors)):
            factors[n] -= eta_t * grads[n]
        it += 1
    if trajectory[-1][0] != it:
        trajectory.append((it, lo, mse))
    return it, trajectory, factors


def old_als_fit(t, terms, threshold, max_sweeps, seed):
    gen = stream(seed, 11)
    factors = [gen.normal(0.0, 0.1, size=(terms, d)) for d in t.shape]
    unfolds = [old_unfold(t, n) for n in range(t.ndim)]
    norm2 = float((t * t).sum())
    diff = old_compose(factors) - t
    best, best_mse = [f.copy() for f in factors], float((diff * diff).sum()) / t.size
    for _ in range(max_sweeps):
        for n in range(t.ndim):
            k = old_khatri_rao([*factors[:n], *factors[n + 1 :]], terms)
            gram = k.T @ k
            rhs = k.T @ unfolds[n].T
            try:
                sol = np.linalg.solve(gram, rhs)
                if not np.all(np.isfinite(sol)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                sol = np.linalg.solve(gram + tenfac.ALS_RIDGE * (np.trace(gram) + 1.0) * np.eye(terms), rhs)
            factors[n] = sol
        sse = norm2 - 2.0 * float((sol * rhs).sum()) + float((gram * (sol @ sol.T)).sum())
        m = max(sse, 0.0) / t.size
        if m < best_mse:
            best, best_mse = [f.copy() for f in factors], m
        if best_mse < threshold:
            break
    return best, best_mse


def seeded_first_rank_fits(t, r, threshold):
    """The rank search's attempt order before the algebraic start went
    first: the seeded restarts, then the algebraic start."""
    for attempt in range(tenfac.RANK_RESTARTS):
        yield als_fit(t, r, threshold=threshold, seed=attempt)[0]
    start = tenfac._jennrich_start(t, r)
    if start is not None:
        yield tenfac._als(t, start, threshold, tenfac.ALS_MAX_SWEEPS)[0]


def same_bits(a, b):
    # tobytes() equality: -0.0 and +0.0 differ, as do NaN payloads
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def eckart_young_floor(t, r):
    """Lower bound on the MSE of any r-term CP model of ``t``."""
    tails = [
        float((np.linalg.svd(np.moveaxis(t, n, 0).reshape(t.shape[n], -1), compute_uv=False)[r:] ** 2).sum())
        for n in range(t.ndim)
    ]
    return max(tails) / t.size


# seeds of random_model(seed, (4, 4, 4), 3) on which all three seeded ALS
# restarts stall at 3 terms
STALL_SEEDS = [10000, 49670, 37977, 318, 26608, 54781, 81214, 25026, 93811,
               88182, 84146, 1497, 59777, 528, 68, 53322, 182, 35942]


def noisy_3x3x3():
    """Tensors of 1-3 terms plus noise that leaves their fits just under
    the rank search's threshold."""
    return [
        cp_compose(random_model(seed, (3, 3, 3), 1 + seed % 3))
        + np.random.default_rng(seed).normal(0.0, 8e-4, size=(3, 3, 3))
        for seed in range(6)
    ]


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
        lo, grads = cp_loss_and_grads(model, task2d)
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
        task = CompletionTask(shape=dims, observations=obs)
        model = random_model(seed + 1, dims, terms)
        lo, grads = cp_loss_and_grads(model, task)
        lo_ref, grads_ref = gather_loss_and_grads(model.factors, task)
        assert lo == pytest.approx(lo_ref, rel=1e-12, abs=0.0)
        for g, ref in zip(grads, grads_ref):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gradients_own_their_memory(self):
        model = random_model(0, (3, 4, 5), 2)
        task = sample_observations(cp_compose(random_model(1, (3, 4, 5), 1)), 30, seed=0)
        _, grads = cp_loss_and_grads(model, task)
        assert all(g.flags.owndata and g.flags.c_contiguous for g in grads)
        for a, b in itertools.combinations([*grads, *model.factors], 2):
            assert not np.shares_memory(a, b)

    def test_shape_mismatch_rejected(self):
        model = random_model(0, (2, 2), 1)
        task = CompletionTask(shape=(3, 3), observations={(0, 0): 1.0})
        with pytest.raises(ValueError):
            cp_loss_and_grads(model, task)


ORACLE_DIMS = [(3,), (3, 4), (3, 4, 5), (3, 4, 5, 2)]


def oracle_case(dims, terms):
    """A model with signed-zero rows and a task observing half the
    entries."""
    rng = np.random.default_rng(len(dims) * 10 + terms)
    model = random_model(terms, dims, terms)
    model.factors[0][0, :] = -0.0  # signed zeros must survive
    model.factors[-1][-1, 0] = 0.0
    total = int(np.prod(dims))
    flat = rng.choice(total, size=total // 2, replace=False)
    obs = {tuple(int(i) for i in np.unravel_index(f, dims)): float(rng.normal()) for f in flat}
    return model, CompletionTask(shape=dims, observations=obs)


class TestBitwiseOracle:
    """The row-layout Khatri-Rao product, transpose unfoldings and
    train_cp's single factor buffer give the bits of the column-layout,
    moveaxis, per-mode-array code they replaced for compose, the loss,
    mode 0's gradient and ALS.  The gradients of modes >= 1 come from one
    partial MTTKRP shared between the modes: bitwise the written-out
    shared oracle, and within 1e-12 of the old per-mode MTTKRP."""

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_khatri_rao_is_the_old_transpose(self, dims):
        # same bits (signed zeros included) and the same memory layout:
        # the old product's transpose was C-contiguous
        mats = list(random_model(len(dims), dims, 3).factors)
        mats[0][1, :] = -0.0
        for k in range(len(mats) + 1):
            kr, ref = tenfac._khatri_rao(mats[:k], 3), old_khatri_rao(mats[:k], 3).T
            assert same_bits(kr, ref)
            assert kr.flags.c_contiguous and ref.flags.c_contiguous

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    @pytest.mark.parametrize("terms", [1, 3, 5])
    def test_compose_and_loss_and_grads(self, dims, terms):
        model, task = oracle_case(dims, terms)
        assert same_bits(cp_compose(model), old_compose(model.factors))
        lo, grads = cp_loss_and_grads(model, task)
        lo_ref, grads_ref = old_loss_and_grads(model.factors, task)
        assert same_bits(lo, lo_ref)
        assert len(grads) == len(grads_ref)
        assert same_bits(grads[0], grads_ref[0])
        # the shared partial MTTKRP sums modes >= 1 in another order: each
        # gradient within 1e-12 of its largest entry (an all-zero one
        # exactly)
        for g, ref in zip(grads[1:], grads_ref[1:]):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    @pytest.mark.parametrize("terms", [1, 3, 5])
    def test_gradients_are_the_shared_oracle(self, dims, terms):
        model, task = oracle_case(dims, terms)
        lo, grads = cp_loss_and_grads(model, task)
        lo_ref, grads_ref = shared_loss_and_grads(model.factors, task)
        assert same_bits(lo, lo_ref)
        assert len(grads) == len(grads_ref)
        assert all(same_bits(g, ref) for g, ref in zip(grads, grads_ref))

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    def test_als_fit(self, dims):
        t = np.random.default_rng(len(dims)).normal(size=dims)
        for terms in (1, 2, 4):
            model, mse = als_fit(t, terms, threshold=0.0, max_sweeps=15, seed=terms)
            best, best_mse = old_als_fit(t, terms, threshold=0.0, max_sweeps=15, seed=terms)
            assert same_bits(mse, best_mse)
            assert all(same_bits(f, ref) for f, ref in zip(model.factors, best))

    @pytest.mark.parametrize("dims, terms", [((3, 4, 5), 4), ((2, 3, 4, 2), 5)], ids=str)
    def test_train_cp_on_unequal_dims(self, dims, terms):
        # unequal per-mode slices of the flat buffers: an offset mistake
        # would move entries between modes; 250 steps, capped unconverged
        task = sample_observations(gen_ground_truth(dims, 2, seed=1), int(np.prod(dims)) // 2, seed=2)
        result = train_cp(task, terms, 1e-1, 3, mse_threshold=0.0, max_iters=250)
        it, trajectory, factors = oracle_train_cp(task, terms, 1e-1, 3, mse_threshold=0.0, max_iters=250)
        assert not result.converged and result.iterations == it == 250
        assert same_bits(list(zip(*result.trajectory.values())), trajectory)
        assert all(same_bits(f, ref) for f, ref in zip(result.model.factors, factors))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_cp_on_perfbench_config(self, seed):
        # the benchmark's tenfac-sweep cell: 8x8x8, rank 2, 400 observations, init 1e-2
        task = sample_observations(gen_ground_truth((8, 8, 8), 2, seed=0), 400, seed=1)
        result = train_cp(task, default_terms((8, 8, 8)), 1e-2, seed)
        it, trajectory, factors = oracle_train_cp(task, default_terms((8, 8, 8)), 1e-2, seed)
        assert result.converged and result.iterations == it > 100
        assert same_bits(list(zip(*result.trajectory.values())), trajectory)
        assert all(same_bits(f, ref) for f, ref in zip(result.model.factors, factors))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perfbench_sweep_keeps_the_old_trainers_outcome(seed, tmp_path):
    # the benchmark's tenfac-sweep config at workload seed ``seed``, end to
    # end through the harness: each cell takes the old per-mode MTTKRP
    # trainer's iterations and estimated rank, with its recon_error
    # within 1e-12 relative
    cfg = harness.TenfacSweepConfig(
        dims=(8, 8, 8),
        gt_rank=2,
        gt_seed=0,
        obs_seed=seed + 1,
        n_obs=(400,),
        init_stds=(1e-2,),
        seeds=(seed, seed + 1, seed + 2),
        mse_threshold=1e-6,
        max_iters=1_000_000,
        baseline=True,
        baseline_rank=False,
        out_dir=str(tmp_path),
    )
    with harness.run_tenfac_sweep(cfg).open() as fh:
        cells = [row for row in csv.DictReader(fh) if row["row"] == "cell" and row["method"] == "tf"]
    truth = gen_ground_truth(cfg.dims, cfg.gt_rank, cfg.gt_seed)
    task = sample_observations(truth, 400, cfg.obs_seed)
    terms = default_terms(cfg.dims)
    results = train_cp_runs(task, terms, [(1e-2, s) for s in cfg.seeds])
    assert [int(row["seed"]) for row in cells] == list(cfg.seeds)
    for run_seed, row, result in zip(cfg.seeds, cells, results):
        it, _, factors = oracle_train_cp(task, terms, 1e-2, run_seed, grads_of=old_loss_and_grads)
        learned = old_compose(factors)
        old_error = float(np.linalg.norm(learned - truth))
        assert result.iterations == it
        assert int(row["est_rank"]) == estimate_rank(learned, threshold=1e-6)
        assert float(row["recon_error"]) == pytest.approx(old_error, rel=1e-12, abs=0.0)


def assert_is_oracle_run(result, task, terms, init_std, seed, **stop):
    # one member of a stacked run against oracle_train_cp, bit for bit
    it, trajectory, factors = oracle_train_cp(task, terms, init_std, seed, **stop)
    assert result.iterations == it
    assert result.converged == (trajectory[-1][2] < stop.get("mse_threshold", 1e-6))
    assert same_bits(list(zip(*result.trajectory.values())), trajectory)
    assert len(result.model.factors) == len(factors)
    assert all(same_bits(f, ref) for f, ref in zip(result.model.factors, factors))


class TestStackedRuns:
    """train_cp_runs trains several (init_std, seed) runs on one task as
    one stacked loop; every member keeps the bits of its own run."""

    def test_perfbench_config_seeds_0_to_2(self):
        task = sample_observations(gen_ground_truth((8, 8, 8), 2, seed=0), 400, seed=1)
        terms = default_terms((8, 8, 8))
        results = train_cp_runs(task, terms, [(1e-2, seed) for seed in range(3)])
        assert [r.converged for r in results] == [True] * 3
        assert len({r.iterations for r in results}) == 3  # each run leaves the stack on its own
        for seed, result in enumerate(results):
            assert_is_oracle_run(result, task, terms, 1e-2, seed)

    @pytest.mark.parametrize("dims, terms", [((3, 4, 5), 4), ((2, 3, 4, 2), 5)], ids=str)
    def test_unequal_dims_and_mixed_runs(self, dims, terms):
        # unequal per-mode slices of every row; members converge or hit
        # the cap at different iterations, so rows leave mid-run
        task = sample_observations(gen_ground_truth(dims, 2, seed=1), int(np.prod(dims)) // 2, seed=2)
        runs = [(1e-1, 3), (1e-2, 0), (3e-1, 5), (5e-2, 4)]
        stop = {"mse_threshold": 1e-3, "max_iters": 2000}
        results = train_cp_runs(task, terms, runs, **stop)
        assert len({r.iterations for r in results}) >= 2
        for (init_std, seed), result in zip(runs, results):
            assert_is_oracle_run(result, task, terms, init_std, seed, **stop)

    @pytest.mark.parametrize("dims", [(5,), (4, 3)], ids=str)
    def test_orders_one_and_two(self, dims):
        task = sample_observations(gen_ground_truth(dims, 1, seed=1), int(np.prod(dims)) - 2, seed=2)
        runs = [(1e-1, 0), (1e-2, 1), (1.0, 2)]
        results = train_cp_runs(task, 3, runs, max_iters=3000)
        assert len({r.iterations for r in results}) == 3
        for (init_std, seed), result in zip(runs, results):
            assert_is_oracle_run(result, task, 3, init_std, seed, max_iters=3000)

    def test_diverged_member_leaves_its_siblings_alone(self):
        task = sample_observations(gen_ground_truth((3, 3, 3), 1, seed=0), 10, seed=0)
        runs = [(1e-2, 0), (1e13, 0), (1e-2, 1)]
        results = train_cp_runs(task, 3, runs)
        alone = train_cp(task, 3, 1e13, seed=0)
        for member in (results[1], alone):
            assert member.diverged and not member.converged and member.iterations == 0
            assert member.trajectory == {"iter": (), "loss": (), "mse": ()}
            assert member.model is None
        for i in (0, 2):
            assert_is_oracle_run(results[i], task, 3, *runs[i])

    def test_every_trainer_returns_one_result_type(self):
        # a matrix run and a CP run read alike: model, trajectory, iterations,
        # converged, diverged
        net = matfac.init_balanced((2, 2), 2, 1e-1, stream(0, 1))
        results = [matfac.gd_train(net, matfac.make_base_task(), matfac.TrainConfig(learning_rate=1e-2, max_iters=50))]
        task = sample_observations(gen_ground_truth((3, 3, 3), 1, seed=0), 10, seed=0)
        results.append(train_cp(task, 3, 1e-2, seed=0, max_iters=50))
        stacked = train_cp_runs(task, 3, [(1e-2, 0), (1e13, 0), (1e-2, 1)], max_iters=50)
        assert stacked[1].diverged and stacked[1].model is None
        results += stacked
        assert all(type(r) is matfac.TrainResult for r in results)
        assert [r.diverged for r in results] == [False, False, False, True, False]
        assert isinstance(results[0].model, matfac.DeepNet)
        assert all(isinstance(r.model, CpModel) for r in results[1:] if not r.diverged)
        assert all(tuple(r.trajectory) == ("iter", "loss", "mse") for r in results[1:])

    def test_member_diverging_mid_run_keeps_its_logged_samples(self):
        # seed 14's largest factor entry starts 0.2 under the blow-up limit
        # and grows by about 1e-3 a step: the member diverges at iteration
        # 182, and its trajectory ends at its last logged sample, bit for
        # bit the run capped there
        task = sample_observations(gen_ground_truth((3, 3, 3), 1, seed=0), 10, seed=0)
        largest = max(float(np.abs(sub.normal(size=(3, 3))).max()) for sub in stream(14, 7).spawn(3))
        init_std = (matfac.ENTRY_BLOWUP_LIMIT - 0.2) / largest
        runs = [(1e-2, 0), (init_std, 14), (1e-2, 1)]
        results = train_cp_runs(task, 3, runs)
        member = results[1]
        assert member.diverged and member.iterations == 182 and member.model is None
        capped = train_cp(task, 3, init_std, 14, max_iters=100)
        assert member.trajectory["iter"] == (0, 100)
        assert repr(member.trajectory) == repr(capped.trajectory)
        for i in (0, 2):
            assert_is_oracle_run(results[i], task, 3, *runs[i])

    def test_norm_over_the_limit_with_entries_under_it(self):
        # init 2e11: the factor norm (1.8e12) passes the 1e12 blow-up
        # limit and no entry does (max 4.3e11), so this member searches its
        # entries every step and trains on, beside a small-init member
        task = sample_observations(gen_ground_truth((4, 4, 4), 1, seed=0), 30, seed=0)
        runs = [(2e11, 0), (1e-2, 1)]
        results = train_cp_runs(task, 8, runs, max_iters=50)
        assert results[0].trajectory["loss"][-1] > 1e60
        for (init_std, seed), result in zip(runs, results):
            assert_is_oracle_run(result, task, 8, init_std, seed, max_iters=50)

    def test_batch_of_one_is_train_cp(self):
        task = sample_observations(gen_ground_truth((3, 4, 5), 2, seed=1), 30, seed=2)
        (result,) = train_cp_runs(task, 4, [(1e-1, 7)], mse_threshold=1e-4, max_iters=1500)
        ref = train_cp(task, 4, 1e-1, 7, mse_threshold=1e-4, max_iters=1500)
        assert (result.iterations, result.converged) == (ref.iterations, ref.converged)
        assert result.trajectory == ref.trajectory
        assert all(same_bits(f, r) for f, r in zip(result.model.factors, ref.model.factors))

    def test_members_own_their_factors(self):
        task = sample_observations(gen_ground_truth((3, 4, 5), 1, seed=0), 20, seed=0)
        results = train_cp_runs(task, 3, [(1e-2, 0), (1e-2, 1)], max_iters=50)
        arrays = [f for r in results for f in r.model.factors]
        assert all(f.flags.owndata for f in arrays)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_inputs(self):
        task = sample_observations(gen_ground_truth((3, 3), 1, seed=0), 4, seed=0)
        assert train_cp_runs(task, 2, []) == []
        with pytest.raises(ValueError, match="terms"):
            train_cp_runs(task, 0, [(1e-2, 0)])
        with pytest.raises(ValueError, match="init_std"):
            train_cp_runs(task, 2, [(1e-2, 0), (0.0, 1)])
        # no run can get below a negative or NaN threshold, so it is
        # refused, not run to max_iters
        for threshold in (-1.0, math.nan):
            with pytest.raises(ValueError, match="mse_threshold must be non-negative"):
                train_cp_runs(task, 2, [(1e-2, 0)], mse_threshold=threshold)


def layouts(f):
    """``f`` C-contiguous, Fortran-ordered and as every other row of a
    larger array."""
    wide = np.full((2 * f.shape[0], f.shape[1]), np.nan)
    wide[::2] = f
    return np.ascontiguousarray(f), np.asfortranarray(f), wide[::2]


class TestOneLayout:
    """CP computations see one memory layout: a model stores C-contiguous
    factors, whatever layout its caller hands it, and a lone set of
    factors runs as a stack of one."""

    @pytest.mark.parametrize(
        "dims, terms", [((3,), 3), ((3, 4), 3), ((3, 4, 5), 5), ((3, 4, 5, 2), 5), ((8, 8, 8), 8)], ids=str
    )
    def test_results_do_not_depend_on_the_factor_layout(self, dims, terms):
        rng = np.random.default_rng(len(dims) * 10 + terms)
        factors = [rng.normal(size=(terms, d)) for d in dims]
        if len(dims) >= 3:
            factors[0][0, :] = -0.0
        task = sample_observations(rng.normal(size=dims), int(np.prod(dims)) // 2, seed=0)
        outputs = []
        for form in zip(*(layouts(f) for f in factors)):
            model = CpModel(form)
            assert all(f.flags.c_contiguous for f in model.factors)
            composed = cp_compose(model)
            lo, grads = cp_loss_and_grads(model, task)
            outputs.append((composed.tobytes(), lo, [g.tobytes() for g in grads], estimate_rank(composed)))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
    @pytest.mark.parametrize("terms", [1, 3, 5])
    def test_stack_gives_each_member_its_lone_gradients(self, dims, terms):
        model, task = oracle_case(dims, terms)
        models = [model, random_model(7, dims, terms), random_model(8, dims, terms)]
        stack = [np.stack(fs) for fs in zip(*(m.factors for m in models))]
        grads = [np.empty_like(f) for f in stack]
        los = tenfac._loss_and_grads(stack, task, grads)
        assert len(los) == 3
        for i, model in enumerate(models):
            lo, lone = cp_loss_and_grads(model, task)
            assert same_bits(los[i], lo)
            assert all(same_bits(g[i], ref) for g, ref in zip(grads, lone))


class TestOrderOne:
    """A one-mode CP model is a sum of R vectors."""

    def test_compose_loss_and_grads(self):
        model = CpModel((np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]]),))
        assert np.array_equal(cp_compose(model), np.array([1.5, 2.0, 2.0]))
        task = CompletionTask(shape=(3,), observations={(0,): 1.0, (2,): 4.0})
        lo, grads = cp_loss_and_grads(model, task)
        resid = np.array([0.5, 0.0, -2.0])  # entry 1 is unobserved
        assert lo == pytest.approx(0.5 * float(resid @ resid), rel=1e-15)
        assert len(grads) == 1
        assert np.array_equal(grads[0], np.vstack([resid, resid]))

    def test_train_and_rank(self):
        task = CompletionTask(shape=(3,), observations={(0,): 1.0, (2,): -0.5})
        assert train_cp(task, 2, 1e-2, seed=0).converged
        assert estimate_rank(np.array([1.0, -2.0, 0.5])) == 1


class TestTrainCp:
    def test_fully_observed_rank1_reaches_threshold(self):
        truth = gen_ground_truth((8, 8, 8), 1, seed=0)
        task = full_task(truth)
        result = train_cp(task, default_terms((8, 8, 8)), 1e-3, seed=0)
        assert result.converged
        assert result.trajectory["mse"][-1] < 1e-6

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
        assert result.trajectory["mse"][-1] > 1e-6

    def test_deterministic_per_seed(self):
        truth = gen_ground_truth((4, 4), 1, seed=3)
        task = sample_observations(truth, 10, seed=1)
        a = train_cp(task, 4, 1e-2, seed=9, max_iters=500)
        b = train_cp(task, 4, 1e-2, seed=9, max_iters=500)
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.array_equal(fa, fb)

    def test_divergence_at_iteration_0(self):
        # factors drawn at scale 1e13 are past the 1e12 blow-up limit
        # before the first update, with a finite loss
        task = sample_observations(gen_ground_truth((3, 3, 3), 1, seed=0), 10, seed=0)
        result = train_cp(task, 3, 1e13, seed=0)
        assert result.diverged and result.iterations == 0 and result.model is None
        assert result.trajectory == {"iter": (), "loss": (), "mse": ()}

    def test_returned_factors_share_no_memory(self):
        task = sample_observations(gen_ground_truth((3, 4, 5), 1, seed=0), 20, seed=0)
        factors = train_cp(task, 3, 1e-2, seed=0, max_iters=50).model.factors
        for a, b in itertools.combinations(factors, 2):
            assert not np.shares_memory(a, b)
        # copies, not views that keep the training buffer alive
        assert all(f.flags.owndata for f in factors)

    def test_first_step_is_the_base_rate_along_the_gradient(self):
        # bias correction makes gamma_1 / (1 - beta) the first squared
        # gradient norm g2, so eta_1 = base / (sqrt(g2) + 1e-6)
        task = sample_observations(gen_ground_truth((4, 4), 1, seed=3), 10, seed=1)
        start = train_cp(task, 4, 1e-2, seed=9, mse_threshold=0.0, max_iters=0).model
        _, grads = cp_loss_and_grads(start, task)
        g2 = sum(float((g * g).sum()) for g in grads)
        beta = tenfac.CP_EMA_BETA
        eta_1 = tenfac.CP_BASE_LR / (math.sqrt((1.0 - beta) * g2 / (1.0 - beta)) + 1e-6)
        assert eta_1 == pytest.approx(1e-2 / (math.sqrt(g2) + 1e-6), rel=1e-15)
        stepped = train_cp(task, 4, 1e-2, seed=9, mse_threshold=0.0, max_iters=1)
        assert stepped.iterations == 1
        assert all(same_bits(f, s - eta_1 * g) for f, s, g in zip(stepped.model.factors, start.factors, grads))


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

    def test_negative_threshold_refused(self):
        # no fit gets below it (nor below a NaN): the search would end in
        # the r_max + 1 sentinel whatever the tensor's rank
        truth = gen_ground_truth((3, 3), 1, seed=10)
        for threshold in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold must be non-negative"):
                estimate_rank(truth, threshold=threshold)
            with pytest.raises(ValueError, match="threshold must be non-negative"):
                estimate_rank(np.zeros((3, 3)), threshold=threshold)

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
        # the seed-0 8x8x8 truths keep their rank, the floor skips every
        # smaller count without a fit, and one ALS run (seeded or from the
        # algebraic start, both run _als) certifies r_star
        truth = gen_ground_truth((8, 8, 8), r_star, seed=0)
        fitted = []
        als = tenfac._als

        def counting(t, factors, *args):
            fitted.append(factors[0].shape[0])
            return als(t, factors, *args)

        monkeypatch.setattr(tenfac, "_als", counting)
        assert estimate_rank(truth) == r_star
        assert fitted == [r_star]

    @pytest.mark.parametrize("terms", [1, 2, 3, 5])
    def test_generic_tensor_needs_no_seeded_restart(self, terms, monkeypatch):
        t = cp_compose(random_model(terms + 20, (8, 8, 8), terms))

        def refuse(*args, **kwargs):
            raise AssertionError("a seeded ALS restart ran")

        monkeypatch.setattr(tenfac, "als_fit", refuse)
        assert estimate_rank(t) == terms

    def test_same_estimate_as_search_from_one(self, monkeypatch):
        # the noise leaves fits just under the threshold, where each
        # unfolding's tail is near it but no single one exceeds it; the
        # reference run sees all-zero singular values, so it skips no count
        tensors = noisy_3x3x3()
        skipping = [estimate_rank(t) for t in tensors]
        monkeypatch.setattr(tenfac, "singular_values", lambda a: np.zeros(min(a.shape)))
        assert skipping == [estimate_rank(t) for t in tensors]

    @pytest.mark.parametrize("seed", STALL_SEEDS)
    def test_stalled_restarts_rescued_by_algebraic_start(self, seed, monkeypatch):
        t = cp_compose(random_model(seed, (4, 4, 4), 3))
        assert all(als_fit(t, 3, seed=a)[1] >= 1e-6 for a in range(tenfac.RANK_RESTARTS))
        assert estimate_rank(t) == 3
        monkeypatch.setattr(tenfac, "_jennrich_start", lambda t, terms: None)
        assert estimate_rank(t) > 3

    @pytest.mark.parametrize("dims", [(4, 4, 4), (3, 4, 5), (5, 3, 4), (3, 3, 2, 4)])
    @pytest.mark.parametrize("terms", [1, 2, 3])
    def test_algebraic_start_exact_on_generic_tensors(self, dims, terms):
        t = cp_compose(random_model(terms, dims, terms))
        start = tenfac._jennrich_start(t, terms)
        assert [f.shape for f in start] == [(terms, d) for d in dims]
        assert np.abs(cp_compose(CpModel(tuple(start))) - t).max() < 1e-9 * np.abs(t).max()

    def test_algebraic_fallback_checks_the_composed_fit(self):
        # a sparse 4x4x4 tensor (20 nonzeros) that no seeded restart fits
        # with 4 terms; ALS from its algebraic start diverges to factors
        # near 1e13, where the normal-equation MSE cancels to 0
        t = sample_observations(gen_ground_truth((4, 4, 4), 2, seed=0), 20, seed=1).target
        model, mse = tenfac._als(t, tenfac._jennrich_start(t, 4), 1e-6, tenfac.ALS_MAX_SWEEPS)
        assert mse < 1e-6
        assert np.abs(cp_compose(model) - t).max() > 1e-2
        assert estimate_rank(t) > 4

    def test_seeded_restart_checks_the_composed_fit(self, monkeypatch):
        # a seeded restart that diverged the same way, reporting MSE 0.0,
        # certifies no rank either
        t = sample_observations(gen_ground_truth((4, 4, 4), 2, seed=0), 20, seed=1).target
        diverged, _ = tenfac._als(t, tenfac._jennrich_start(t, 4), 1e-6, tenfac.ALS_MAX_SWEEPS)
        als = tenfac.als_fit

        def diverging(t, terms, *args, **kwargs):
            return (diverged, 0.0) if terms == 4 else als(t, terms, *args, **kwargs)

        monkeypatch.setattr(tenfac, "als_fit", diverging)
        assert estimate_rank(t) > 4

    def test_algebraic_start_needs_order_3_and_terms_within_two_largest_dims(self):
        assert tenfac._jennrich_start(np.ones((4, 4)), 1) is None
        t = cp_compose(random_model(0, (3, 4, 5), 5))
        assert tenfac._jennrich_start(t, 5) is None
        assert tenfac._jennrich_start(t, 4) is not None

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**5), st.integers(1, 3))
    def test_never_exceeds_construction_terms(self, seed, terms):
        model = random_model(seed, (4, 4, 4), terms)
        assert estimate_rank(cp_compose(model)) <= terms


class TestRankSearchOrder:
    """The rank search tries the algebraic start first; the seeded-first
    order it replaced gives the same estimate on every family the order
    could touch."""

    @staticmethod
    def assert_same_estimates(tensors):
        first = [estimate_rank(t) for t in tensors]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tenfac, "_rank_fits", seeded_first_rank_fits)
            assert first == [estimate_rank(t) for t in tensors]

    def test_stall_seeds(self):
        self.assert_same_estimates([cp_compose(random_model(s, (4, 4, 4), 3)) for s in STALL_SEEDS])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 3))
    def test_random_4x4x4_models(self, seed, terms):
        self.assert_same_estimates([cp_compose(random_model(seed, (4, 4, 4), terms))])

    def test_noisy_3x3x3(self):
        self.assert_same_estimates(noisy_3x3x3())

    def test_sparse_4x4x4_baseline(self):
        # the tensor on which ALS from the algebraic start diverges and
        # only the composed-fit check refuses it
        self.assert_same_estimates([sample_observations(gen_ground_truth((4, 4, 4), 2, seed=0), 20, seed=1).target])


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


# a vector, two matrices and tensors of orders 3 and 4
TASK_SHAPES = [(3,), (2, 2), (3, 4), (2, 3, 2), (2, 2, 1, 3)]


def refused(shape, observations):
    with pytest.raises(ValueError):
        CompletionTask(shape=shape, observations=observations)


class TestTaskValidation:
    """One completion task of any order: each test runs its case over
    TASK_SHAPES."""

    def test_one_observed_entry_is_a_task(self):
        for shape in TASK_SHAPES:
            task = CompletionTask(shape=shape, observations={(0,) * len(shape): 2.5})
            assert task.mask.shape == task.target.shape == shape
            assert task.mask.sum() == 1.0 and task.target.sum() == 2.5

    def test_rejects_full_observation(self):
        for shape in TASK_SHAPES:
            refused(shape, {idx: 1.0 for idx in np.ndindex(shape)})

    def test_rejects_empty_observation_set(self):
        for shape in TASK_SHAPES:
            refused(shape, {})

    def test_rejects_out_of_range_index(self):
        for shape in TASK_SHAPES:
            for n in range(len(shape)):
                for bad in (-1, shape[n]):
                    idx = [0] * len(shape)
                    idx[n] = bad
                    refused(shape, {tuple(idx): 1.0})

    def test_rejects_index_of_wrong_length(self):
        for shape in TASK_SHAPES:
            refused(shape, {(0,) * (len(shape) + 1): 1.0})
            refused(shape, {(0,) * (len(shape) - 1): 1.0})

    def test_rejects_non_finite_value(self):
        for shape, v in itertools.product(TASK_SHAPES, (math.nan, math.inf, -math.inf)):
            refused(shape, {(0,) * len(shape): v})

    def test_sample_observations_count_and_determinism(self):
        truth = gen_ground_truth((4, 4, 4), 1, seed=14)
        a = sample_observations(truth, 20, seed=3)
        b = sample_observations(truth, 20, seed=3)
        assert len(a.observations) == 20
        assert a.observations == b.observations

    @pytest.mark.parametrize("dims", [(5,), (4, 3), (3, 1, 2), (2, 3, 4, 2)], ids=str)
    def test_sample_observations_is_the_per_entry_draw(self, dims):
        # the same dict, in the same (sorted flat index) order, as indexing
        # the tensor one drawn entry at a time; -0.0 keeps its sign
        t = np.random.default_rng(len(dims)).normal(size=dims)
        t.flat[0] = -0.0
        total = t.size
        for n_obs, seed in [(1, 0), (total // 2, 1), (total - 1, 2)]:
            flat = sorted(int(f) for f in stream(seed, 17).choice(total, size=n_obs, replace=False))
            ref = [(tuple(int(i) for i in np.unravel_index(f, dims)), float(t.flat[f])) for f in flat]
            got = list(sample_observations(t, n_obs, seed).observations.items())
            assert [k for k, _ in got] == [k for k, _ in ref]
            assert same_bits([v for _, v in got], [v for _, v in ref])
            assert all(type(i) is int for k, _ in got for i in k) and all(type(v) is float for _, v in got)
