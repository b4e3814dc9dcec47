import dataclasses
import functools
import itertools
import math
import operator
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implreg import matfac
from implreg.linalg import schatten_norm, singular_values, svd as linalg_svd, svd2x2_analytic
from implreg.matfac import (
    CompletionTask,
    DeepNet,
    TrainConfig,
    balance_project,
    factor_gradients,
    gd_train,
    init_balanced,
    init_identity,
    init_unbalanced,
    leading_minor_det,
    loss,
    make_base_task,
    make_extended_task,
    make_perturbed_task,
    product_matrix,
    product_ode_step,
    required_det_sign,
    resample_until_det_sign,
    singular_value_rates,
    unbalancedness_magnitude,
)
from implreg.metrics import effective_rank_of_sigmas
from implreg.rng import stream

BASE = make_base_task()
# the trajectory columns of a task whose one free entry is [0, 0]
COLUMNS = (
    "iter",
    "loss",
    "w11",
    "det",
    "sigma1",
    "sigma2",
    "erank",
    "nuclear_norm",
    "frob_norm",
    "spectral_norm",
    "schatten_half",
    "unbalancedness",
)


def random_net(seed, dims):
    rng = np.random.default_rng(seed)
    return DeepNet(tuple(rng.normal(size=(dims[l + 1], dims[l])) for l in range(len(dims) - 1)))


def fd_factor_gradients(net, task, step=1e-5):
    """Central finite differences of the end-to-end loss, the oracle the
    analytic gradients are checked against."""
    grads = []
    for l, f in enumerate(net.factors):
        g = np.zeros_like(f)
        for idx in np.ndindex(f.shape):
            bumped = [w.copy() for w in net.factors]
            bumped[l][idx] += step
            up = loss(task, product_matrix(DeepNet(tuple(bumped))))
            bumped[l][idx] -= 2 * step
            down = loss(task, product_matrix(DeepNet(tuple(bumped))))
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


class TestTasks:
    def test_base_equals_perturbed_specialization(self):
        assert make_perturbed_task(1.0, 1.0, 0.0).observations == BASE.observations

    def test_extended_2x2_equals_base(self):
        assert make_extended_task(2, 2).observations == BASE.observations

    def test_extended_3x3_observation_pattern(self):
        task = make_extended_task(3, 3)
        assert len(task.observations) == 8
        ones = [k for k, v in task.observations.items() if v == 1.0]
        assert sorted(ones) == [(0, 1), (1, 0), (2, 2)]
        assert task.unobserved_indices() == [(0, 0)]

    def test_perturbed_rejects_zero_adjacent(self):
        with pytest.raises(ValueError):
            make_perturbed_task(0.0, 1.0, 0.1)

    def test_perturbed_repositioned_corner(self):
        task = make_perturbed_task(2.0, 3.0, 0.5, unobserved=(1, 0))
        assert task.unobserved_indices() == [(1, 0)]
        assert task.observations[(1, 1)] == 2.0  # adjacent in the same row
        assert task.observations[(0, 0)] == 3.0
        assert task.observations[(0, 1)] == 0.5

    def test_required_det_sign(self):
        assert required_det_sign(BASE) == 1
        assert required_det_sign(make_extended_task(3, 4)) == 1
        assert required_det_sign(make_perturbed_task(-1.0, 1.0, 0.0)) == -1
        assert required_det_sign(make_perturbed_task(1.0, 1.0, 0.2, unobserved=(0, 1))) == -1

    def test_task_needs_one_unobserved(self):
        with pytest.raises(ValueError):
            CompletionTask(shape=(1, 1), observations={(0, 0): 1.0})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matrix_accessors_follow_sorted_observations(self, data):
        """The kernels' index arrays are the sorted observations, bit for
        bit; the unobserved entries are the row-major complement."""
        d, dp = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 5))
        cells = [(i, j) for i in range(d) for j in range(dp)]
        keys = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells) - 1, unique=True))
        obs = {k: data.draw(st.floats(allow_nan=False, allow_infinity=False)) for k in keys}
        task = CompletionTask(shape=(d, dp), observations=obs)
        ordered = sorted(obs)
        expected = (
            np.array([k[0] for k in ordered], dtype=np.intp),
            np.array([k[1] for k in ordered], dtype=np.intp),
            np.array([obs[k] for k in ordered], dtype=float),
        )
        for got, want in zip(task.index_arrays(), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        free = task.unobserved_indices()
        assert free == [ij for ij in cells if ij not in obs]
        assert all(type(i) is int for ij in free for i in ij)


class TestLoss:
    def test_zero_matrix_on_base_task(self):
        assert loss(BASE, np.zeros((2, 2))) == 1.0

    def test_solution_set_is_zero(self):
        for x in (-3.0, 0.0, 5.5):
            assert loss(BASE, [[x, 1.0], [1.0, 0.0]]) == 0.0

    def test_half_at_partial_fit(self):
        assert loss(BASE, [[0.0, 1.0], [1.0, 1.0]]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss(BASE, np.zeros((3, 2)))


class TestProductMatrix:
    def test_identity_factors(self):
        net = DeepNet((np.eye(2), np.eye(2), np.eye(2)))
        assert np.array_equal(product_matrix(net), np.eye(2))

    def test_single_factor(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(product_matrix(DeepNet((m,))), m)

    def test_depth2_hand_product(self):
        w1 = np.array([[1.0, 0.0], [3.0, 1.0]])
        w2 = np.array([[1.0, 2.0], [0.0, 1.0]])
        expected = np.zeros((2, 2))  # naive triple loop oracle
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += w2[i, k] * w1[k, j]
        got = product_matrix(DeepNet((w1, w2)))
        assert np.array_equal(got, expected)
        assert np.array_equal(got, [[7.0, 2.0], [3.0, 1.0]])

    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError):
            DeepNet((np.eye(2), np.ones((3, 3))))


class TestFactorGradients:
    def test_zero_residual_means_zero_gradients(self):
        net = DeepNet((np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)))
        assert loss(BASE, product_matrix(net)) == 0.0
        for g in factor_gradients(net, BASE):
            assert np.array_equal(g, np.zeros((2, 2)))

    def test_depth1_gradient_is_masked_residual(self):
        w = np.array([[0.5, 0.25], [2.0, -1.0]])
        (g,) = factor_gradients(DeepNet((w,)), BASE)
        expected = np.array([[0.0, 0.25 - 1.0], [2.0 - 1.0, -1.0]])
        assert np.allclose(g, expected, atol=1e-15)

    def test_depth3_matches_finite_differences(self):
        net = random_net(7, [2, 2, 2, 2])
        analytic = factor_gradients(net, BASE)
        numeric = fd_factor_gradients(net, BASE)
        for a, n in zip(analytic, numeric):
            denom = max(float(np.linalg.norm(a)), 1e-12)
            assert float(np.linalg.norm(a - n)) / denom <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_gradients_match_fd_random_nets(self, seed, depth):
        rng = np.random.default_rng(seed)
        d, dp = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h = min(d, dp)
        dims = [dp] + [h] * (depth - 1) + [d]
        net = random_net(seed + 1, dims)
        task = make_extended_task(d, dp)
        analytic = factor_gradients(net, task)
        numeric = fd_factor_gradients(net, task)
        for a, n in zip(analytic, numeric):
            denom = max(float(np.linalg.norm(a)), 1e-12)
            assert float(np.linalg.norm(a - n)) / denom <= 1e-6


class TestGdTrain:
    @pytest.mark.parametrize("threshold", [-1e-4, math.nan], ids=["negative", "nan"])
    def test_config_refuses_threshold_below_0_or_nan(self, threshold):
        # no loss is below either, so a run would go on to its cap
        with pytest.raises(ValueError, match="loss_threshold must be non-negative"):
            TrainConfig(learning_rate=1e-2, max_iters=10, loss_threshold=threshold)

    def test_start_in_solution_set(self):
        net = DeepNet((np.array([[2.0, 1.0], [1.0, 0.0]]), np.eye(2)))
        cfg = TrainConfig(learning_rate=1e-2, max_iters=100, loss_threshold=1e-12, log_stride=10)
        result = gd_train(net, BASE, cfg)
        assert result.iterations == 0
        assert result.converged
        assert result.trajectory["loss"][-1] == 0.0
        assert np.array_equal(result.model.factors[0], net.factors[0])

    @pytest.mark.parametrize("steps", [1, 2_000, 20_000, 200_000])
    def test_depth2_identity_start_mirrors_its_factors(self, steps):
        # the base task's target and mask are symmetric, so from the
        # identity start W2 = W1^T bitwise at every step: P = W1^T W1 stays
        # positive semidefinite, and its det cannot turn negative.  At
        # depth 3 the mirror is gone by step 20,000, so this pins depth 2 only
        cfg = TrainConfig(learning_rate=1e-3, max_iters=steps, loss_threshold=0.0, log_stride=steps)
        result = gd_train(init_identity(2, 2, 1e-3), BASE, cfg)
        assert result.iterations == steps
        assert np.array_equal(result.model.factors[1], result.model.factors[0].T)

    def test_depth2_identity_converges_and_entry_grows(self):
        # scaled-identity start at the paired grid rate: the loss is
        # globally driven down and the free entry rises monotonically
        # once the loss first dips below 1/2.  The 1e-3 target keeps the
        # run short: loss 1e-4 needs flow time t ~ 5.9e4 (at criterion 1's
        # pinned step 1e-3, iteration 59,067,280, past its cap; see the
        # README)
        net = init_identity(2, 2, 1e-3)
        cfg = TrainConfig(learning_rate=6e-2, max_iters=200_000, loss_threshold=1e-3, log_stride=500)
        result = gd_train(net, BASE, cfg)
        assert result.converged
        t = result.trajectory
        assert t["loss"][-1] < 1e-3
        w11s = [abs(w11) for lo, w11 in zip(t["loss"], t["w11"]) if lo < 0.5]
        assert all(b >= a - 1e-12 for a, b in zip(w11s, w11s[1:]))

    def test_depth3_entry_larger_at_lower_loss(self):
        # balanced small init at a paired grid point: the free entry at
        # loss 1e-3 must exceed the free entry at loss 1e-1
        rng = stream(11, 1)
        net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), 3, 1e-3, r), 1, rng)
        cfg = TrainConfig(learning_rate=3e-2, max_iters=3_000_000, loss_threshold=1e-3, log_stride=200)
        result = gd_train(net, BASE, cfg)
        assert result.converged
        first_below = {}
        for lo, w11 in zip(result.trajectory["loss"], result.trajectory["w11"]):
            for dec in (1e-1, 1e-3):
                if lo <= dec and dec not in first_below:
                    first_below[dec] = abs(w11)
        assert first_below[1e-3] > first_below[1e-1]

    def test_single_step_matches_simultaneous_gradients(self):
        # one update must equal W_l - eta * grad_l with every gradient
        # taken at the same point (no sequential within-step coupling)
        net = random_net(13, [2, 2, 2, 2])
        eta = 1e-2
        grads = factor_gradients(net, BASE)
        cfg = TrainConfig(learning_rate=eta, max_iters=1, loss_threshold=0.0, log_stride=1)
        result = gd_train(net, BASE, cfg)
        for f0, g, f1 in zip(net.factors, grads, result.model.factors):
            assert np.allclose(f1, f0 - eta * g, atol=1e-15)

    def test_loss_non_increasing_at_small_rate(self):
        rng = stream(3, 1)
        net = init_unbalanced((2, 2), 3, 1e-1, rng)
        cfg = TrainConfig(learning_rate=1e-3, max_iters=30_000, loss_threshold=0.0, log_stride=100)
        result = gd_train(net, BASE, cfg)
        losses = result.trajectory["loss"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_decade_crossings_are_logged(self):
        net = init_identity(2, 2, 1e-1)
        cfg = TrainConfig(learning_rate=6e-2, max_iters=2_000_000, loss_threshold=1e-4, log_stride=10**9)
        result = gd_train(net, BASE, cfg)
        # stride never fires, yet every decade between start and stop
        # shows up through crossing-triggered samples
        decades = {math.floor(math.log10(lo)) for lo in result.trajectory["loss"] if lo > 0}
        assert {-1, -2, -3, -4} <= decades

    @staticmethod
    def assert_ends_at_last_finite_sample(net, task, lr, diverged_at):
        # logged at every step: the trajectory holds every iteration before
        # the blow-up, bit for bit the run capped at the one before it
        cfg = TrainConfig(learning_rate=lr, max_iters=10_000, loss_threshold=0.0, log_stride=1)
        result = gd_train(net, task, cfg)
        assert result.diverged and not result.converged
        assert result.iterations == diverged_at
        assert result.trajectory["iter"] == tuple(range(diverged_at))
        assert all(map(math.isfinite, result.trajectory["loss"]))
        capped = gd_train(net, task, dataclasses.replace(cfg, max_iters=diverged_at - 1))
        _assert_bitwise_same_trajectory(result.trajectory, capped.trajectory)

    def test_divergence_returns_partial_trajectory(self):
        net = DeepNet((np.full((2, 2), 5.0), np.full((2, 2), 5.0)))
        self.assert_ends_at_last_finite_sample(net, BASE, 0.9, 2)

    def test_array_kernel_divergence_keeps_partial_trajectory(self):
        net = DeepNet((np.full((5, 6), 1.0), np.full((5, 5), 1.0)))
        assert isinstance(matfac._kernel_for(net, make_extended_task(5, 6)), matfac._ArrayKernel)
        self.assert_ends_at_last_finite_sample(net, make_extended_task(5, 6), 0.3, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "shape, depth, task",
        [
            ((2, 2), 2, BASE),
            ((2, 2), 1, BASE),
            ((3, 4), 3, make_extended_task(3, 4)),
            ((5, 6), 3, make_extended_task(5, 6)),
        ],
    )
    def test_factor_overflow_raises_divergence_without_net(self, shape, depth, task):
        # the first step overflows a factor entry: there is no finite net to
        # return, and the run ends as diverged without a warning
        net = init_balanced(shape, depth, 10.0, stream(0, 1))
        result = gd_train(net, task, TrainConfig(learning_rate=1e308, max_iters=10))
        assert result.diverged and result.iterations == 1
        assert result.model is None
        assert result.trajectory["iter"] == (0,)


def _assert_close_to_scale(actual, expected, rtol):
    """Entry-wise agreement relative to the matrix's largest entry, so
    entries passing through zero do not demand absolute agreement."""
    expected = np.asarray(expected)
    scale = float(np.abs(expected).max())
    assert float(np.abs(np.asarray(actual) - expected).max()) <= rtol * scale


def _unpack(packed, layout):
    """The matrices of a packed snapshot, one per shape of ``layout``
    (the product's, then each factor's)."""
    flat, out = np.frombuffer(packed), []
    for r, c in layout:
        out.append(flat[: r * c].reshape(r, c))
        flat = flat[r * c :]
    return out


# extended tasks with more columns than rows, as many, and more rows
# (the last factor's extra rows start cleared)
SMALL_NETS = {
    "extended3x3": ((3, 3), make_extended_task(3, 3)),
    "extended3x4": ((3, 4), make_extended_task(3, 4)),
    "extended4x3": ((4, 3), make_extended_task(4, 3)),
}


class TestStepKernels:
    """gd_train steps nets with no factor dimension above
    SCALAR_STEP_MAX_DIM on Python floats and larger ones on numpy arrays.
    The two kernels sum in different orders (and BLAS may fuse
    multiply-adds), so across kernels only a tolerance is required, and
    only before the edge of stability; a rerun of one kernel must be
    bitwise identical."""

    @pytest.mark.parametrize("det_sign", [1, -1])
    @pytest.mark.parametrize("task", [BASE, make_perturbed_task(1.0, 0.7, 0.1)], ids=["base", "perturbed"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_scalar_and_array_kernels_agree(self, depth, task, det_sign):
        rng = stream(3, depth)
        net, _ = resample_until_det_sign(lambda r: init_unbalanced((2, 2), depth, 0.1, r), det_sign, rng)
        layout = [(2, 2)] * (depth + 1)
        scalar = matfac._ScalarKernel(net.factors, task)
        array = matfac._ArrayKernel(net.factors, task)
        for step in range(10_001):
            if step % 500 == 0:
                for got, want in zip(_unpack(scalar.snapshot(), layout), _unpack(array.snapshot(), layout)):
                    _assert_close_to_scale(got, want, 1e-10)
            scalar.run_until(1e-3, step, step + 1, -math.inf, math.inf, 1, None)
            array.run_until(1e-3, step, step + 1, -math.inf, math.inf, 1, None)

    @pytest.mark.parametrize("name", SMALL_NETS)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_generated_step_agrees_with_array_kernel(self, depth, name):
        # the dense-log cell's rate from a balanced start, far from the
        # edge of stability over 1,000 steps: the kernels agree to 1e-12
        # of the largest entry of each matrix
        shape, task = SMALL_NETS[name]
        net = init_balanced(shape, depth, 0.5, stream(13, depth))
        layout = [shape] + [f.shape for f in net.factors]
        scalar = matfac._ScalarKernel(net.factors, task)
        array = matfac._ArrayKernel(net.factors, task)
        for step in range(0, 1_001, 100):
            for got, want in zip(_unpack(scalar.snapshot(), layout), _unpack(array.snapshot(), layout)):
                _assert_close_to_scale(got, want, 1e-12)
            scalar.run_until(0.03, step, step + 100, -math.inf, math.inf, 100, None)
            array.run_until(0.03, step, step + 100, -math.inf, math.inf, 100, None)

    @pytest.mark.parametrize("kernel", [matfac._ScalarKernel, matfac._ArrayKernel])
    def test_run_until_stop_at_it_only_reports(self, kernel):
        net = random_net(6, [2, 2, 2])
        k = kernel(net.factors, BASE)
        reached = k.run_until(1e-2, 0, 5, -math.inf, math.inf, 5, None)
        packed = k.snapshot()
        assert k.run_until(1e-2, 5, 5, -math.inf, math.inf, 5, None) == reached
        assert reached[0] == 5
        assert k.snapshot() == packed

    @pytest.mark.parametrize("depth", [1, 3])
    def test_array_snapshot_outlives_later_steps(self, depth):
        # at depth 1 the product is the factor itself
        task = make_extended_task(5, 6)
        net = init_unbalanced((5, 6), depth, 0.5, stream(9, depth))
        layout = [(5, 6)] + [f.shape for f in net.factors]
        k = matfac._ArrayKernel(net.factors, task)
        k.run_until(0.03, 0, 3, -math.inf, math.inf, 3, None)
        kept, state = k.snapshot(), [k.p.copy(), *(w.copy() for w in k.ws)]
        k.run_until(0.03, 3, 10, -math.inf, math.inf, 10, None)
        assert not np.array_equal(k.p, state[0])
        assert all(m.tobytes() == s.tobytes() for m, s in zip(_unpack(kept, layout), state))

    def test_kernel_chosen_by_factor_shape(self):
        # the scalar kernel up to SCALAR_STEP_MAX_DIM rows and columns
        cut = matfac.SCALAR_STEP_MAX_DIM
        scalar = [
            (random_net(1, [2, 2, 2, 2]), BASE),
            (random_net(2, [2, 3, 2]), BASE),
            (random_net(3, [4, 3, 3, 3]), make_extended_task(3, 4)),
            (random_net(4, [cut, cut, cut]), make_extended_task(cut, cut)),
            (random_net(5, [2, cut, 2]), BASE),
        ]
        array = [
            (random_net(6, [2, cut + 1, 2]), BASE),
            (random_net(7, [cut + 1, 2, 2]), make_extended_task(2, cut + 1)),
            (random_net(8, [2, 2, cut + 1]), make_extended_task(cut + 1, 2)),
        ]
        assert all(isinstance(matfac._kernel_for(net, task), matfac._ScalarKernel) for net, task in scalar)
        assert all(isinstance(matfac._kernel_for(net, task), matfac._ArrayKernel) for net, task in array)

    def test_hidden_width_3_steps_with_factor_gradients(self):
        # a 2x2 product through a width-3 hidden layer takes the scalar
        # step: the zero-keeping chain rule's bits, and W - eta *
        # factor_gradients to rounding.  Above SCALAR_STEP_MAX_DIM the
        # numpy path steps by exactly W - eta * factor_gradients
        eta, n_steps = 1e-2, 200
        cfg = TrainConfig(learning_rate=eta, max_iters=n_steps, loss_threshold=0.0, log_stride=n_steps)
        for width in (3, matfac.SCALAR_STEP_MAX_DIM + 1):
            net = random_net(2, [2, width, 2])
            result = gd_train(net, BASE, cfg)
            fs = [f.copy() for f in net.factors]
            for _ in range(n_steps):
                grads = factor_gradients(DeepNet(tuple(fs)), BASE)
                fs = [f - eta * g for f, g in zip(fs, grads)]
            if width == 3:
                _assert_bitwise_same_run(result, reference_gd_train(net, BASE, cfg))
                for got, want in zip(result.model.factors, fs):
                    _assert_close_to_scale(got, want, 1e-13)
            else:
                assert all(np.array_equal(got, want) for got, want in zip(result.model.factors, fs))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # at lr 1e100 the first step overflows in a matmul
    @pytest.mark.parametrize("lr, diverges", [(0.03, False), (1e100, True)], ids=["returns", "diverges"])
    def test_array_kernel_run_restores_errstate(self, lr, diverges):
        # gd_train turns numpy's overflow checks off only while the
        # kernel steps: the caller's settings hold again after the run,
        # and the stepping neither warns nor raises under them
        net = init_unbalanced((5, 6), 3, 0.5, stream(9, 3))
        cfg = TrainConfig(learning_rate=lr, max_iters=200, loss_threshold=0.0, log_stride=1)
        with np.errstate(over="raise", invalid="raise"):
            before = np.geterr()
            result = gd_train(net, make_extended_task(5, 6), cfg)
            if diverges:
                assert result.diverged and result.iterations == 1 and len(result.trajectory["iter"]) == 1
            else:
                assert not result.diverged and len(result.trajectory["iter"]) == 201
            assert np.geterr() == before

    @pytest.mark.parametrize(
        "dims, task",
        [([2, 2, 2, 2], BASE), ([4, 3, 3, 3], make_extended_task(3, 4)), ([6, 5, 5, 5], make_extended_task(5, 6))],
    )
    def test_rerun_is_bitwise_identical(self, dims, task):
        net = random_net(4, dims)
        net = DeepNet(tuple(0.5 * f for f in net.factors))
        cfg = TrainConfig(learning_rate=1e-2, max_iters=3_000, loss_threshold=0.0, log_stride=100)
        first, second = gd_train(net, task, cfg), gd_train(net, task, cfg)
        _assert_bitwise_same_trajectory(first.trajectory, second.trajectory)
        for a, b in zip(first.model.factors, second.model.factors):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Oracle for the event loop: the scalar step and the loop gd_train ran
# before it stepped on a generated straight-line function, with one
# forward, one update and every check at each iteration.  Matrices are
# tuples of row tuples of Python floats; every product term is kept,
# the masked residual's zeros included.


def _ref_mul(a, b):
    # each entry summed over the inner index from the left
    return tuple(tuple(functools.reduce(operator.add, map(operator.mul, row, col)) for col in zip(*b)) for row in a)


def _ref_t(a):
    return tuple(zip(*a))


def _ref_prefix_chain(fs):
    prefixes, p = [None], fs[0]
    for f in fs[1:]:
        prefixes.append(p)
        p = _ref_mul(f, p)
    return prefixes, p


def _ref_chain_gradients(fs, prefixes, g):
    grads, s = [None] * len(fs), None
    for l in range(len(fs) - 1, -1, -1):
        gl = g if s is None else _ref_mul(_ref_t(s), g)
        if prefixes[l] is not None:
            gl = _ref_mul(gl, _ref_t(prefixes[l]))
        grads[l] = gl
        if l:
            s = fs[l] if s is None else _ref_mul(s, fs[l])
    return grads


def _ref_scalar_forward(ws, observed):
    """Loss, product, max |entry| and the gradient's inputs, for
    ``observed`` ((row, col), value) pairs in row-major order."""
    prefixes, p = _ref_prefix_chain(ws)
    g, sq = [[0.0] * len(row) for row in p], 0.0
    for (i, j), v in observed:
        g[i][j] = p[i][j] - v
        sq += g[i][j] * g[i][j]
    return 0.5 * sq, p, max(abs(x) for row in p for x in row), (prefixes, g)


def _ref_scalar_update(ws, eta, state, task):
    grads = _ref_chain_gradients(ws, *state)
    return [
        tuple(tuple(wi - eta * gi for wi, gi in zip(wr, gr)) for wr, gr in zip(w, gl)) for w, gl in zip(ws, grads)
    ]


def _ref_array_forward(ws, task):
    # product_matrix and loss, on factors that may have left the finite range
    p = ws[0]
    for f in ws[1:]:
        p = f @ p
    rows, cols, vals = task.index_arrays()
    r = p[rows, cols] - vals
    return 0.5 * float(r @ r), p, float(np.abs(p).max()), None


def _ref_array_update(ws, eta, state, task):
    return [w - eta * g for w, g in zip(ws, factor_gradients(DeepNet(tuple(ws)), task))]


def reference_gd_train(net, task, cfg):
    """gd_train checking stride, decade, threshold, cap and divergence
    after every single step.  Nets up to SCALAR_STEP_MAX_DIM step on
    Python floats as above; larger ones step by W - eta *
    factor_gradients on numpy arrays, which the numpy kernel equals bit
    for bit (test_hidden_width_3_steps_with_factor_gradients).  Samples
    are built from its snapshots by matfac._samples, which TestSamples
    checks on its own."""
    shapes = [f.shape for f in net.factors]
    layout = [task.shape, *shapes]
    if max(max(shape) for shape in shapes) <= matfac.SCALAR_STEP_MAX_DIM:
        ws = [tuple(map(tuple, f.tolist())) for f in net.factors]
        rows, cols, vals = task.index_arrays()
        observed = list(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
        forward, update = (lambda ws: _ref_scalar_forward(ws, observed)), _ref_scalar_update
    else:
        ws = [f.copy() for f in net.factors]
        forward, update = (lambda ws: _ref_array_forward(ws, task)), _ref_array_update
    snapshots, it, last_decade, logged_it, converged = [], 0, None, -1, False

    def log_state(lo):
        nonlocal logged_it
        snapshots.append((it, lo, np.concatenate([np.ravel(m) for m in (p, *ws)]).tobytes()))
        logged_it = it

    def net_now():
        return DeepNet(tuple(np.reshape(w, shape) for w, shape in zip(ws, shapes)))

    while True:
        lo, p, peak, state = forward(ws)
        if not math.isfinite(lo) or peak > matfac.ENTRY_BLOWUP_LIMIT:
            return matfac.TrainResult(net_now(), matfac._samples(snapshots, task, layout), it, False, True)
        decade = math.floor(math.log10(lo)) if lo > 0 else None
        crossed = last_decade is not None and decade != last_decade
        last_decade = decade
        if it % cfg.log_stride == 0 or crossed:
            log_state(lo)
        if lo < cfg.loss_threshold:
            converged = True
            break
        if it >= cfg.max_iters:
            break
        ws = update(ws, cfg.learning_rate, state, task)
        it += 1
    if logged_it != it:
        log_state(lo)
    return matfac.TrainResult(net_now(), matfac._samples(snapshots, task, layout), it, converged, False)


LARGE_TARGET = make_perturbed_task(9e11, 1.0, 0.0)
PAST_LIMIT = make_perturbed_task(2e12, 1.0, 0.0)


def _balanced_start(task, depth, alpha):
    """The factors harness.InitSpec(kind="balanced", det_sign=None) draws
    at seed 0."""
    rng = stream(0, 1)
    net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), depth, alpha, r), required_det_sign(task), rng)
    return net.factors


def _assert_bitwise_same_trajectory(got, want):
    assert got["iter"] == want["iter"]
    # repr tells every float bit apart, including the sign of zero
    assert repr(got) == repr(want)


def _assert_bitwise_same_run(got, want):
    assert (got.iterations, got.converged, got.diverged) == (want.iterations, want.converged, want.diverged)
    _assert_bitwise_same_trajectory(got.trajectory, want.trajectory)
    assert [f.tobytes() for f in got.model.factors] == [f.tobytes() for f in want.model.factors]


class TestEventLoop:
    """The kernels step between checks, the scalar one on a generated
    straight-line function; the run must equal the step-by-step oracle
    bit for bit."""

    @pytest.mark.parametrize("det_sign", [1, -1])
    @pytest.mark.parametrize("task", [BASE, make_perturbed_task(1.0, 0.7, 0.1)], ids=["base", "perturbed"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_matches_step_by_step_loop(self, depth, task, det_sign):
        rng = stream(5, depth)
        net, _ = resample_until_det_sign(lambda r: init_unbalanced((2, 2), depth, 0.3, r), det_sign, rng)
        # a threshold stop, then a cap stop; both with stride stops and
        # decade crossings between strides
        for cfg, converged, iterations in (
            (TrainConfig(learning_rate=0.02, max_iters=20_000, loss_threshold=3e-4, log_stride=97), True, None),
            (TrainConfig(learning_rate=0.02, max_iters=1_500, loss_threshold=0.0, log_stride=700), False, 1_500),
        ):
            result = gd_train(net, task, cfg)
            _assert_bitwise_same_run(result, reference_gd_train(net, task, cfg))
            assert result.converged is converged and iterations in (None, result.iterations)
            logged = result.trajectory["iter"][:-1]
            assert any(i and i % cfg.log_stride == 0 for i in logged)
            assert any(i % cfg.log_stride for i in logged)
        # short strides: the kernel logs at every step, or at several
        # multiples of 7 inside one call, between decade crossings
        for stride in (1, 7):
            cfg = TrainConfig(learning_rate=0.02, max_iters=2_000, loss_threshold=3e-4, log_stride=stride)
            _assert_bitwise_same_run(gd_train(net, task, cfg), reference_gd_train(net, task, cfg))

    @pytest.mark.parametrize(
        "dims, task",
        [
            ([4, 3, 3, 3], make_extended_task(3, 4)),
            ([2, 3, 2], BASE),
            ([3, 1, 4], make_extended_task(4, 3)),
            ([6, 5, 5, 5], make_extended_task(5, 6)),
        ],
        ids=["extended3x4", "hidden-width-3", "hidden-width-1", "extended5x6-array"],
    )
    def test_other_shapes_match_step_by_step_loop(self, dims, task):
        # the scalar step up to SCALAR_STEP_MAX_DIM, the numpy kernel
        # above it; each against the oracle that steps the same way
        net = DeepNet(tuple(0.5 * f for f in random_net(4, dims).factors))
        above_cutoff = max(dims) > matfac.SCALAR_STEP_MAX_DIM
        assert isinstance(matfac._kernel_for(net, task), matfac._ArrayKernel) is above_cutoff
        for stride in (1, 7, 50):
            cfg = TrainConfig(learning_rate=0.02, max_iters=400, loss_threshold=0.0, log_stride=stride)
            result = gd_train(net, task, cfg)
            _assert_bitwise_same_run(result, reference_gd_train(net, task, cfg))
            assert len(result.trajectory["iter"]) > 400 // stride

    @pytest.mark.parametrize(
        "kernel, shape, depth, task, lr, max_iters",
        [
            (matfac._ScalarKernel, (2, 2), 2, make_perturbed_task(1.0, 1.0, 0.01), 1e-2, 2_000),
            (matfac._ScalarKernel, (3, 4), 3, make_extended_task(3, 4), 0.03, 1_000),
        ],
        ids=["perturbed2x2", "extended3x4"],
    )
    def test_dense_log_returns_only_at_decade_crossings(self, monkeypatch, kernel, shape, depth, task, lr, max_iters):
        # the kernel logs every step itself: gd_train calls it once to
        # report the start, once to run, and once more per decade crossing
        calls = []
        run_until = kernel.run_until

        def counting(self, *args):
            calls.append(args[1])
            return run_until(self, *args)

        monkeypatch.setattr(kernel, "run_until", counting)
        net = init_balanced(shape, depth, 1e-3, stream(0, depth))
        cfg = TrainConfig(learning_rate=lr, max_iters=max_iters, loss_threshold=0.0, log_stride=1)
        result = gd_train(net, task, cfg)
        decades = [math.floor(math.log10(lo)) for lo in result.trajectory["loss"]]
        crossings = sum(a != b for a, b in zip(decades, decades[1:]))
        assert result.iterations == max_iters and len(result.trajectory["iter"]) == max_iters + 1
        assert crossings >= 1 and len(calls) <= crossings + 2

    def test_single_observed_entry(self):
        task = CompletionTask(shape=(2, 2), observations={(1, 0): 0.5})
        net = random_net(6, [2, 2, 2, 2])
        cfg = TrainConfig(learning_rate=0.01, max_iters=3_000, loss_threshold=1e-9, log_stride=250)
        _assert_bitwise_same_run(gd_train(net, task, cfg), reference_gd_train(net, task, cfg))

    def test_start_at_zero_loss_with_zero_threshold(self):
        # loss 0 has no decade: every step goes back to the checks.  The
        # gradient is zero, so only the signs of zero entries can move
        net = DeepNet((np.array([[-1.0, -0.0], [0.0, -1.0]]), np.array([[0.0, -1.0], [-1.0, -0.0]])))
        cfg = TrainConfig(learning_rate=0.1, max_iters=50, loss_threshold=0.0, log_stride=7)
        result = gd_train(net, BASE, cfg)
        assert result.trajectory["loss"][0] == 0.0 and result.iterations == 50
        _assert_bitwise_same_run(result, reference_gd_train(net, BASE, cfg))

    @pytest.mark.parametrize(
        "factors, task, lr, log_stride",
        [
            # test_divergence_returns_partial_trajectory's run
            ((np.full((2, 2), 5.0), np.full((2, 2), 5.0)), BASE, 0.9, 1),
            # residuals scale by -2 a step, between log strides
            ((np.eye(2),), BASE, 3.0, 1_000),
            # an observed value of 9e11: every step until the blow-up
            # has a loss above the scalar kernel's lo_cap
            (_balanced_start(LARGE_TARGET, 3, 1e-3), LARGE_TARGET, 5e-13, 10),
            # the residual scales by -1.2 a step from 1: 139 steps below
            # lo_cap, then one above it before the observed entry passes 1e12
            ((np.array([[0.0, 9e11 + 1.0], [1.0, 0.0]]),), LARGE_TARGET, 2.2, 1_000),
            # an observed value past the limit: lo_cap is 0
            (_balanced_start(PAST_LIMIT, 2, 1e-3), PAST_LIMIT, 5e-13, 10),
        ],
        ids=["depth2-burst", "depth1-geometric", "observed-9e11", "observed-9e11-geometric", "observed-2e12"],
    )
    def test_divergence_matches_step_by_step_loop(self, factors, task, lr, log_stride):
        net = DeepNet(factors)
        cfg = TrainConfig(learning_rate=lr, max_iters=10_000, loss_threshold=0.0, log_stride=log_stride)
        got = gd_train(net, task, cfg)
        assert got.diverged
        # iterations, trajectory and the net at the blow-up, bit for bit
        _assert_bitwise_same_run(got, reference_gd_train(net, task, cfg))

    def test_large_observed_value_matches_step_by_step_loop(self):
        # an observed value of 9e11: the first ~50 steps have a loss above
        # lo_cap and return one by one, the rest run on in the kernel
        net = DeepNet(_balanced_start(LARGE_TARGET, 2, 1e-3))
        cfg = TrainConfig(learning_rate=5e-13, max_iters=400, loss_threshold=0.0, log_stride=7)
        result = gd_train(net, LARGE_TARGET, cfg)
        _assert_bitwise_same_run(result, reference_gd_train(net, LARGE_TARGET, cfg))
        lo_cap = matfac._ScalarKernel(net.factors, LARGE_TARGET).lo_cap
        assert result.trajectory["loss"][0] > lo_cap > result.trajectory["loss"][-1]

    def test_decade_band_agrees_with_log10(self):
        # within 64 ulps of every power of ten a loss lies in a decade's
        # band exactly when math.floor(math.log10(loss)) is that decade
        for k in range(-300, 309):
            below = above = 10.0**k
            points = [below]
            for _ in range(64):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                points += [below, above]
            for x in points:
                for decade in (k - 1, k):
                    lo, hi = matfac._decade_band(decade)
                    if decade < -300:
                        assert lo == hi
                    else:
                        assert (lo <= x < hi) == (math.floor(math.log10(x)) == decade), (x, decade)
        # 10.0**309 overflows: the top decade runs to the largest double
        assert matfac._decade_band(308)[1] == math.inf
        x = sys.float_info.max
        for _ in range(64):
            lo, hi = matfac._decade_band(308)
            assert math.floor(math.log10(x)) == 308 and lo <= x < hi
            x = math.nextafter(x, 0.0)
        # a zero loss has no decade and lies in no band
        for decade in (None, -30, 0):
            lo, hi = matfac._decade_band(decade)
            assert not lo <= 0.0 < hi

    def test_saddle_cell_returns_only_at_decade_crossings(self, monkeypatch):
        # the grid's d3 / lr 9e-4 / alpha 1e-7 cell sits at a loss near
        # 1.0, the edge of decade 0, for most of its 2,500 steps: the
        # kernel returns to gd_train only where the decade changes
        calls = []
        run_until = matfac._ScalarKernel.run_until

        def counting(self, *args):
            calls.append(args[1])
            return run_until(self, *args)

        monkeypatch.setattr(matfac._ScalarKernel, "run_until", counting)
        net = DeepNet(_balanced_start(BASE, 3, 1e-7))
        cfg = TrainConfig(learning_rate=9e-4, max_iters=2_500, loss_threshold=1e-4, log_stride=500)
        result = gd_train(net, BASE, cfg)
        decades = [math.floor(math.log10(lo)) for lo in result.trajectory["loss"]]
        crossings = sum(a != b for a, b in zip(decades, decades[1:]))
        assert result.iterations == 2_500 and crossings >= 1
        assert len(calls) <= crossings + 2


# every row-major observed-entry pattern of a 2x2 task: at least one
# entry observed and one not
PATTERNS = [obs for n in (1, 2, 3) for obs in itertools.combinations(range(4), n)]


def _generated_source(monkeypatch, shapes, observed):
    """The source of the step function, caught on its way to compile."""
    sources = []

    def catch(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(matfac, "compile", catch, raising=False)
    matfac._step_function.__wrapped__(shapes, observed)
    return sources[0]


def _flat(m):
    return tuple(x for row in m for x in row)


class TestGeneratedStep:
    """The generated step leaves out the terms of the masked residual's
    zeros, which the zero-keeping chain rule of the oracle above
    multiplies out."""

    @staticmethod
    def _runs(dims, product_shape, observed, start, vals, eta, steps):
        """The step function's and the oracle's state after ``steps``
        steps from the factors ``start`` (flat, W_1 first)."""
        shapes = tuple((dims[l + 1], dims[l]) for l in range(len(dims) - 1))
        want_ws, it = [], iter(start)
        for r, c in shapes:
            want_ws.append(tuple(tuple(next(it) for _ in range(c)) for _ in range(r)))
        cols = product_shape[1]
        pairs = [((k // cols, k % cols), v) for k, v in zip(observed, vals)]
        lo, p, _, state = _ref_scalar_forward(want_ws, pairs)
        for _ in range(steps):
            want_ws = _ref_scalar_update(want_ws, eta, state, None)
            lo, p, _, state = _ref_scalar_forward(want_ws, pairs)
        want = (steps, lo, _flat(p), tuple(x for w in want_ws for x in _flat(w)))
        got = matfac._step_function(shapes, observed)(start, vals, eta, 0, steps, -math.inf, math.inf, steps, None)
        return got, want

    def _check(self, rng, dims, product_shape, observed, steps):
        vals = tuple(rng.normal(size=len(observed)).tolist())
        size = sum(dims[l + 1] * dims[l] for l in range(len(dims) - 1))
        for _ in range(2):
            start = rng.normal(scale=0.8, size=size)
            zeros = rng.random(size) < 0.3
            # +0.0 starts: the same bits as the chain rule
            plus = tuple(np.where(zeros, 0.0, start).tolist())
            got, want = self._runs(dims, product_shape, observed, plus, vals, 0.01, steps)
            assert repr(got) == repr(want)
            # -0.0 starts: only the signs of zeros may differ
            minus = tuple(np.where(zeros, -0.0, start).tolist())
            got, want = self._runs(dims, product_shape, observed, minus, vals, 0.01, steps)
            assert got == want

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_matches_zero_keeping_chain_rule(self, depth):
        rng = np.random.default_rng(depth)
        for observed in PATTERNS:
            self._check(rng, [2] * (depth + 1), (2, 2), observed, 300)

    @pytest.mark.parametrize(
        "dims, shape",
        [
            ([3, 3], (3, 3)),
            ([4, 3, 3], (3, 4)),
            ([3, 3, 3, 4], (4, 3)),
            ([4, 3, 3, 3, 3], (3, 4)),
            ([2, 1, 2], (2, 2)),
            ([3, 1, 4], (4, 3)),
            ([2, 3, 2], (2, 2)),
            ([4, 3, 1, 3, 3], (3, 4)),
        ],
        ids=[
            "3x3-d1",
            "3x4-d2",
            "4x3-d3",
            "3x4-d4",
            "hidden-width-1",
            "4x3-hidden-width-1",
            "hidden-width-3",
            "3x4-width-1-middle",
        ],
    )
    def test_other_shapes_match_zero_keeping_chain_rule(self, dims, shape):
        # the extended task's pattern and a random one of the same size
        rng = np.random.default_rng(len(dims) * 10 + shape[0])
        size = shape[0] * shape[1]
        some = tuple(sorted(rng.choice(size, size=size // 2, replace=False).tolist()))
        for observed in (tuple(range(1, size)), some):
            self._check(rng, dims, shape, observed, 100)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_source_skips_zero_terms_and_observed_entry_checks(self, monkeypatch, depth):
        limit = re.escape(repr(matfac.ENTRY_BLOWUP_LIMIT))
        cases = [(((2, 2),) * depth, observed, 4) for observed in PATTERNS]
        cases.append((((3, 4),) + ((3, 3),) * (depth - 1), tuple(range(1, 12)), 12))
        for shapes, observed, size in cases:
            src = _generated_source(monkeypatch, shapes, observed)
            # no product term and no update "w = w - eta * 0.0" with a literal 0.0
            assert "0.0 *" not in src and "* 0.0" not in src
            product = re.search(r"return it, lo, \(((?:\w+, )+)\)", src).group(1).split(", ")[:-1]
            assert len(product) == size
            checked = re.findall(rf"-{limit} <= (\w+) <= {limit}", src)
            assert checked == [product[k] for k in range(size) if k not in observed]


# ---------------------------------------------------------------------------
# Oracle for the stacked sampler: each sample built on its own from the
# public per-matrix functions, the way gd_train built them before it
# sampled a run in one stacked pass.


def oracle_det(p):
    # leading_minor_det's rule, spelled out: the stacked path shares
    # leading_minor_det itself
    k = min(p.shape)
    sub = p[:k, :k]
    return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]) if k == 2 else float(np.linalg.det(sub))


def oracle_sample(it, lo, p, factors, task):
    """One sample's values, keyed by trajectory column in CSV order."""
    sig = singular_values(p)
    gaps = [schatten_norm(hi.T @ hi - lo_ @ lo_.T, 1.0) for lo_, hi in zip(factors, factors[1:])]
    return {
        "iter": it,
        "loss": lo,
        **{matfac.entry_column(ij): float(p[ij]) for ij in task.unobserved_indices()},
        "det": oracle_det(p),
        "sigma1": float(sig[0]),
        "sigma2": float(sig[1]),
        "erank": effective_rank_of_sigmas(sig),
        "nuclear_norm": float(sig.sum()),
        "frob_norm": float(np.sqrt((sig * sig).sum())),
        "spectral_norm": float(sig[0]),
        "schatten_half": float(np.sqrt(sig).sum() ** 2),
        "unbalancedness": max([0.0] + gaps),
    }


def oracle_trajectory(states, task):
    """The oracle's samples of ``states`` laid out as columns."""
    samples = [oracle_sample(*st, task) for st in states]
    return {name: tuple(s[name] for s in samples) for name in samples[0]}


def train_with_snapshots(monkeypatch, net, task, cfg):
    """gd_train's result and the snapshots it handed to _samples, with
    each product and factor as a numpy matrix."""
    seen, samples = [], matfac._samples

    def spy(snapshots, task_, layout):
        seen.extend(snapshots)
        return samples(snapshots, task_, layout)

    monkeypatch.setattr(matfac, "_samples", spy)
    result = gd_train(net, task, cfg)
    layout = [task.shape] + [f.shape for f in net.factors]
    states = []
    for it, lo, packed in seen:
        p, *ws = _unpack(packed, layout)
        states.append((it, lo, p, ws))
    return result, states


class TestSamples:
    """gd_train samples a run in one stacked pass; every sample must equal
    the per-sample oracle bit for bit."""

    def assert_matches_oracle(self, monkeypatch, net, task, cfg):
        result, states = train_with_snapshots(monkeypatch, net, task, cfg)
        assert result.trajectory["iter"] == tuple(it for it, *_ in states)
        # every step moves the factors: a snapshot aliasing the live
        # arrays would repeat the last state
        assert len({b"".join(w.tobytes() for w in ws) for *_, ws in states}) == len(states)
        _assert_bitwise_same_trajectory(result.trajectory, oracle_trajectory(states, task))
        return result

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_scalar_kernel(self, monkeypatch, depth):
        task = make_perturbed_task(1.0, 0.7, 0.1)
        net, _ = resample_until_det_sign(lambda r: init_unbalanced((2, 2), depth, 0.3, r), 1, stream(5, depth))
        cfg = TrainConfig(learning_rate=0.02, max_iters=600, loss_threshold=0.0, log_stride=1)
        self.assert_matches_oracle(monkeypatch, net, task, cfg)

    @pytest.mark.parametrize("shape, depth", [((3, 4), 3), ((4, 3), 2)])
    def test_scalar_kernel_extended(self, monkeypatch, shape, depth):
        net = init_unbalanced(shape, depth, 0.5, stream(7, depth))
        cfg = TrainConfig(learning_rate=0.03, max_iters=300, loss_threshold=0.0, log_stride=1)
        self.assert_matches_oracle(monkeypatch, net, make_extended_task(*shape), cfg)

    @pytest.mark.parametrize("shape, depth", [((5, 6), 3), ((6, 5), 2)])
    def test_array_kernel(self, monkeypatch, shape, depth):
        net = init_unbalanced(shape, depth, 0.5, stream(7, depth))
        cfg = TrainConfig(learning_rate=0.03, max_iters=300, loss_threshold=0.0, log_stride=1)
        self.assert_matches_oracle(monkeypatch, net, make_extended_task(*shape), cfg)

    def test_hidden_width_3(self, monkeypatch):
        cfg = TrainConfig(learning_rate=1e-2, max_iters=300, loss_threshold=0.0, log_stride=1)
        self.assert_matches_oracle(monkeypatch, random_net(2, [2, 3, 2]), BASE, cfg)

    def test_rank_deficient_product_hits_the_cutoff(self, monkeypatch):
        # a 4x3 product through a width-1 layer has rank 1: LAPACK's two
        # small values fall under the cutoff and become exact zeros
        cfg = TrainConfig(learning_rate=1e-2, max_iters=200, loss_threshold=0.0, log_stride=1)
        result = self.assert_matches_oracle(monkeypatch, random_net(8, [3, 1, 4]), make_extended_task(4, 3), cfg)
        t = result.trajectory
        assert set(t["sigma2"]) == {0.0}
        # the third value is kept in no column: exact zeros leave the
        # nuclear norm at sigma1 and the effective rank at 1.0
        assert t["nuclear_norm"] == t["sigma1"] and set(t["erank"]) == {1.0}

    def test_bitwise_check_tells_the_signs_of_zero_apart(self):
        # the rank-1 run's small singular values are exact +0.0; a copy
        # with one of them -0.0 compares equal under == but not bitwise
        cfg = TrainConfig(learning_rate=1e-2, max_iters=3, loss_threshold=0.0, log_stride=1)
        t = gd_train(random_net(8, [3, 1, 4]), make_extended_task(4, 3), cfg).trajectory
        sigma2 = t["sigma2"]
        assert math.copysign(1.0, sigma2[-1]) == 1.0 and sigma2[-1] == 0.0
        flipped = {**t, "sigma2": sigma2[:-1] + (-0.0,)}
        assert flipped == t
        _assert_bitwise_same_trajectory(t, dict(t))
        with pytest.raises(AssertionError):
            _assert_bitwise_same_trajectory(t, flipped)


class TestTrajectorySequence:
    """A trajectory is a dict of named columns."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_trajectory(self):
        # no snapshot: every column, each empty, on the closed-form 2x2
        # path and on LAPACK's (a 3x4 product, 3x3 Gram differences)
        for task, layout in ((BASE, [(2, 2)] * 3), (make_extended_task(3, 4), [(3, 4), (3, 4), (3, 3), (3, 3)])):
            empty = matfac._samples([], task, layout)
            assert list(empty) == list(COLUMNS)
            assert set(empty.values()) == {()}


class TestSamplerEdgeCases:
    @pytest.mark.parametrize(
        "task, shape", [(BASE, (2, 2)), (make_extended_task(5, 6), (5, 6))], ids=["scalar", "array"]
    )
    def test_divergence_before_the_first_sample(self, task, shape):
        # every product entry starts beyond 1e12: the run stops at
        # iteration 0 before anything is logged
        net = DeepNet((np.full(shape, 1e13),))
        cfg = TrainConfig(learning_rate=1e-2, max_iters=100, loss_threshold=0.0, log_stride=1)
        result = gd_train(net, task, cfg)
        assert result.trajectory == dict.fromkeys(COLUMNS, ())
        assert result.diverged and result.iterations == 0

    @pytest.mark.parametrize("dims, task", [([2, 2, 2], BASE), ([4, 3, 3], make_extended_task(3, 4))])
    def test_zero_product_has_no_effective_rank(self, dims, task):
        # zero factors get zero gradients, so the product stays zero
        net = DeepNet(tuple(np.zeros((dims[l + 1], dims[l])) for l in range(len(dims) - 1)))
        cfg = TrainConfig(learning_rate=1e-2, max_iters=3, loss_threshold=0.0, log_stride=1)
        with pytest.raises(ValueError, match="zero matrix"):
            gd_train(net, task, cfg)


class TestInitUnbalanced:
    def test_depth1_std_is_alpha(self):
        rng = stream(0, 2)
        draws = np.concatenate(
            [init_unbalanced((2, 2), 1, 0.5, rng).factors[0].ravel() for _ in range(2000)]
        )
        assert np.std(draws) == pytest.approx(0.5, rel=0.05)

    def test_depth2_layer_std_formula(self):
        # (alpha^2 / hidden^(L-1)) ** (1 / 2L) at alpha 1e-3, hidden 2
        expected = 0.026591479484724942
        rng = stream(1, 2)
        draws = np.concatenate(
            [f.ravel() for _ in range(4000) for f in init_unbalanced((2, 2), 2, 1e-3, rng).factors]
        )
        assert np.std(draws) == pytest.approx(expected, rel=0.02)

    def test_product_entry_std_close_to_alpha(self):
        rng = stream(2, 2)
        entries = np.concatenate(
            [product_matrix(init_unbalanced((2, 2), 3, 1e-2, rng)).ravel() for _ in range(10_000)]
        )
        assert np.std(entries) == pytest.approx(1e-2, rel=0.15)

    def test_rectangular_clears_excess(self):
        rng = stream(3, 2)
        wide = init_unbalanced((3, 5), 2, 1e-2, rng)
        assert np.array_equal(wide.factors[0][:, 3:], np.zeros((3, 2)))
        tall = init_unbalanced((5, 3), 2, 1e-2, rng)
        assert np.array_equal(tall.factors[-1][3:, :], np.zeros((2, 3)))


class TestInitBalanced:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_balance_identity_holds(self, depth):
        net = init_balanced((2, 2), depth, 1e-3, stream(4, 2))
        for lo, hi in zip(net.factors, net.factors[1:]):
            defect = hi.T @ hi - lo @ lo.T
            assert float(np.linalg.norm(defect)) <= 1e-12

    @pytest.mark.parametrize("depth", [2, 3])
    def test_singular_value_power_relation(self, depth):
        net = init_balanced((2, 2), depth, 1e-2, stream(5, 2))
        sp = svd2x2_analytic(product_matrix(net))
        for f in net.factors:
            sf = svd2x2_analytic(f)
            for i in range(2):
                assert sp[i] == pytest.approx(sf[i] ** depth, abs=1e-9)

    def test_depth1_returns_target_exactly(self):
        net = init_balanced((2, 2), 1, 1e-2, stream(6, 2))
        expected = stream(6, 2).normal(0.0, 1e-2, size=(2, 2))
        assert np.array_equal(net.factors[0], expected)

    def test_rectangular_balanced_and_cleared(self):
        net = init_balanced((3, 5), 3, 1e-2, stream(7, 2))
        assert unbalancedness_magnitude(net) <= 1e-12
        p = product_matrix(net)
        assert np.abs(p[:, 3:]).max() == 0.0
        assert np.array_equal(net.factors[0][:, 3:], np.zeros((3, 2)))


class TestInitIdentity:
    def test_alpha_one_gives_identity_factors(self):
        net = init_identity(2, 2, 1.0)
        for f in net.factors:
            assert np.array_equal(f, np.eye(2))

    def test_product_and_determinant(self):
        net = init_identity(3, 4, 0.5)
        p = product_matrix(net)
        assert np.allclose(p, 0.5 * np.eye(3), atol=1e-15)
        assert leading_minor_det(p) == pytest.approx(0.5**3)
        assert unbalancedness_magnitude(net) == 0.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            init_identity(2, 2, 1.5)
        with pytest.raises(ValueError):
            init_identity(2, 2, 0.0)


@pytest.mark.parametrize("depth", [0, -1], ids=["depth-0", "depth-negative"])
def test_initializers_refuse_depth_below_1(depth):
    # unchecked, depth 0 divides by zero and depth -1 builds a 2-factor
    # net of inverted singular values
    for make in (
        lambda: init_balanced((2, 2), depth, 1e-3, stream(0, 2)),
        lambda: init_unbalanced((2, 2), depth, 1e-3, stream(0, 2)),
        lambda: init_identity(2, depth, 1e-3),
    ):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            make()


class TestResampleDetSign:
    @staticmethod
    def gaussian_init(rng):
        return DeepNet((rng.standard_normal((2, 2)),))

    def test_identity_init_takes_one_attempt(self):
        net, attempts = resample_until_det_sign(lambda r: init_identity(2, 2, 0.5), 1, stream(0, 3))
        assert attempts == 1

    def test_mean_attempts_near_two(self):
        rng = stream(1, 3)
        attempts = [resample_until_det_sign(self.gaussian_init, 1, rng)[1] for _ in range(10_000)]
        assert 1.9 <= float(np.mean(attempts)) <= 2.1

    def test_raw_positive_det_probability_half(self):
        rng = stream(2, 3)
        dets = [leading_minor_det(self.gaussian_init(rng).factors[0]) for _ in range(10_000)]
        p = float(np.mean(np.array(dets) > 0))
        assert abs(p - 0.5) <= 0.015

    def test_cap_exceeded_raises(self):
        # identity factors never meet sign -1: every allowed draw is made
        draws = []

        def make(r):
            draws.append(r)
            return init_identity(2, 2, 0.5)

        cap = matfac.RESAMPLE_ATTEMPTS
        with pytest.raises(matfac.ResampleError, match=rf"^no draw matched determinant sign -1 in {cap} attempts$"):
            resample_until_det_sign(make, -1, stream(3, 3))
        assert len(draws) == cap

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4)])
    def test_draw_whose_det_overflows_is_refused(self, shape):
        # a det of +inf (first draw) or NaN (an overflowed product, second) tells no sign:
        # the first finite draw of the sign is taken, and numpy does not warn
        big = 1e200 * np.ones((shape[1], shape[1]))
        draws = iter([
            DeepNet((1e160 * np.eye(*shape),)),
            DeepNet((big, big, 1e200 * np.ones(shape))),
            DeepNet((np.eye(*shape),)),
        ])

        def make(r):
            return next(draws)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net, attempts = resample_until_det_sign(make, 1, stream(4, 3))
        assert attempts == 3
        assert np.array_equal(net.factors[0], np.eye(*shape))


class TestProductOde:
    def test_depth1_is_plain_gradient_step(self):
        w = np.array([[0.3, 0.2], [0.1, 0.4]])
        stepped = product_ode_step(w, BASE, 1, 0.01)
        expected = w - 0.01 * matfac.residual_gradient(BASE, w)
        assert np.allclose(stepped, expected, atol=1e-15)

    def test_solution_is_fixed_point(self):
        w = np.array([[4.0, 1.0], [1.0, 0.0]])
        for depth in (1, 2, 3):
            assert np.allclose(product_ode_step(w, BASE, depth, 0.1), w, atol=1e-12)

    def test_tracks_factor_gd_and_gap_shrinks_linearly(self):
        rng = stream(5, 3)
        net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), 2, 0.1, r), 1, rng)
        start = product_matrix(net)
        gaps = []
        for dt, n_steps in ((2e-4, 2500), (1e-4, 5000)):
            w = start.copy()
            for _ in range(n_steps):
                w = product_ode_step(w, BASE, 2, dt)
            cfg = TrainConfig(learning_rate=dt, max_iters=n_steps, loss_threshold=0.0, log_stride=n_steps)
            result = gd_train(net, BASE, cfg)
            gaps.append(float(np.linalg.norm(w - product_matrix(result.model))))
        assert gaps[1] <= gaps[0]
        assert gaps[0] / gaps[1] >= 1.8


class TestSingularValueRates:
    def test_zero_singular_values_are_stuck(self):
        w = np.diag([2.0, 0.0])
        rates = singular_value_rates(w, BASE, 3)
        assert rates[1] == 0.0

    def test_zero_gradient_zero_rates(self):
        w = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert singular_value_rates(w, BASE, 2) == [0.0, 0.0]

    def test_rates_match_finite_differences_along_flow(self):
        # integrate the product flow; the predicted rates must match
        # central differences of the singular values away from crossings
        rng = stream(6, 3)
        net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), 3, 0.3, r), 1, rng)
        w = product_matrix(net)
        dt = 1e-4
        for _ in range(2000):
            w = product_ode_step(w, BASE, 3, dt)
        s_minus = svd2x2_analytic(w)
        w_mid = product_ode_step(w, BASE, 3, dt)
        rates = singular_value_rates(w_mid, BASE, 3)
        w_plus = product_ode_step(w_mid, BASE, 3, dt)
        s_plus = svd2x2_analytic(w_plus)
        for r in range(2):
            if abs(s_plus[r] - s_minus[r]) < 1e-14:
                continue
            fd = (s_plus[r] - s_minus[r]) / (2 * dt)
            assert fd == pytest.approx(rates[r], rel=1e-2)


class TestUnbalancedness:
    def test_balanced_init_is_zero(self):
        net = init_balanced((2, 2), 3, 1e-2, stream(7, 3))
        assert unbalancedness_magnitude(net) <= 1e-12

    def test_hand_computed_example(self):
        net = DeepNet((2.0 * np.eye(2), np.eye(2)))
        assert unbalancedness_magnitude(net) == pytest.approx(6.0, abs=1e-12)

    def test_depth1_is_zero(self):
        assert unbalancedness_magnitude(DeepNet((np.ones((2, 2)),))) == 0.0

    def test_rectangular_factors_match_per_pair_nuclear_norms(self):
        fs = random_net(9, [4, 3, 3, 3]).factors
        want = max(schatten_norm(hi.T @ hi - lo @ lo.T, 1.0) for lo, hi in zip(fs, fs[1:]))
        assert unbalancedness_magnitude(DeepNet(fs)) == want

    def test_conserved_along_short_run(self):
        rng = stream(4, 3)
        net = init_unbalanced((2, 2), 3, 1e-1, rng)
        before = unbalancedness_magnitude(net)
        cfg = TrainConfig(learning_rate=1e-3, max_iters=10_000, loss_threshold=0.0, log_stride=500)
        result = gd_train(net, BASE, cfg)
        drift = max(abs(u - before) for u in result.trajectory["unbalancedness"])
        assert drift < 1e-3


class TestBalanceProject:
    def test_depth1_unchanged(self):
        net = DeepNet((np.array([[1.0, 2.0], [3.0, 4.0]]),))
        out = balance_project(net)
        assert np.array_equal(out.factors[0], net.factors[0])

    def test_balanced_input_with_distinct_sigmas_preserves_product(self):
        net = init_balanced((2, 2), 2, 0.5, stream(8, 3))
        sig = svd2x2_analytic(net.factors[0])
        assert sig[0] - sig[1] > 1e-3  # distinct singular values
        out = balance_project(net)
        assert float(np.linalg.norm(product_matrix(out) - product_matrix(net))) <= 1e-10

    def test_random_depth4_becomes_balanced(self):
        for seed in range(5):
            net = random_net(seed, [3, 3, 3, 3, 3])
            out = balance_project(net)
            assert unbalancedness_magnitude(out) <= 1e-10

    def test_distance_bound_random_depth3(self):
        for seed in range(20):
            net = random_net(100 + seed, [3, 3, 3, 3])
            eps = unbalancedness_magnitude(net)
            out = balance_project(net)
            for l, (a, b) in enumerate(zip(net.factors, out.factors)):
                assert float(np.linalg.norm(a - b)) <= l * math.sqrt(eps) + 1e-9

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            balance_project(DeepNet((np.ones((2, 3)),)))


class TestFlowContinuity:
    def test_trajectory_distance_obeys_smoothness_bound(self):
        """Two nearby starts stay within delta * exp(L R^(L-2) (2 R^L + B) t)
        of each other in factor space, B the observed-value norm."""
        depth, eta, horizon = 3, 1e-4, 1.0
        steps = int(horizon / eta)
        rng = stream(9, 3)
        target = rng.normal(0.0, 0.4, size=(2, 2))
        bump = rng.normal(size=(2, 2))
        bump *= 1e-6 / np.linalg.norm(bump)

        def factors_from(t):
            u, sigmas, v = linalg_svd(t)
            root = sigmas ** (1.0 / depth)
            return [root[:, None] * v.T, np.diag(root), u * root[None, :]]

        fa = factors_from(target)
        fb = factors_from(target + bump)
        delta0 = math.sqrt(sum(float(np.linalg.norm(a - b) ** 2) for a, b in zip(fa, fb)))
        b_norm = float(np.linalg.norm(BASE.index_arrays()[2]))
        radius = 0.0
        dist = delta0
        for _ in range(steps):
            for fs in (fa, fb):
                radius = max(radius, math.sqrt(sum(float((f * f).sum()) for f in fs)))
                grads = factor_gradients(DeepNet(tuple(fs)), BASE)
                for f, g in zip(fs, grads):
                    f -= eta * g
        dist = math.sqrt(sum(float(np.linalg.norm(a - b) ** 2) for a, b in zip(fa, fb)))
        bound = delta0 * math.exp(depth * radius ** (depth - 2) * (2 * radius**depth + b_norm) * horizon)
        assert dist <= bound


class TestDetSignPreservation:
    def test_sign_never_flips_depth3_balanced(self):
        # at depth 3 the small singular value moves polynomially, so the
        # determinant keeps a representable positive scale for the whole
        # run; at depth 2 it decays exponentially below float noise and
        # the discretized trajectory eventually diverts, so the sign is
        # only numerically meaningful at depth >= 3
        rng = stream(20, 3)
        net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), 3, 0.1, r), 1, rng)
        cfg = TrainConfig(learning_rate=1e-4, max_iters=1_000_000, loss_threshold=0.0, log_stride=1000)
        result = gd_train(net, BASE, cfg)
        assert all(det > 0 for det in result.trajectory["det"])
