"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 pins its hyperparameters exactly (depth 2, scaled-identity
start at 1e-3, step 1e-3, loss target 1e-4 within 5e6 updates).  Under
those numbers the trajectory follows the continuous-time growth law
|w11| ~ (6 t)^(1/3) with loss ~ 1 / (2 w11^2), so hitting 1e-4 needs
|w11| ~ 70, i.e. ~5.9e7 updates; the run honestly stops at the cap
around loss 5.2e-4 and the criterion (plus the loss-1e-4 clause of
criterion 2) is reported as failing.  The same convergence criterion
passes at the paired grid rate 6e-2 (see test_matfac).
"""

import math
import time

import numpy as np
import pytest

from implreg import harness, matfac, metrics, tenfac
from implreg.linalg import SPECTRAL, svd, svd2x2_analytic
from implreg.matfac import (
    DeepNet,
    TrainConfig,
    balance_project,
    factor_gradients,
    gd_train,
    init_balanced,
    init_identity,
    init_unbalanced,
    make_base_task,
    make_extended_task,
    make_perturbed_task,
    product_matrix,
    product_ode_step,
    required_det_sign,
    resample_until_det_sign,
    unbalancedness_magnitude,
)
from implreg.rng import stream

BASE = make_base_task()
SLACK = 1e-3

NUCLEAR = 1.0
# each logged norm column and its Schatten order
NORM_SPECS = {
    "nuclear_norm": NUCLEAR,
    "frob_norm": 2.0,
    "spectral_norm": SPECTRAL,
    "schatten_half": 0.5,
}


def report(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def identity_run():
    """Criterion 1's run, reused by criteria 2 and 3: depth 2, product
    1e-3 * I, step 1e-3, the stated stopping rule."""
    cfg = TrainConfig(learning_rate=1e-3, max_iters=5_000_000, loss_threshold=1e-4, log_stride=2000)
    t0 = time.monotonic()
    result = gd_train(init_identity(2, 2, 1e-3), BASE, cfg)
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def perturbed_runs():
    """Criterion 9's three runs: balanced init at 1e-4, step 9e-3, the
    standard stopping rule with a 2e6-step horizon.  The perturbed runs
    converge (loss < 1e-4) and park the free entry near z z' / eps; the
    unperturbed run stops at the horizon, which sits inside the window
    where discretized descent still tracks the continuous dynamics
    (past roughly t ~ 2e4 the depth-3 determinant decays below float
    resolution and runs can divert off the growth branch)."""
    runs = {}
    for eps in (0.0, 0.1, 0.5):
        task = make_perturbed_task(1.0, 1.0, eps)
        rng = stream(10, 40)
        net, _ = resample_until_det_sign(
            lambda r: init_balanced((2, 2), 3, 1e-4, r), required_det_sign(task), rng
        )
        cfg = TrainConfig(learning_rate=9e-3, max_iters=2_000_000, loss_threshold=1e-4, log_stride=500)
        runs[eps] = gd_train(net, task, cfg)
    return runs


def test_criterion_01_identity_convergence(identity_run):
    result, elapsed = identity_run
    final_loss = result.trajectory["loss"][-1]
    ok = result.converged and final_loss < 1e-4
    report(
        1,
        "depth-2 identity-init convergence (lr 1e-3, cap 5e6)",
        ok,
        f"final loss {final_loss:.3e} after {result.iterations} iters, {elapsed:.0f}s; "
        f"the stated step size needs ~5.9e7 iters to reach 1e-4",
    )
    assert ok, (
        f"loss reached {final_loss:.3e}, not < 1e-4, within 5e6 iterations: at step 1e-3 the "
        "growth law |w11| ~ (6t)^(1/3) puts the 1e-4 crossing near iteration 5.9e7"
    )


def test_criterion_01_endpoint_is_pinned(identity_run):
    """Criterion 1 fails by design, so its failure alone cannot tell an
    unchanged run from one whose numbers drifted: pin where it ends."""
    result, _ = identity_run
    t = result.trajectory
    assert result.iterations == 5_000_000
    assert result.converged is False
    assert t["loss"][-1] == pytest.approx(5.22213471067067e-4, rel=1e-12)
    assert t["w11"][-1] == pytest.approx(30.91059595102826, rel=1e-12)


def test_theorem1_norm_is_tight_at_the_end_of_criterion_01(identity_run):
    """Theorem 1 bounds the nuclear norm below by a / sqrt(l) - b.  On the
    growth branch the norm follows the a / sqrt(l) term alone: at the last
    sample, nuclear * sqrt(2 l) is 1 (0.9999995 at loss 5.222e-4), and
    criterion 2's bound slack is the additive constant b."""
    t = identity_run[0].trajectory
    assert t["nuclear_norm"][-1] * math.sqrt(2.0 * t["loss"][-1]) == pytest.approx(1.0, abs=1e-3)


def test_criterion_02_norm_blowup(identity_run):
    result, _ = identity_run
    t = result.trajectory
    worst = -math.inf
    for k, loss in enumerate(t["loss"]):
        if loss >= 0.5:
            continue
        for key, p in NORM_SPECS.items():
            bound = metrics.base_task_bounds(loss, p)[0]
            worst = max(worst, bound - t[key][k])
    bounds_ok = worst <= SLACK
    at_target = [nuclear for loss, nuclear in zip(t["loss"], t["nuclear_norm"]) if loss <= 1e-4]
    nuclear_ok = bool(at_target) and at_target[0] > 60.0
    nuclear_detail = (
        f"nuclear at first loss<=1e-4 sample: {at_target[0]:.1f}"
        if at_target
        else "run never reached loss 1e-4 (criterion 1 defect)"
    )
    ok = bounds_ok and nuclear_ok
    report(
        2,
        "norm growth lower bounds along the run",
        ok,
        f"worst bound excess {worst:+.2e} (slack {SLACK}); {nuclear_detail}",
    )
    assert bounds_ok, f"a norm fell below its lower bound by {worst:.2e} (> slack {SLACK})"
    assert nuclear_ok, nuclear_detail


def test_criterion_03_rank_collapse(identity_run):
    result, _ = identity_run
    t = result.trajectory
    eranks = [erank for loss, erank in zip(t["loss"], t["erank"]) if loss < 1.0 / 32.0]
    monotone = all(b <= a + 1e-9 for a, b in zip(eranks, eranks[1:]))
    erank_excess = max(
        erank - metrics.base_task_bounds(loss, NUCLEAR)[1]
        for loss, erank in zip(t["loss"], t["erank"])
    )
    dist_excess = max(
        sigma2 - metrics.base_task_bounds(loss, NUCLEAR)[2]
        for loss, sigma2 in zip(t["loss"], t["sigma2"])
    )
    final_erank = t["erank"][-1]
    ok = monotone and erank_excess <= 0 and dist_excess <= 0 and final_erank < 1.05
    report(
        3,
        "effective-rank collapse and its upper bounds",
        ok,
        f"monotone={monotone}, worst erank excess {erank_excess:+.2e}, "
        f"worst sigma2 excess {dist_excess:+.2e}, final erank {final_erank:.4f}",
    )
    assert monotone, "effective rank increased between logged samples below loss 1/32"
    assert erank_excess <= 0, f"effective-rank bound violated by {erank_excess:.2e}"
    assert dist_excess <= 0, f"sigma2 bound violated by {dist_excess:.2e}"
    assert final_erank < 1.05


def test_criterion_04_determinant_sign_monte_carlo():
    t0 = time.monotonic()
    rows = harness.run_detsign(10_000, 3, 2, seed=0)[:2]  # the two Gaussian rows
    elapsed = time.monotonic() - t0
    ps = {r["distribution"]: r["p_det_pos"] for r in rows}
    ok = all(0.485 <= p <= 0.515 for p in ps.values()) and elapsed < 5.0
    report(
        4,
        "P(det > 0) = 1/2 for Gaussian and product-of-3",
        ok,
        f"{', '.join(f'{k}: {v:.4f}' for k, v in ps.items())}; {elapsed:.2f}s",
    )
    for name, p in ps.items():
        assert 0.485 <= p <= 0.515, f"{name}: {p}"
    assert elapsed < 5.0


def test_criterion_05_unbalancedness_conservation():
    drifts = []
    for lr in (1e-3, 5e-4):
        net = init_unbalanced((2, 2), 3, 1e-1, stream(5, 40))
        start = unbalancedness_magnitude(net)
        cfg = TrainConfig(learning_rate=lr, max_iters=100_000, loss_threshold=0.0, log_stride=500)
        result = gd_train(net, BASE, cfg)
        drifts.append(max(abs(u - start) for u in result.trajectory["unbalancedness"]))
    ratio = drifts[0] / drifts[1]
    ok = drifts[0] < 1e-3 and ratio >= 1.8
    report(
        5,
        "layer-balance defect conserved over 1e5 steps",
        ok,
        f"drift {drifts[0]:.2e} at lr 1e-3, {drifts[1]:.2e} at 5e-4 (ratio {ratio:.2f})",
    )
    assert drifts[0] < 1e-3
    assert ratio >= 1.8


def test_criterion_06_product_flow_equivalence():
    rng = stream(5, 40)
    net, _ = resample_until_det_sign(lambda r: init_balanced((2, 2), 2, 0.1, r), 1, rng)
    start = product_matrix(net)
    gaps = []
    for dt, n_steps in ((1e-4, 10_000), (5e-5, 20_000)):  # fixed total time 1.0
        w = start.copy()
        for _ in range(n_steps):
            w = product_ode_step(w, BASE, 2, dt)
        cfg = TrainConfig(learning_rate=dt, max_iters=n_steps, loss_threshold=0.0, log_stride=n_steps)
        result = gd_train(net, BASE, cfg)
        gaps.append(float(np.linalg.norm(w - product_matrix(result.model))))
    ratio = gaps[0] / gaps[1]
    ok = gaps[0] < 1e-4 and ratio >= 1.8
    report(
        6,
        "product-flow Euler vs factor descent",
        ok,
        f"gap {gaps[0]:.2e} at step 1e-4; halved step gives {gaps[1]:.2e} (ratio {ratio:.2f})",
    )
    assert gaps[0] < 1e-4
    assert ratio >= 1.8


def test_criterion_07_analytic_oracles():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(-10.0, 10.0, size=(2, 2))
        s_closed = svd2x2_analytic(m)
        s_lapack = svd(m)[1]
        worst = max(worst, abs(s_closed[0] - s_lapack[0]), abs(s_closed[1] - s_lapack[1]))
    svd_ok = worst <= 1e-10

    xs = np.arange(0.0, 10.0 + 1e-9, 0.01)
    pairs = [metrics.solution_singular_values(x) for x in xs]
    eranks = [metrics.effective_rank_of_sigmas(p) for p in pairs]
    mono_ok = (
        all(b > a for a, b in zip([p[0] for p in pairs], [p[0] for p in pairs][1:]))
        and all(b < a for a, b in zip([p[1] for p in pairs], [p[1] for p in pairs][1:]))
        and all(b < a for a, b in zip(eranks, eranks[1:]))
    )

    grid = np.arange(-3.0, 3.0 + 1e-9, 0.1).round(10).tolist()
    argmins = {key: metrics.solution_norm_argmin(p, grid) for key, p in NORM_SPECS.items()}
    scan_ok = all(v == 0.0 for v in argmins.values())

    ok = svd_ok and mono_ok and scan_ok
    report(
        7,
        "closed-form vs LAPACK SVD, solution-family monotonicity, norm-argmin scans",
        ok,
        f"max |sigma gap| {worst:.2e}; monotone={mono_ok}; argmins={argmins}",
    )
    assert svd_ok and mono_ok and scan_ok


def test_criterion_08_balancing_construction():
    rng = np.random.default_rng(88)
    worst_defect = 0.0
    bound_ok = True
    for _ in range(100):
        net = DeepNet(tuple(rng.normal(size=(3, 3)) for _ in range(3)))
        eps = unbalancedness_magnitude(net)
        out = balance_project(net)
        worst_defect = max(worst_defect, unbalancedness_magnitude(out))
        for l, (a, b) in enumerate(zip(net.factors, out.factors)):
            if float(np.linalg.norm(a - b)) > l * math.sqrt(eps) + 1e-9:
                bound_ok = False
    ok = worst_defect <= 1e-10 and bound_ok
    report(
        8,
        "exact re-balancing on 100 random depth-3 nets",
        ok,
        f"worst residual defect {worst_defect:.2e}; distance bound held={bound_ok}",
    )
    assert worst_defect <= 1e-10
    assert bound_ok


def test_criterion_09_perturbation_robustness(perturbed_runs):
    worst = -math.inf
    for eps, result in perturbed_runs.items():
        t = result.trajectory
        for k, loss in enumerate(t["loss"]):
            for key, p in NORM_SPECS.items():
                nb, eub, dub = metrics.perturbed_task_bounds(loss, 1.0, 1.0, eps, p)
                worst = max(worst, nb - t[key][k])
            worst = max(worst, t["erank"][k] - eub)
            worst = max(worst, t["sigma2"][k] - dub)
    bounds_ok = worst <= SLACK
    terminal = {eps: abs(r.trajectory["w11"][-1]) for eps, r in perturbed_runs.items()}
    ordered = terminal[0.0] > terminal[0.1] > terminal[0.5]
    ok = bounds_ok and ordered
    report(
        9,
        "perturbed-task bounds and terminal-entry ordering",
        ok,
        f"worst bound excess {worst:+.2e}; terminal |w11| "
        + ", ".join(f"eps={e}: {v:.2f}" for e, v in sorted(terminal.items())),
    )
    assert bounds_ok, f"a perturbed-task bound was violated by {worst:.2e} (> slack {SLACK})"
    assert ordered, f"terminal |w11| not decreasing in eps: {terminal}"


def test_criterion_10_tensor_completion():
    t0 = time.monotonic()
    truth1 = tenfac.gen_ground_truth((8, 8, 8), 1, seed=0)
    task300 = tenfac.sample_observations(truth1, 300, seed=1)

    def run_batch(task, truth, init_std, rank=True):
        errs, ranks = [], []
        for result in tenfac.train_cp_runs(task, 64, [(init_std, seed) for seed in range(5)]):
            if isinstance(result, Exception):
                raise result
            learned = tenfac.cp_compose(result.model)
            errs.append(float(np.linalg.norm(learned - truth)))
            if rank:
                ranks.append(tenfac.estimate_rank(learned))
        return float(np.median(errs)), float(np.median(ranks)) if rank else None

    err_small, rank_small = run_batch(task300, truth1, 1e-4)
    err_large, _ = run_batch(task300, truth1, 1e-1, rank=False)
    baseline = np.zeros((8, 8, 8))
    for idx, v in task300.observations.items():
        baseline[idx] = v
    err_baseline = float(np.linalg.norm(baseline - truth1))

    truth3 = tenfac.gen_ground_truth((8, 8, 8), 3, seed=0)
    task400 = tenfac.sample_observations(truth3, 400, seed=1)
    _, rank3 = run_batch(task400, truth3, 1e-4)

    elapsed = time.monotonic() - t0
    ok = (
        rank_small == 1.0
        and err_small <= 0.1
        and err_small < err_large
        and err_small < err_baseline
        and rank3 == 3.0
        and elapsed < 600.0
    )
    report(
        10,
        "implicit low-rank bias of CP completion",
        ok,
        f"rank-1 task: median rank {rank_small:g}, err {err_small:.3f} "
        f"(init 1e-1: {err_large:.3f}, zeros: {err_baseline:.3f}); "
        f"rank-3 task: median rank {rank3:g}; {elapsed:.0f}s",
    )
    assert rank_small == 1.0
    assert err_small <= 0.1
    assert err_small < err_large
    assert err_small < err_baseline
    assert rank3 == 3.0
    assert elapsed < 600.0


def test_criterion_11_gradient_correctness():
    rng = np.random.default_rng(1111)
    worst_mat = 0.0
    for _ in range(50):
        depth = int(rng.integers(1, 5))
        d, dp = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h = min(d, dp)
        dims = [dp] + [h] * (depth - 1) + [d]
        net = DeepNet(tuple(rng.normal(size=(dims[l + 1], dims[l])) for l in range(depth)))
        task = make_extended_task(d, dp)
        analytic = factor_gradients(net, task)
        for l, f in enumerate(net.factors):
            g = np.zeros_like(f)
            for idx in np.ndindex(f.shape):
                bumped = [w.copy() for w in net.factors]
                bumped[l][idx] += 1e-5
                up = matfac.loss(task, product_matrix(DeepNet(tuple(bumped))))
                bumped[l][idx] -= 2e-5
                down = matfac.loss(task, product_matrix(DeepNet(tuple(bumped))))
                g[idx] = (up - down) / 2e-5
            rel = float(np.linalg.norm(analytic[l] - g)) / max(float(np.linalg.norm(analytic[l])), 1e-12)
            worst_mat = max(worst_mat, rel)

    worst_cp = 0.0
    for _ in range(50):
        order = int(rng.integers(3, 5))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(order))
        terms = int(rng.integers(1, 4))
        model = tenfac.CpModel(tuple(rng.normal(size=(terms, d)) for d in dims))
        truth = tenfac.cp_compose(tenfac.CpModel(tuple(rng.normal(size=(1, d)) for d in dims)))
        n_obs = int(rng.integers(4, min(14, int(np.prod(dims)) - 1)))
        task = tenfac.sample_observations(truth, n_obs, seed=int(rng.integers(0, 2**31)))
        analytic = tenfac.cp_loss_and_grads(model, task)[1]
        for n, f in enumerate(model.factors):
            g = np.zeros_like(f)
            for idx in np.ndindex(f.shape):
                bumped = [x.copy() for x in model.factors]
                bumped[n][idx] += 1e-5
                up = tenfac.cp_loss_and_grads(tenfac.CpModel(tuple(bumped)), task)[0]
                bumped[n][idx] -= 2e-5
                down = tenfac.cp_loss_and_grads(tenfac.CpModel(tuple(bumped)), task)[0]
                g[idx] = (up - down) / 2e-5
            rel = float(np.linalg.norm(analytic[n] - g)) / max(float(np.linalg.norm(analytic[n])), 1e-12)
            worst_cp = max(worst_cp, rel)

    ok = worst_mat <= 1e-6 and worst_cp <= 1e-6
    report(
        11,
        "analytic gradients vs central differences (50 + 50 instances)",
        ok,
        f"worst relative error: matrix {worst_mat:.2e}, tensor {worst_cp:.2e}",
    )
    assert worst_mat <= 1e-6
    assert worst_cp <= 1e-6


def test_criterion_12_extended_dimensions():
    firsts = {}
    for shape in ((3, 3), (3, 4)):
        task = make_extended_task(*shape)
        rng = stream(12, 40)
        net, _ = resample_until_det_sign(
            lambda r: init_unbalanced(shape, 3, 1e-3, r), required_det_sign(task), rng
        )
        cfg = TrainConfig(learning_rate=3e-2, max_iters=3_000_000, loss_threshold=1e-4, log_stride=500)
        result = gd_train(net, task, cfg)
        first = {}
        for loss, w11 in zip(result.trajectory["loss"], result.trajectory["w11"]):
            for dec in (1e-1, 1e-3):
                if loss <= dec and dec not in first:
                    first[dec] = abs(w11)
        firsts[shape] = first
    ok = all(f[1e-3] > f[1e-1] for f in firsts.values())
    report(
        12,
        "free-entry growth on 3x3 and 3x4 tasks",
        ok,
        "; ".join(
            f"{a}x{b}: |w11| {f[1e-1]:.2f} at loss 1e-1 -> {f[1e-3]:.2f} at 1e-3"
            for (a, b), f in firsts.items()
        ),
    )
    for shape, f in firsts.items():
        assert f[1e-3] > f[1e-1], f"{shape}: {f}"
