"""Tensor completion by CP factorization.

A CP model writes an order-N tensor as a sum of R rank-one terms, one
vector per mode per term.  Training minimizes half the squared residual
over observed entries by gradient descent with an adaptive step size:
eta_t = CP_BASE_LR / (sqrt(gamma_t / (1 - CP_EMA_BETA^t)) + 1e-6),
gamma the exponential moving average (weight CP_EMA_BETA = 0.99) of
the total squared gradient norm and CP_BASE_LR = 1e-2; only the step
length adapts, never the direction.  Runs on one task train as one
stack (:func:`train_cp_runs`): each run is a row of one factor buffer,
and every stacked operation gives each row the bits of its own run, so
a run's result does not depend on its batch.  Rank estimation follows
the standard recipe: the smallest R for which alternating least squares
fits a fully known tensor below an MSE threshold, every fit checked on
the tensor its model composes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import as_tensor, outer_product, singular_values
from .matfac import CompletionTask, ENTRY_BLOWUP_LIMIT, TrainResult
from .rng import stream

__all__ = [
    "CpModel",
    "GenerationError",
    "cp_compose",
    "cp_loss_and_grads",
    "train_cp",
    "train_cp_runs",
    "als_fit",
    "estimate_rank",
    "gen_ground_truth",
    "sample_observations",
    "default_terms",
]


# iterations between logged training samples
CP_LOG_STRIDE = 100
# base rate and EMA weight of train_cp's adaptive step size
CP_BASE_LR = 1e-2
CP_EMA_BETA = 0.99
# Tikhonov weight (relative to the Gram trace) of ALS's fallback solve
ALS_RIDGE = 1e-12
# sweeps per ALS run unless the caller sets them
ALS_MAX_SWEEPS = 500
# independently seeded ALS runs per candidate term count
RANK_RESTARTS = 3
# draws a ground truth may take to reach its estimated rank
REGEN_CAP = 20


class GenerationError(RuntimeError):
    """Ground-truth generation exhausted its regeneration budget."""


@dataclass(frozen=True)
class CpModel:
    """Per-mode factor matrices of shape (R, d_n); row r of mode n is the
    vector w_r^(n).  Stored C-contiguous, whatever layout the caller
    hands in: the last bits of a matmul depend on its operands' layout."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = tuple(np.ascontiguousarray(f, dtype=float) for f in self.factors)
        if not fs:
            raise ValueError("a CP model needs at least one mode")
        for f in fs:
            if f.ndim != 2:
                raise ValueError("each mode factor must be a 2-D (terms x dim) array")
            if not np.all(np.isfinite(f)):
                raise ValueError("factor entries must be finite")
            if f.shape[0] != fs[0].shape[0]:
                raise ValueError("all modes must share the same number of terms")
        if fs[0].shape[0] < 1:
            raise ValueError("the model needs at least one term")
        object.__setattr__(self, "factors", fs)

    @property
    def terms(self) -> int:
        return self.factors[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.factors)


def default_terms(dims: Sequence[int]) -> int:
    """Number of terms sufficient to express any tensor of the given
    dims: prod(dims) / max(dims)."""
    dims = tuple(int(d) for d in dims)
    return int(np.prod(dims)) // max(dims)


def cp_compose(model: CpModel) -> np.ndarray:
    """Dense tensor of the model: sum of the per-term outer products."""
    stack = [f[None] for f in model.factors]
    return (stack[0].swapaxes(1, 2) @ _khatri_rao(stack[1:], model.terms)).reshape(model.dims)


def _khatri_rao(mats: Sequence[np.ndarray], terms: int) -> np.ndarray:
    # row-wise Kronecker over modes in C order; mats are (..., terms, d_n),
    # a stack of runs (runs, terms, d_n) or ALS's lone (terms, d_n), each
    # output slice a C-contiguous (terms, prod d_n); a ones column for no
    # modes.  Matmuls must see this layout: the same values copied to
    # another layout can take a different BLAS path and change the last
    # bits.  The compose and mode 0 matmuls take the product of modes
    # 1..N-1 as it is; the gradient of mode n >= 1 takes the products of
    # the modes left and right of n as per-term rows (..., terms, 1, k)
    # and columns (..., terms, k, 1), views of this layout.
    if not mats:
        return np.ones((terms, 1))
    out = mats[0]
    for m in mats[1:]:
        out = (out[..., None] * m[..., None, :]).reshape(m.shape[:-1] + (-1,))
    return out


def _unfold(t: np.ndarray, n: int) -> np.ndarray:
    # mode-n unfolding (d_n, prod of the other dims), other modes in C order
    return np.moveaxis(t, n, 0).reshape(t.shape[n], -1)


def _loss_and_grads(factors, task: CompletionTask, out):
    # masked CP gradient, E = mask * X - target, with one partial MTTKRP
    # shared between the modes (Phan, Tichavsky & Cichocki 2013), on a
    # stack of runs: factors and out[n] are (runs, terms, d_n), each run's
    # slice C-contiguous, and a lone model is a stack of one; every run
    # gets the bits of its own stack of one.  Writes the gradients into out
    # and returns the list of losses, one per run, each a sum over that
    # run's residual alone.  The layouts the bits depend on: F_0^T (a
    # transposed view, the cheapest) @ the C-contiguous Khatri-Rao product
    # of modes 1..N-1 is unfold_0(X) in C order, so E is formed there,
    # with mask and target viewed (d_0, rest), and mode 0's gradient is
    # that product @ E^T.  M = F_0 @ E is C-contiguous (terms, d_1 * ... *
    # d_{N-1}); per term r, mode n >= 1's gradient is the left Khatri-Rao
    # row times M_r viewed (left, d_n * right), viewed (d_n, right) times
    # the right Khatri-Rao column: for order 3, M_r F_2[r] and F_1[r] M_r;
    # for order 2, M itself.
    n_modes = len(factors)
    runs, terms = factors[0].shape[:2]
    kr = _khatri_rao(factors[1:], terms)
    unfold0 = (task.shape[0], -1)
    err = (factors[0].swapaxes(1, 2) @ kr) * task.mask.reshape(unfold0) - task.target.reshape(unfold0)
    lo = [0.5 * s for s in np.add.reduce((err * err).reshape(runs, -1), axis=1).tolist()]
    np.matmul(kr, err.swapaxes(1, 2), out=out[0])
    if n_modes > 1:
        m = np.matmul(factors[0], err, out=out[1] if n_modes == 2 else None)
    for n in range(1, n_modes):
        left, right = factors[1:n], factors[n + 1 :]
        part = m
        if left:
            row = _khatri_rao(left, terms)[..., None, :]
            blocks = m.reshape(runs, terms, row.shape[-1], -1)
            part = np.matmul(row, blocks, out=None if right else out[n][..., None, :])
        if right:
            blocks = part.reshape(runs, terms, factors[n].shape[-1], -1)
            np.matmul(blocks, _khatri_rao(right, terms)[..., None], out=out[n][..., None])
    return lo


def cp_loss_and_grads(model: CpModel, task: CompletionTask):
    """Loss (half squared residual over observations) and its exact
    gradient with respect to every factor vector.

    The gradient for term r, mode n accumulates residual times the
    product of the other modes' entries over the observed tuples.
    """
    if model.dims != task.shape:
        raise ValueError(f"model dims {model.dims} do not match task shape {task.shape}")
    grads = [np.empty(f.shape) for f in model.factors]
    (lo,) = _loss_and_grads([f[None] for f in model.factors], task, [g[None] for g in grads])
    return lo, grads


def _columns(samples: list[tuple]) -> dict[str, tuple]:
    # logged (it, lo, mse) samples as the named columns of a trajectory
    return {name: tuple(s[k] for s in samples) for k, name in enumerate(("iter", "loss", "mse"))}


def train_cp(
    task: CompletionTask,
    terms: int,
    init_std: float,
    seed: int,
    mse_threshold: float = 1e-6,
    max_iters: int = 10**6,
) -> TrainResult:
    """Train a CP model on the observed entries.

    Factors start i.i.d. N(0, init_std^2) from per-mode substreams of
    ``seed``; every update moves all factors along their gradients by
    the one adaptive step size of the module docstring.  Stops when the
    mean squared error over observations (2 * loss / n_obs) falls below
    ``mse_threshold``, after ``max_iters`` updates, or as diverged on a
    non-finite loss or a factor entry beyond 1e12 (the result's
    ``model`` then None).  This is :func:`train_cp_runs` with one run.
    """
    return train_cp_runs(task, terms, [(init_std, seed)], mse_threshold, max_iters)[0]


def train_cp_runs(
    task: CompletionTask,
    terms: int,
    runs: Sequence[tuple[float, int]],
    mse_threshold: float = 1e-6,
    max_iters: int = 10**6,
) -> list[TrainResult]:
    """Train one CP model per ``(init_std, seed)`` run on the same task,
    the runs stacked into one loop that steps them all at once.

    Each run is :func:`train_cp` with its own init, step size and stop,
    and gets exactly the bits it gets alone: iterations, trajectory and
    factors.  Returns each run's :class:`TrainResult`, in run order.  A
    run that stops (converged, capped or diverged) leaves the stack and
    never stops the others.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not mse_threshold >= 0:
        raise ValueError("mse_threshold must be non-negative")
    runs = list(runs)
    if not all(init_std > 0 for init_std, _ in runs):
        raise ValueError("init_std must be positive")
    if not runs:
        return []
    n_obs = len(task.observations)
    ends = np.cumsum([terms * d for d in task.shape]).tolist()
    spans = list(zip([0, *ends[:-1]], ends))
    # row i of buf holds the factors of live[i], of gbuf their gradients,
    # laid out alike, so one max checks every factor, one square feeds the
    # per-mode gradient norms and one subtraction updates all; each mode's
    # (terms, d) slice of a row is C-contiguous
    buf = np.empty((len(runs), ends[-1]))
    for row, (init_std, seed) in zip(buf, runs):
        subs = stream(seed, 7).spawn(len(task.shape))
        for sub, (a, b), d in zip(subs, spans, task.shape):
            row[a:b] = sub.normal(0.0, init_std, size=(terms, d)).ravel()
    gbuf = np.empty_like(buf)
    live = list(range(len(runs)))
    gamma = [0.0] * len(runs)  # per live run: EMA of the squared gradient norm
    trajectories: list[list[tuple]] = [[] for _ in runs]  # per run: its logged (it, lo, mse)
    results: list = [None] * len(runs)

    def views(stack):
        # per-mode (runs, terms, d) views, a lone run a stack of one
        return [stack[:, a:b].reshape(len(stack), terms, d) for (a, b), d in zip(spans, task.shape)]

    factors, grads = views(buf), views(gbuf)
    # per live run, a bound on the Euclidean norm of its factors, carried
    # through each update by the triangle inequality with a relative slack
    # far above the rounding; no entry can pass the blow-up limit while
    # every bound is within it, and the stack's max and min are skipped
    slack = 1.0 + 1e-9
    bound = (np.sqrt(np.add.reduce(buf * buf, axis=1)) * slack).tolist()
    within = all(b <= ENTRY_BLOWUP_LIMIT for b in bound)
    it = 0
    while True:
        los = _loss_and_grads(factors, task, grads)
        # one max and min over the stack once a bound passes the limit, and
        # per run only if that fails
        diverging = not all(map(math.isfinite, los)) or (
            not within and max(float(buf.max()), -float(buf.min())) > ENTRY_BLOWUP_LIMIT
        )
        stopped = {}
        # the mse is monotone in the loss, so no run converges unless the
        # smallest loss does; a non-finite loss has set ``diverging``
        if diverging or it % CP_LOG_STRIDE == 0 or it >= max_iters or 2.0 * min(los) / n_obs < mse_threshold:
            peaks = np.maximum(buf.max(axis=1), -buf.min(axis=1)).tolist() if diverging else None
            for i, (run, lo) in enumerate(zip(live, los)):
                # train_cp's order: divergence, log, then stop
                trajectory = trajectories[run]
                if diverging and (not math.isfinite(lo) or peaks[i] > ENTRY_BLOWUP_LIMIT):
                    stopped[i] = TrainResult(None, _columns(trajectory), it, False, True)
                    continue
                mse = 2.0 * lo / n_obs
                if it % CP_LOG_STRIDE == 0:
                    trajectory.append((it, lo, mse))
                if mse < mse_threshold or it >= max_iters:
                    if trajectory[-1][0] != it:
                        trajectory.append((it, lo, mse))
                    model = CpModel(tuple(buf[i, a:b].reshape(terms, d).copy() for (a, b), d in zip(spans, task.shape)))
                    stopped[i] = TrainResult(model, _columns(trajectory), it, mse < mse_threshold, False)
        if stopped:
            for i, result in stopped.items():
                results[live[i]] = result
            keep = [i for i in range(len(live)) if i not in stopped]
            if not keep:
                return results
            live = [live[i] for i in keep]
            gamma = [gamma[i] for i in keep]
            bound = [bound[i] for i in keep]
            # fresh stacks of the runs that go on
            buf, gbuf = buf[keep], gbuf[keep]
            factors, grads = views(buf), views(gbuf)
        # per-run scalars are Python floats: numpy's per-call cost on arrays
        # of a few entries is larger than the arithmetic
        sq = gbuf * gbuf
        mode_g2 = [np.add.reduce(sq[:, a:b], axis=1).tolist() for a, b in spans]
        bias = 1.0 - CP_EMA_BETA ** (it + 1)
        eta = []
        within = True
        for i, run_g2 in enumerate(zip(*mode_g2)):
            g2 = 0.0
            for g in run_g2:  # summed per mode, in mode order
                g2 += g
            gamma[i] = CP_EMA_BETA * gamma[i] + (1.0 - CP_EMA_BETA) * g2
            eta.append(CP_BASE_LR / (math.sqrt(gamma[i] / bias) + 1e-6))
            bound[i] = (bound[i] + eta[i] * math.sqrt(g2)) * slack
            within = within and bound[i] <= ENTRY_BLOWUP_LIMIT  # False on NaN
        # the gradients are spent: scale them in place
        buf -= np.multiply(gbuf, np.array(eta)[:, None], out=gbuf)
        it += 1


# ---------------------------------------------------------------------------
# alternating least squares on fully known tensors


def als_fit(
    target,
    terms: int,
    threshold: float = 1e-6,
    max_sweeps: int = ALS_MAX_SWEEPS,
    seed: int = 0,
):
    """Alternating least squares on a fully known tensor.

    Each sweep solves the exact mode-wise least-squares problem for
    every mode in turn; stops once the full-tensor MSE drops below
    ``threshold`` or after ``max_sweeps`` sweeps, returning the best
    model seen and its MSE.  Singular normal equations fall back to a
    Tikhonov-damped solve.  A sweep's MSE comes from the last mode's
    normal equations, ||T||^2 - 2<sol, rhs> + <gram, sol sol^T>, without
    composing the tensor; on factors that diverge it can cancel to 0
    while the composed model is far from ``target``.
    """
    t = as_tensor(target)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    gen = stream(seed, 11)
    return _als(t, [gen.normal(0.0, 0.1, size=(terms, d)) for d in t.shape], threshold, max_sweeps)


def _als(t: np.ndarray, factors: list, threshold: float, max_sweeps: int):
    # the ALS sweeps of als_fit from the given (terms, d_n) factors
    terms = factors[0].shape[0]
    unfolds = [_unfold(t, n) for n in range(t.ndim)]
    norm2 = float((t * t).sum())
    diff = cp_compose(CpModel(tuple(factors))) - t
    best = [f.copy() for f in factors]
    best_mse = float((diff * diff).sum()) / t.size
    for _ in range(max_sweeps):
        for n in range(t.ndim):
            k = _khatri_rao([*factors[:n], *factors[n + 1 :]], terms)
            gram = k @ k.T
            rhs = k @ unfolds[n].T  # (R, d_n)
            try:
                sol = np.linalg.solve(gram, rhs)
                if not np.all(np.isfinite(sol)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                damped = gram + ALS_RIDGE * (np.trace(gram) + 1.0) * np.eye(terms)
                sol = np.linalg.solve(damped, rhs)
            factors[n] = sol
        # ||X - T||^2 from the last mode's solve: X_(n) = sol^T k
        sse = norm2 - 2.0 * float((sol * rhs).sum()) + float((gram * (sol @ sol.T)).sum())
        m = max(sse, 0.0) / t.size
        if m < best_mse:
            best = [f.copy() for f in factors]
            best_mse = m
        if best_mse < threshold:
            break
    return CpModel(tuple(best)), best_mse


def _jennrich_start(t: np.ndarray, terms: int):
    """Algebraic ``terms``-term start by simultaneous diagonalization
    (Leurgans, Ross & Abel 1993), or None where it does not apply.

    The two largest modes i, j are compressed to their leading ``terms``
    singular vectors, the others contracted with two random vectors:
    S_a = A_i diag(w_a) A_j^T.  The eigenvectors of S_1 S_2^+ give mode
    i's factor, one least-squares solve the per-term rest, and a rank-one
    split of each term the other factors.  Exact to rounding on a generic
    tensor of order >= 3 and CP rank ``terms`` <= min(d_i, d_j).
    """
    if t.ndim < 3:
        return None
    i, j = sorted(sorted(range(t.ndim), key=lambda n: -t.shape[n])[:2])
    if terms > min(t.shape[i], t.shape[j]):
        return None
    ui, uj = (np.linalg.svd(_unfold(t, n), full_matrices=False)[0][:, :terms] for n in (i, j))
    rest = [n for n in range(t.ndim) if n not in (i, j)]
    slab = t.transpose(i, j, *rest).reshape(t.shape[i], t.shape[j], -1)
    gen = stream(terms, 19)
    s1, s2 = (ui.T @ (slab @ gen.standard_normal(slab.shape[2])) @ uj for _ in range(2))
    vecs = np.linalg.eig(s1 @ np.linalg.pinv(s2))[1].real
    a = ui @ vecs  # (d_i, terms)
    # unfold_i(T) = a @ K^T, K the Khatri-Rao product of the other modes
    kt = np.linalg.lstsq(a, _unfold(t, i), rcond=None)[0]
    others = [d for n, d in enumerate(t.shape) if n != i]
    rows = [[] for _ in others]
    for k in range(terms):
        x = kt[k].reshape(others)
        us = [np.linalg.svd(_unfold(x, m), full_matrices=False)[0][:, 0] for m in range(x.ndim)]
        a[:, k] *= float(_khatri_rao([u[None, :] for u in us], 1)[0] @ x.ravel())
        for row, u in zip(rows, us):
            row.append(u)
    factors = [np.array(row) for row in rows]
    factors.insert(i, a.T.copy())
    return factors


def estimate_rank(target, threshold: float = 1e-6, r_max: int | None = None) -> int:
    """Smallest number of terms for which ALS fits ``target`` below the
    MSE threshold, searching upward from 1.

    The zero tensor has rank 0 by convention.  If no count up to
    ``r_max`` (default prod(dims)/max(dims)) succeeds, returns
    ``r_max + 1`` as an explicit out-of-range sentinel.  Each candidate
    gets one ALS run from :func:`_jennrich_start` where it applies, then
    ``RANK_RESTARTS`` independently seeded ALS runs, since a single ALS
    run can stall short of an attainable fit; r is accepted once any of
    them passes.  The attempts are deterministic and independent of one
    another, so their order fixes only the cost: on a generic tensor of
    rank r the algebraic start passes at once.  A fit counts only if the
    tensor its model composes has an MSE below the threshold (the MSE
    ALS reports can cancel to 0).  Counts r whose Eckart-Young floor,
    max_n sum_{i>r} sigma_i(unfold_n T)^2 / size, exceeds the threshold
    (by more than a 1e-9 relative margin) are skipped: no r-term model
    can fit below it, so the result is the same as with the fits run at
    every count.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be non-negative")
    t = as_tensor(target)
    if float(np.abs(t).max(initial=0.0)) == 0.0:
        return 0
    if r_max is None:
        r_max = default_terms(t.shape)
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    # tails[n][r] = sum_{i >= r} sigma_i(unfold_n T)^2 / size, 0-based
    tails = []
    for n in range(t.ndim):
        s2 = singular_values(_unfold(t, n)) ** 2
        tails.append(np.cumsum(s2[::-1])[::-1] / t.size)
    for r in range(1, r_max + 1):
        if max(float(tl[r]) if r < tl.size else 0.0 for tl in tails) > threshold * (1.0 + 1e-9):
            continue
        for model in _rank_fits(t, r, threshold):
            diff = cp_compose(model) - t
            if float((diff * diff).sum()) / t.size < threshold:
                return r
    return r_max + 1


def _rank_fits(t: np.ndarray, r: int, threshold: float):
    # estimate_rank's r-term ALS models, lazily: the run from the algebraic
    # start where it applies, then the seeded restarts.  Each attempt
    # depends only on (t, r) and its own stream, so the order changes how
    # much ALS runs before a fit passes, never whether one does.
    start = _jennrich_start(t, r)
    if start is not None:
        yield _als(t, start, threshold, ALS_MAX_SWEEPS)[0]
    for attempt in range(RANK_RESTARTS):
        yield als_fit(t, r, threshold=threshold, seed=attempt)[0]


def gen_ground_truth(dims: Sequence[int], r_star: int, seed: int) -> np.ndarray:
    """Unit-Frobenius tensor of estimated rank exactly ``r_star``.

    Sums ``r_star`` outer products of standard-normal vectors,
    normalizes, and redraws whenever the estimated rank falls short
    (the construction only caps the rank from above).
    """
    if r_star < 1:
        raise ValueError("r_star must be >= 1")
    dims = tuple(int(d) for d in dims)
    for attempt in range(REGEN_CAP):
        gen = stream(seed, 13, attempt)
        t = np.zeros(dims)
        for _ in range(r_star):
            t += outer_product([gen.standard_normal(d) for d in dims])
        norm = float(np.sqrt((t * t).sum()))
        if norm == 0.0:
            continue
        t /= norm
        if estimate_rank(t) == r_star:
            return t
    raise GenerationError(f"could not generate a rank-{r_star} tensor in {REGEN_CAP} attempts")


def sample_observations(truth, n_obs: int, seed: int) -> CompletionTask:
    """Uniformly sample ``n_obs`` observed entries (without replacement,
    dedicated stream) from a ground-truth tensor."""
    t = as_tensor(truth)
    total = t.size
    if not 1 <= n_obs <= total - 1:
        raise ValueError(f"n_obs must lie in [1, {total - 1}]")
    gen = stream(seed, 17)
    idx = np.unravel_index(np.sort(gen.choice(total, size=n_obs, replace=False)), t.shape)
    obs = dict(zip(zip(*(i.tolist() for i in idx)), t[idx].tolist()))
    return CompletionTask(shape=t.shape, observations=obs)
