"""Tensor completion by CP factorization.

A CP model writes an order-N tensor as a sum of R rank-one terms, one
vector per mode per term.  Training minimizes half the squared residual
over observed entries by gradient descent with an adaptive step size:
eta_t = CP_BASE_LR / (sqrt(gamma_t / (1 - CP_EMA_BETA^t)) + 1e-6),
gamma the exponential moving average (weight CP_EMA_BETA = 0.99) of
the total squared gradient norm and CP_BASE_LR = 1e-2; only the step
length adapts, never the direction.  Rank estimation follows the
standard recipe: the smallest R for which alternating least squares
fits a fully known tensor below an MSE threshold, every fit checked on
the tensor its model composes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import as_tensor, outer_product, singular_values
from .matfac import CompletionTask, DivergenceError, ENTRY_BLOWUP_LIMIT
from .rng import stream

__all__ = [
    "CpModel",
    "GenerationError",
    "cp_compose",
    "cp_loss_and_grads",
    "train_cp",
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
    vector w_r^(n)."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a CP model needs at least one mode")
        fs = []
        r = None
        for f in self.factors:
            arr = np.asarray(f, dtype=float)
            if arr.ndim != 2:
                raise ValueError("each mode factor must be a 2-D (terms x dim) array")
            if not np.all(np.isfinite(arr)):
                raise ValueError("factor entries must be finite")
            if r is None:
                r = arr.shape[0]
            elif arr.shape[0] != r:
                raise ValueError("all modes must share the same number of terms")
            fs.append(arr)
        if r < 1:
            raise ValueError("the model needs at least one term")
        object.__setattr__(self, "factors", tuple(fs))

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
    return (model.factors[0].T @ _khatri_rao(model.factors[1:], model.terms)).reshape(model.dims)


def _khatri_rao(mats: Sequence[np.ndarray], terms: int) -> np.ndarray:
    # row-wise Kronecker over modes in C order; mats are (terms, d_n),
    # output C-contiguous (terms, prod d_n), a ones column for no modes.
    # Matmuls must see this layout: the same values copied to another
    # layout can take a different BLAS path and change the last bits.
    if not mats:
        return np.ones((terms, 1))
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, :, None] * m[:, None, :]).reshape(terms, -1)
    return out


def _unfold(t: np.ndarray, n: int) -> np.ndarray:
    # mode-n unfolding (d_n, prod of the other dims), other modes in C order
    return t.transpose(n, *range(n), *range(n + 1, t.ndim)).reshape(t.shape[n], -1)


def _loss_and_grads(factors, task: CompletionTask):
    # masked MTTKRP: mode n's gradient is khatri_rao(other modes) @
    # unfold_n(E)^T with E = mask * X - target; mode 0 reuses the compose
    # product
    terms = factors[0].shape[0]
    kr = _khatri_rao(factors[1:], terms)
    err = (factors[0].T @ kr).reshape(task.shape) * task.mask - task.target
    lo = 0.5 * float((err * err).sum())
    grads = []
    for n in range(len(task.shape)):
        if n:
            kr = _khatri_rao([*factors[:n], *factors[n + 1 :]], terms)
        grads.append(kr @ _unfold(err, n).T)
    return lo, grads


def cp_loss_and_grads(model: CpModel, task: CompletionTask):
    """Loss (half squared residual over observations) and its exact
    gradient with respect to every factor vector.

    The gradient for term r, mode n accumulates residual times the
    product of the other modes' entries over the observed tuples.
    """
    if model.dims != task.shape:
        raise ValueError(f"model dims {model.dims} do not match task shape {task.shape}")
    return _loss_and_grads(model.factors, task)


@dataclass(frozen=True)
class CpTrainSample:
    iteration: int
    loss: float
    mse: float


@dataclass(frozen=True)
class CpTrainResult:
    model: CpModel
    trajectory: list[CpTrainSample]
    iterations: int
    converged: bool


def train_cp(
    task: CompletionTask,
    terms: int,
    init_std: float,
    seed: int,
    mse_threshold: float = 1e-6,
    max_iters: int = 10**6,
) -> CpTrainResult:
    """Train a CP model on the observed entries.

    Factors start i.i.d. N(0, init_std^2) from per-mode substreams of
    ``seed``; every update moves all factors along their gradients by
    the one adaptive step size of the module docstring.  Stops when the
    mean squared error over observations (2 * loss / n_obs) falls below
    ``mse_threshold`` or after ``max_iters`` updates.  Divergence
    (non-finite loss or factor entries beyond 1e12) raises
    :class:`DivergenceError`.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not init_std > 0:
        raise ValueError("init_std must be positive")
    n_obs = len(task.observations)
    gen = stream(seed, 7)
    subs = gen.spawn(len(task.shape))
    # the factors are views into one buffer, so one max checks them all
    flat = np.concatenate([subs[n].normal(0.0, init_std, size=(terms, d)).ravel() for n, d in enumerate(task.shape)])
    ends = np.cumsum([terms * d for d in task.shape])
    factors = [part.reshape(terms, d) for part, d in zip(np.split(flat, ends[:-1]), task.shape)]
    gamma = 0.0  # EMA of the total squared gradient norm
    trajectory: list[CpTrainSample] = []
    converged = False
    it = 0
    lo = math.inf
    mse = math.inf
    while True:
        lo, grads = _loss_and_grads(factors, task)
        mse = 2.0 * lo / n_obs
        if not math.isfinite(lo) or float(np.abs(flat).max()) > ENTRY_BLOWUP_LIMIT:
            raise DivergenceError(
                f"CP training diverged at iteration {it}",
                trajectory[-1] if trajectory else None,
                trajectory,
                None,
            )
        if it % CP_LOG_STRIDE == 0:
            trajectory.append(CpTrainSample(it, lo, mse))
        if mse < mse_threshold:
            converged = True
            break
        if it >= max_iters:
            break
        g2 = 0.0
        for g in grads:
            g2 += float((g * g).sum())
        gamma = CP_EMA_BETA * gamma + (1.0 - CP_EMA_BETA) * g2
        eta_t = CP_BASE_LR / (math.sqrt(gamma / (1.0 - CP_EMA_BETA ** (it + 1))) + 1e-6)
        for f, g in zip(factors, grads):
            f -= eta_t * g
        it += 1
    if not trajectory or trajectory[-1].iteration != it:
        trajectory.append(CpTrainSample(it, lo, mse))
    return CpTrainResult(CpModel(tuple(f.copy() for f in factors)), trajectory, it, converged)


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
    gets ``RANK_RESTARTS`` independently seeded ALS runs, since a single ALS
    run can stall short of an attainable fit; if all of them miss, one
    more ALS run starts from :func:`_jennrich_start` where it applies.
    A fit counts only if the tensor its model composes has an MSE below
    the threshold (the MSE ALS reports can cancel to 0).  Counts r whose
    Eckart-Young floor, max_n sum_{i>r} sigma_i(unfold_n T)^2 / size,
    exceeds the threshold (by more than a 1e-9 relative margin) are
    skipped: no r-term model can fit below it, so the result is the
    same as with the fits run at every count.
    """
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
    # estimate_rank's r-term ALS models, lazily: the seeded restarts, then
    # the run from the algebraic start where it applies
    for attempt in range(RANK_RESTARTS):
        yield als_fit(t, r, threshold=threshold, seed=attempt)[0]
    start = _jennrich_start(t, r)
    if start is not None:
        yield _als(t, start, threshold, ALS_MAX_SWEEPS)[0]


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
    flat = gen.choice(total, size=n_obs, replace=False)
    obs = {}
    for f in sorted(int(x) for x in flat):
        idx = np.unravel_index(f, t.shape)
        obs[tuple(int(i) for i in idx)] = float(t[idx])
    return CompletionTask(shape=t.shape, observations=obs)
