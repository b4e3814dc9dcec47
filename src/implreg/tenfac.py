"""Tensor completion by CP factorization.

A CP model writes an order-N tensor as a sum of R rank-one terms, one
vector per mode per term.  Training minimizes half the squared residual
over observed entries by gradient descent with an adaptive step size
(a base rate divided by the bias-corrected root of an exponential
moving average of squared gradient norms; only the step length adapts,
never the direction).  Rank estimation follows the standard recipe:
the smallest R for which alternating least squares fits a fully known
tensor below an MSE threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import as_tensor, outer_product
from .matfac import DivergenceError, ENTRY_BLOWUP_LIMIT
from .rng import stream

__all__ = [
    "TensorTask",
    "CpModel",
    "AdaptiveLrState",
    "GenerationError",
    "cp_compose",
    "cp_loss_and_grads",
    "adaptive_step",
    "train_cp",
    "als_fit",
    "estimate_rank",
    "gen_ground_truth",
    "sample_observations",
    "default_terms",
]


class GenerationError(RuntimeError):
    """Ground-truth generation exhausted its regeneration budget."""


@dataclass(frozen=True)
class TensorTask:
    """A tensor completion problem: dims plus observed entries keyed by
    0-based index tuples."""

    dims: tuple[int, ...]
    observations: dict[tuple[int, ...], float]

    def __post_init__(self):
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        obs = dict(self.observations)
        total = int(np.prod(self.dims))
        if len(obs) > total - 1:
            raise ValueError("at least one entry must stay unobserved")
        for idx, v in obs.items():
            if len(idx) != len(self.dims) or any(not 0 <= i < d for i, d in zip(idx, self.dims)):
                raise ValueError(f"observed index {idx} out of range for dims {self.dims}")
            if not math.isfinite(v):
                raise ValueError("observed values must be finite")
        object.__setattr__(self, "observations", obs)

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        keys = sorted(self.observations)
        idx = np.array(keys, dtype=np.intp).reshape(len(keys), len(self.dims))
        vals = np.array([self.observations[k] for k in keys], dtype=float)
        return idx, vals


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


@dataclass(frozen=True)
class AdaptiveLrState:
    """Running state of the adaptive step size: eta_t = base_eta /
    (sqrt(gamma_t / (1 - beta^t)) + 1e-6), gamma the EMA of total
    squared gradient norms."""

    base_eta: float = 1e-2
    beta: float = 0.99
    gamma: float = 0.0
    t: int = 0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def advance(self, grads: Sequence[np.ndarray]) -> tuple[float, AdaptiveLrState]:
        """Step size for one update along ``grads`` and the state after it."""
        g2 = 0.0
        for g in grads:
            g2 += float((g * g).sum())
        t = self.t + 1
        gamma = self.beta * self.gamma + (1.0 - self.beta) * g2
        eta_t = self.base_eta / (math.sqrt(gamma / (1.0 - self.beta**t)) + 1e-6)
        return eta_t, AdaptiveLrState(self.base_eta, self.beta, gamma, t)


def default_terms(dims: Sequence[int]) -> int:
    """Number of terms sufficient to express any tensor of the given
    dims: prod(dims) / max(dims)."""
    dims = tuple(int(d) for d in dims)
    return int(np.prod(dims)) // max(dims)


def cp_compose(model: CpModel) -> np.ndarray:
    """Dense tensor of the model: sum of the per-term outer products."""
    n = len(model.factors)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n > len(letters):
        raise ValueError("too many modes")
    spec = ",".join(f"r{letters[i]}" for i in range(n)) + "->" + letters[:n]
    return np.einsum(spec, *model.factors)


class _ObsIndex:
    """Precomputed gather/scatter helpers for one task's observation set."""

    def __init__(self, task: TensorTask):
        self.idx, self.vals = task.index_arrays()
        self.n_obs = self.vals.size
        self.onehots = []
        for n, d in enumerate(task.dims):
            oh = np.zeros((self.n_obs, d))
            oh[np.arange(self.n_obs), self.idx[:, n]] = 1.0
            self.onehots.append(oh)


def _loss_and_grads(factors, obs: _ObsIndex):
    n_modes = len(factors)
    gathered = [factors[n][:, obs.idx[:, n]] for n in range(n_modes)]
    prod = gathered[0].copy()
    for g in gathered[1:]:
        prod *= g
    resid = prod.sum(axis=0) - obs.vals
    lo = 0.5 * float(resid @ resid)
    # prefix/suffix over modes avoids dividing by possibly-zero entries
    suffixes = [None] * n_modes
    acc = None
    for n in range(n_modes - 1, 0, -1):
        acc = gathered[n] if acc is None else acc * gathered[n]
        suffixes[n - 1] = acc
    grads = []
    left = None
    for n in range(n_modes):
        others = suffixes[n] if n < n_modes - 1 else None
        if left is not None:
            others = left if others is None else left * others
        if others is None:  # single-mode model
            weighted = np.broadcast_to(resid, (factors[0].shape[0], obs.n_obs)).copy()
        else:
            weighted = others * resid
        grads.append(weighted @ obs.onehots[n])
        left = gathered[n] if left is None else left * gathered[n]
    return lo, grads


def cp_loss_and_grads(model: CpModel, task: TensorTask):
    """Loss (half squared residual over observations) and its exact
    gradient with respect to every factor vector.

    The gradient for term r, mode n accumulates residual times the
    product of the other modes' entries over the observed tuples.
    """
    if model.dims != task.dims:
        raise ValueError(f"model dims {model.dims} do not match task dims {task.dims}")
    return _loss_and_grads(model.factors, _ObsIndex(task))


def adaptive_step(model: CpModel, grads: Sequence[np.ndarray], state: AdaptiveLrState):
    """Apply one adaptive-rate update; returns the new model and state.

    All factors move by the shared scalar step along the raw gradient.
    """
    eta_t, state = state.advance(grads)
    return CpModel(tuple(f - eta_t * g for f, g in zip(model.factors, grads))), state


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
    task: TensorTask,
    terms: int,
    init_std: float,
    seed: int,
    mse_threshold: float = 1e-6,
    max_iters: int = 10**6,
    log_stride: int = 100,
) -> CpTrainResult:
    """Train a CP model on the observed entries.

    Factors start i.i.d. N(0, init_std^2) from per-mode substreams of
    ``seed``.  Stops when the mean squared error over observations
    (2 * loss / n_obs) falls below ``mse_threshold`` or after
    ``max_iters`` updates.  Divergence (non-finite loss or factor
    entries beyond 1e12) raises :class:`DivergenceError`.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not init_std > 0:
        raise ValueError("init_std must be positive")
    obs = _ObsIndex(task)
    gen = stream(seed, 7)
    subs = gen.spawn(len(task.dims))
    factors = [subs[n].normal(0.0, init_std, size=(terms, d)) for n, d in enumerate(task.dims)]
    state = AdaptiveLrState()
    trajectory: list[CpTrainSample] = []
    converged = False
    it = 0
    lo = math.inf
    mse = math.inf
    while True:
        lo, grads = _loss_and_grads(factors, obs)
        mse = 2.0 * lo / obs.n_obs
        if not math.isfinite(lo) or any(float(np.abs(f).max()) > ENTRY_BLOWUP_LIMIT for f in factors):
            raise DivergenceError(
                f"CP training diverged at iteration {it}",
                trajectory[-1] if trajectory else None,
                trajectory,
                None,
            )
        if it % log_stride == 0:
            trajectory.append(CpTrainSample(it, lo, mse))
        if mse < mse_threshold:
            converged = True
            break
        if it >= max_iters:
            break
        eta_t, state = state.advance(grads)
        for n in range(len(factors)):
            factors[n] -= eta_t * grads[n]
        it += 1
    if not trajectory or trajectory[-1].iteration != it:
        trajectory.append(CpTrainSample(it, lo, mse))
    return CpTrainResult(CpModel(tuple(factors)), trajectory, it, converged)


# ---------------------------------------------------------------------------
# alternating least squares on fully known tensors


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    # column-wise Kronecker over modes in C order; mats are (R, d_n),
    # output (prod d_n, R)
    out = np.ones((1, mats[0].shape[0]))
    for m in mats:
        out = (out[:, None, :] * m.T[None, :, :]).reshape(-1, m.shape[0])
    return out


def als_fit(
    target,
    terms: int,
    threshold: float = 1e-6,
    max_sweeps: int = 500,
    seed: int = 0,
    ridge: float = 1e-12,
):
    """Alternating least squares on a fully known tensor.

    Each sweep solves the exact mode-wise least-squares problem for
    every mode in turn; stops once the full-tensor MSE drops below
    ``threshold`` or after ``max_sweeps`` sweeps, returning the best
    model seen and its MSE.  Singular normal equations fall back to a
    Tikhonov-damped solve.
    """
    t = as_tensor(target)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    dims = t.shape
    n_modes = t.ndim
    gen = stream(seed, 11)
    factors = [gen.normal(0.0, 0.1, size=(terms, d)) for d in dims]
    size = t.size
    unfolds = [np.moveaxis(t, n, 0).reshape(dims[n], -1) for n in range(n_modes)]

    def mse_of(fs) -> float:
        diff = cp_compose(CpModel(tuple(fs))) - t
        return float((diff * diff).sum()) / size

    best = [f.copy() for f in factors]
    best_mse = mse_of(factors)
    for _ in range(max_sweeps):
        for n in range(n_modes):
            others = [factors[m] for m in range(n_modes) if m != n]
            k = _khatri_rao(others)
            gram = k.T @ k
            rhs = k.T @ unfolds[n].T  # (R, d_n)
            try:
                sol = np.linalg.solve(gram, rhs)
                if not np.all(np.isfinite(sol)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                damped = gram + ridge * (np.trace(gram) + 1.0) * np.eye(terms)
                sol = np.linalg.solve(damped, rhs)
            factors[n] = sol
        m = mse_of(factors)
        if m < best_mse:
            best = [f.copy() for f in factors]
            best_mse = m
        if best_mse < threshold:
            break
    return CpModel(tuple(best)), best_mse


def estimate_rank(target, threshold: float = 1e-6, r_max: int | None = None, restarts: int = 3) -> int:
    """Smallest number of terms for which ALS fits ``target`` below the
    MSE threshold, searching upward from 1.

    The zero tensor has rank 0 by convention.  If no count up to
    ``r_max`` (default prod(dims)/max(dims)) succeeds, returns
    ``r_max + 1`` as an explicit out-of-range sentinel.  Each candidate
    gets ``restarts`` independently seeded ALS runs, since a single ALS
    run can stall short of an attainable fit.
    """
    t = as_tensor(target)
    if float(np.abs(t).max(initial=0.0)) == 0.0:
        return 0
    if r_max is None:
        r_max = default_terms(t.shape)
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    for r in range(1, r_max + 1):
        for attempt in range(restarts):
            _, mse = als_fit(t, r, threshold=threshold, seed=attempt)
            if mse < threshold:
                return r
    return r_max + 1


def gen_ground_truth(dims: Sequence[int], r_star: int, seed: int, regen_cap: int = 20) -> np.ndarray:
    """Unit-Frobenius tensor of estimated rank exactly ``r_star``.

    Sums ``r_star`` outer products of standard-normal vectors,
    normalizes, and redraws whenever the estimated rank falls short
    (the construction only caps the rank from above).
    """
    if r_star < 1:
        raise ValueError("r_star must be >= 1")
    dims = tuple(int(d) for d in dims)
    for attempt in range(regen_cap):
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
    raise GenerationError(f"could not generate a rank-{r_star} tensor in {regen_cap} attempts")


def sample_observations(truth, n_obs: int, seed: int) -> TensorTask:
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
    return TensorTask(dims=t.shape, observations=obs)
