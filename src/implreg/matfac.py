"""Deep matrix factorization trained by gradient descent.

A depth-L factorization represents a d x d' matrix as the product
W_L @ ... @ W_1 ("product matrix") and fits observed entries of a
completion task by full-batch gradient descent on the factors.  The
task type, :class:`CompletionTask`, has any order: the CP models of
``tenfac`` train on tensor tasks of the same type.  The module also
provides: the standard initializers (layer-wise Gaussian,
balanced-by-construction, scaled identity), an explicit-Euler
integrator for the end-to-end product-matrix flow, predicted
instantaneous singular-value rates, the layer balancedness defect, and
an exact re-balancing construction.

Index convention: observations are keyed by 0-based index tuples,
(row, col) for a matrix; the matrix position written "w11" in logs is
entry [0, 0].
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .linalg import as_matrix, singular_values, svd

# Imported unused: perfbench/layers.py traces them under this module name.
from .linalg import schatten_norm, svd2x2_analytic  # noqa: F401

__all__ = [
    "CompletionTask",
    "DeepNet",
    "TrainConfig",
    "TrainResult",
    "ResampleError",
    "entry_column",
    "loss",
    "residual_gradient",
    "product_matrix",
    "factor_gradients",
    "gd_train",
    "init_unbalanced",
    "init_balanced",
    "init_identity",
    "resample_until_det_sign",
    "product_ode_step",
    "singular_value_rates",
    "unbalancedness_magnitude",
    "balance_project",
    "make_base_task",
    "make_perturbed_task",
    "make_extended_task",
    "required_det_sign",
    "leading_minor_det",
    "leading_minor_dets",
]

ENTRY_BLOWUP_LIMIT = 1e12


class ResampleError(RuntimeError):
    """Determinant-sign resampling exhausted its attempt budget."""


@dataclass(frozen=True)
class CompletionTask:
    """A completion problem of any order: shape plus observed entries
    keyed by 0-based index tuples.  ``mask`` (1.0 at observed entries)
    and ``target`` (observed values, zeros elsewhere) are the same set
    as dense arrays; the matrix accessors read them in row-major order,
    the order of ``sorted(observations)``."""

    shape: tuple[int, ...]
    observations: Mapping[tuple[int, ...], float]
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(d < 1 for d in self.shape):
            raise ValueError("task shape must be positive")
        obs = dict(self.observations)
        if not 0 < len(obs) < math.prod(self.shape):
            raise ValueError("at least one entry must be observed and one unobserved")
        mask = np.zeros(self.shape)
        target = np.zeros(self.shape)
        for idx, v in obs.items():
            if len(idx) != len(self.shape) or not all(0 <= i < d for i, d in zip(idx, self.shape)):
                raise ValueError(f"observed index {idx} out of range for shape {self.shape}")
            if not math.isfinite(v):
                raise ValueError("observed values must be finite")
            mask[idx] = 1.0
            target[idx] = v
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "target", target)

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of a matrix task's observations."""
        rows, cols = np.nonzero(self.mask)
        return rows, cols, self.target[rows, cols]

    def unobserved_indices(self) -> list[tuple[int, ...]]:
        return [ij for ij in np.ndindex(self.shape) if ij not in self.observations]


@dataclass(frozen=True)
class DeepNet:
    """Ordered factors (W_1, ..., W_L); W_l maps dimension d_{l-1} to d_l."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a network needs at least one factor")
        fs = tuple(as_matrix(f) for f in self.factors)
        for lo, hi in zip(fs, fs[1:]):
            if hi.shape[1] != lo.shape[0]:
                raise ValueError("adjacent factor dimensions do not chain")
        object.__setattr__(self, "factors", fs)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.factors[-1].shape[0], self.factors[0].shape[1])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    max_iters: int
    loss_threshold: float = 1e-4
    log_stride: int = 1

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.loss_threshold >= 0:
            raise ValueError("loss_threshold must be non-negative")
        if self.log_stride < 1:
            raise ValueError("log_stride must be >= 1")


@dataclass(frozen=True)
class TrainResult:
    """How a run ended.  A diverged run (a non-finite loss or an entry
    beyond ENTRY_BLOWUP_LIMIT) stopped at ``iterations``, the step of the
    blow-up; its trajectory ends at the last finite logged sample (every
    column empty when the start already diverges) and its ``model`` is
    the net at the blow-up, or None when a factor entry is not finite.
    A CP trainer puts a tenfac.CpModel here, None for a diverged run,
    and logs the columns "iter", "loss" and "mse"."""

    model: DeepNet | None
    trajectory: dict[str, tuple]  # see _samples
    iterations: int
    converged: bool
    diverged: bool


def loss(task: CompletionTask, w) -> float:
    """Half the squared residual over observed entries."""
    m = as_matrix(w)
    if m.shape != task.shape:
        raise ValueError(f"matrix shape {m.shape} does not match task shape {task.shape}")
    rows, cols, vals = task.index_arrays()
    r = m[rows, cols] - vals
    return 0.5 * float(r @ r)


def residual_gradient(task: CompletionTask, w) -> np.ndarray:
    """Gradient of :func:`loss` at ``w``: the residual on observed entries, zero elsewhere."""
    m = as_matrix(w)
    if m.shape != task.shape:
        raise ValueError(f"matrix shape {m.shape} does not match task shape {task.shape}")
    rows, cols, vals = task.index_arrays()
    g = np.zeros_like(m)
    g[rows, cols] = m[rows, cols] - vals
    return g


def product_matrix(net: DeepNet) -> np.ndarray:
    return _prefix_chain(net.factors, np.matmul)[1]


# a.T of a numpy array, a view
_T = operator.attrgetter("T")


class _StepWriter:
    """Products of matrices held as tuples of row tuples of variable
    names, where an entry may be the literal ``0.0``: ``mul`` appends
    the source lines computing a product's entries, row by row, to
    ``lines`` and returns their names in the same form.  An entry sums
    over the inner index in ascending order.  A term with a literal 0.0
    operand is left out; an entry left with no term is the literal 0.0
    itself and gets no line."""

    def __init__(self):
        self.lines: list[str] = []

    def mul(self, a, b):
        return tuple(tuple(self._entry(row, col) for col in zip(*b)) for row in a)

    def _entry(self, row, col) -> str:
        terms = [f"{x} * {y}" for x, y in zip(row, col) if "0.0" not in (x, y)]
        if not terms:
            return "0.0"
        self.lines.append(f"t{len(self.lines)} = {' + '.join(terms)}")
        return f"t{len(self.lines) - 1}"


def _prefix_chain(fs, mul):
    """Prefix products W_{l-1} ... W_1 for each factor l (None for the
    first) and the full product W_L ... W_1."""
    prefixes = [None]
    p = fs[0]
    for f in fs[1:]:
        prefixes.append(p)
        p = mul(f, p)
    return prefixes, p


def _chain_gradients(fs, prefixes, g, mul, t) -> list:
    """Per-factor gradients (W_L ... W_{l+1})^T G (W_{l-1} ... W_1)^T of
    the masked residual ``g``, with the suffix products built from the
    top down.  ``mul`` and ``t`` compute a @ b and a.T in the factors'
    representation."""
    grads: list = [None] * len(fs)
    s = None
    for l in range(len(fs) - 1, -1, -1):
        gl = g if s is None else mul(t(s), g)
        if prefixes[l] is not None:
            gl = mul(gl, t(prefixes[l]))
        grads[l] = gl
        if l:
            s = fs[l] if s is None else mul(s, fs[l])
    return grads


def factor_gradients(net: DeepNet, task: CompletionTask) -> list[np.ndarray]:
    """Analytic gradient of the end-to-end loss with respect to each factor.

    For factor l the gradient is (W_L ... W_{l+1})^T G (W_{l-1} ... W_1)^T
    with G the masked residual of the product matrix.
    """
    if net.shape != task.shape:
        raise ValueError(f"net shape {net.shape} does not match task shape {task.shape}")
    prefixes, p = _prefix_chain(net.factors, np.matmul)
    return _chain_gradients(net.factors, prefixes, residual_gradient(task, p), np.matmul, _T)


def leading_minor_det(m: np.ndarray) -> float:
    """Determinant of the leading min-square submatrix (the determinant
    itself when the matrix is square)."""
    return float(leading_minor_dets(np.asarray(m)[None])[0])


def leading_minor_dets(ps: np.ndarray) -> np.ndarray:
    """:func:`leading_minor_det` along an (n, rows, cols) stack: the 2x2
    closed form, otherwise ``np.linalg.det``."""
    k = min(ps.shape[1:])
    sub = ps[:, :k, :k]
    if k == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return np.linalg.det(sub)


def _unbalancedness(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per entry of the (n, rows, cols) factor stacks: the largest nuclear
    norm of W_{l+1}^T W_{l+1} - W_l W_l^T over adjacent layers, 0.0 for
    one layer."""
    worst = np.zeros(len(stacks[0]))
    for lo, hi in zip(stacks, stacks[1:]):
        gaps = singular_values(hi.transpose(0, 2, 1) @ hi - lo @ lo.transpose(0, 2, 1))
        worst = np.maximum(worst, gaps.sum(axis=-1))
    return worst


def _stacks(packed, layout) -> list[np.ndarray]:
    """One (n, rows, cols) stack per shape of ``layout`` from n packed
    snapshots: the doubles of the matrices of ``layout``, each
    row-major, one after the other."""
    flat = np.frombuffer(b"".join(packed)).reshape(len(packed), sum(r * c for r, c in layout))
    ends = itertools.accumulate(r * c for r, c in layout)
    return [flat[:, end - r * c : end].reshape(-1, r, c) for end, (r, c) in zip(ends, layout)]


def _column(values: np.ndarray) -> tuple[float, ...]:
    return tuple(values.tolist())


def entry_column(ij: tuple[int, int]) -> str:
    """The trajectory column of matrix entry ``ij`` (0-based): ``w11``
    for [0, 0], ``unobs_i_j`` (1-based) for any other."""
    return "w11" if ij == (0, 0) else f"unobs_{ij[0] + 1}_{ij[1] + 1}"


def _samples(snapshots, task: CompletionTask, layout) -> dict[str, tuple]:
    """The trajectory of ``gd_train``'s snapshots (iteration, loss,
    packed product and factors of the shapes in ``layout``), computed
    over stacks in one pass: named columns, in the order a run CSV
    writes them, whose entry k belongs to sample k.  The columns are
    ``iter``, ``loss``, one per unobserved entry (:func:`entry_column`),
    ``det``, ``sigma1``, ``sigma2``, ``erank``, ``nuclear_norm``,
    ``frob_norm``, ``spectral_norm``, ``schatten_half`` and
    ``unbalancedness``; no snapshot gives them all empty.

    The singular values of all products, and of all Gram differences of
    one layer pair, come from one values-only call each; the metrics are
    then taken along the stacks.  Each value equals, bit for bit, what
    per-matrix calls give for that sample: ``sigma1``, ``sigma2`` and
    ``spectral_norm`` are entries of :func:`linalg.singular_values` of
    the product; ``nuclear_norm`` and ``frob_norm`` are the sum of those
    values and the square root of the sum of their squares;
    ``schatten_half`` squares the sum of their square roots with
    Python's ``**``; ``erank`` is
    :func:`metrics.effective_rank_of_sigmas` of them; ``det`` is
    :func:`leading_minor_det` and ``unbalancedness`` is
    :func:`unbalancedness_magnitude`.  ``linalg.schatten_norm(m, 2)``
    sums the squared entries instead and can differ from ``frob_norm``
    in the last bit.
    """
    its, losses, packed = tuple(zip(*snapshots)) or ((), (), ())
    ps, *factors = _stacks(packed, layout)
    sig = singular_values(ps)
    sigma1 = _column(sig[:, 0])
    return {
        "iter": its,
        "loss": losses,
        **{entry_column(ij): _column(ps[:, ij[0], ij[1]]) for ij in task.unobserved_indices()},
        "det": _column(leading_minor_dets(ps)),
        "sigma1": sigma1,
        "sigma2": _column(sig[:, 1]),
        "erank": _column(metrics.effective_rank_of_sigmas(sig)),
        "nuclear_norm": _column(sig.sum(axis=-1)),
        "frob_norm": _column(np.sqrt((sig * sig).sum(axis=-1))),
        "spectral_norm": sigma1,
        # Python's float ** is C pow, as on a numpy scalar; an array's
        # ** 2 squares, which can round the last bit differently
        "schatten_half": tuple(s**2 for s in np.sqrt(sig).sum(axis=-1).tolist()),
        "unbalancedness": _column(_unbalancedness(factors)),
    }


# A step kernel holds the factors of a run; ``__init__`` evaluates the
# start point.  ``run_until(eta, it, stop_it, lo_min, lo_max, stride,
# log)`` steps every factor by -eta times its gradient from iteration
# ``it`` until ``stop_it``, a loss outside [lo_min, lo_max) or an entry
# beyond ENTRY_BLOWUP_LIMIT, and returns (iteration, loss, max |entry|);
# with ``stop_it == it`` it only reports the current point.  At each
# multiple of ``stride`` it steps on from, it first calls
# ``log((iteration, loss, snapshot))``: the step loop runs between two
# multiples and makes no stride test.  ``snapshot()`` returns the
# product and the factors (W_1 first), each row-major, as the bytes of
# their doubles one after the other (_stacks reads them back): 8 bytes
# an entry, where a Python float takes 24 and a pointer.


class _ArrayKernel:
    """Factors as numpy arrays: any shape.  It steps the nets above
    SCALAR_STEP_MAX_DIM, and the tests check the scalar kernel against
    it.  The masked residual lives in one buffer whose unobserved
    entries stay 0.0.  An overflowing start or step ends the run
    through gd_train's checks (a diverged result), and gd_train turns
    numpy's overflow warnings off around the kernel."""

    def __init__(self, factors: Sequence[np.ndarray], task: CompletionTask):
        self.ws = list(factors)
        rows, cols, self.vals = task.index_arrays()
        self.observed = np.ravel_multi_index((rows, cols), task.shape)
        self.g = np.zeros(task.shape)
        self._forward()

    def _forward(self) -> None:
        self.prefixes, self.p = _prefix_chain(self.ws, np.matmul)
        self.r = self.p.take(self.observed) - self.vals
        self.lo, self.peak = 0.5 * float(self.r @ self.r), float(np.abs(self.p).max())

    def run_until(
        self, eta: float, it: int, stop_it: int, lo_min: float, lo_max: float, stride: int, log
    ) -> tuple[int, float, float]:
        while it < stop_it:
            until = min((it // stride + 1) * stride, stop_it)
            while it < until:
                self.g.put(self.observed, self.r)
                grads = _chain_gradients(self.ws, self.prefixes, self.g, np.matmul, _T)
                self.ws = [w - eta * gl for w, gl in zip(self.ws, grads)]
                it += 1
                self._forward()
                if not (lo_min <= self.lo < lo_max and self.peak <= ENTRY_BLOWUP_LIMIT):
                    return it, self.lo, self.peak
            if it < stop_it:
                log((it, self.lo, self.snapshot()))
        return it, self.lo, self.peak

    def snapshot(self) -> bytes:
        return np.concatenate([self.p, *self.ws], axis=None).tobytes()


# The largest factor dimension the scalar kernel steps.  Per step on d x d
# extended tasks, scalar against array kernel (one pinned CPU of a 2-core
# x86-64 host, two runs): depth 2, d = 4 / 5: 11.5 / 21.3 against 24.0 /
# 24.1 us; depth 3: 17-21 / 31-41 against 21-34 / 22-34 us; depth 5: 30 /
# 71 against 32 / 42 us.  Compiling the step takes 4-8 ms at d = 4.
SCALAR_STEP_MAX_DIM = 4


def _flat(m) -> list:
    return [x for row in m for x in row]


@functools.cache
def _step_function(shapes: tuple[tuple[int, int], ...], observed: tuple[int, ...]):
    """Compile ``run_until`` for factors of ``shapes`` (W_1 first)
    observing the row-major product entries ``observed``, as
    straight-line Python.

    The source comes from running _prefix_chain and _chain_gradients on
    matrices of variable names (_StepWriter), so every float operation
    is the one the chain rule takes, in the same order, except for the
    terms with a zero of the masked residual: ``0.0 * x + y`` is written
    ``y``, an entry with no other term is the literal 0.0, and an update
    ``w - eta * 0.0`` is not written (eta > 0, so it is ``w`` for every
    ``w``, -0.0 and nan included).  Dropping ``0.0 * x`` can change the
    sign of an exact zero, and gives a number where the full sum is nan
    only when ``x``, a factor or partial-product entry, is not finite.
    A factor entry becomes -0.0 through no update, so a run is bitwise
    the chain rule's unless its start holds a -0.0 entry.

    The step checks only the unobserved product entries against
    ENTRY_BLOWUP_LIMIT; the caller bounds the observed ones through
    ``lo_max`` (_ScalarKernel).  The compiled function maps (factor
    entries, observed values, eta, it, stop_it, lo_min, lo_max, stride,
    log) to (it, loss, product entries, factor entries), entries in
    flat row-major tuples (``w{l}_{e}`` is entry e of factor l); the
    step loop runs inside a loop over stride multiples, which calls
    ``log``.
    """
    ws = [tuple(tuple(f"w{l}_{i * c + j}" for j in range(c)) for i in range(r)) for l, (r, c) in enumerate(shapes)]
    writer = _StepWriter()
    prefixes, p = _prefix_chain(ws, writer.mul)
    p, cols = _flat(p), shapes[0][1]
    g = [f"r{k}" if k in observed else "0.0" for k in range(len(p))]
    g = tuple(tuple(g[i : i + cols]) for i in range(0, len(g), cols))
    forward = writer.lines + [f"r{k} = {p[k]} - v{k}" for k in observed]
    forward.append("lo = 0.5 * (" + (" + ".join(f"r{k} * r{k}" for k in observed) or "0.0") + ")")
    n_forward = len(writer.lines)
    grads = _chain_gradients(ws, prefixes, g, writer.mul, lambda a: tuple(zip(*a)))
    entries, gradients = _flat(map(_flat, ws)), _flat(map(_flat, grads))
    update = writer.lines[n_forward:] + [f"{w} = {w} - eta * {gw}" for w, gw in zip(entries, gradients) if gw != "0.0"]
    free = [x for k, x in enumerate(p) if k not in observed]
    inside = " and ".join(f"{-ENTRY_BLOWUP_LIMIT!r} <= {x} <= {ENTRY_BLOWUP_LIMIT!r}" for x in free)
    product, factors = (f"({''.join(f'{x}, ' for x in xs)})" for xs in (p, entries))
    state = f"it, lo, {product}, {factors}"
    src = "\n".join(
        ["def run_until(ws, vs, eta, it, stop_it, lo_min, lo_max, stride, log):", f"    {factors} = ws"]
        + [f"    ({''.join(f'v{k}, ' for k in observed)}) = vs"]
        + [f"    {line}" for line in forward]
        + ["    while it < stop_it:", "        until = min((it // stride + 1) * stride, stop_it)"]
        + ["        while it < until:"]
        + [f"            {line}" for line in update + ["it += 1"] + forward]
        + [f"            if not (lo_min <= lo < lo_max and {inside}):", f"                return {state}"]
        + ["        if it < stop_it:", f"            log((it, lo, pack({', '.join(p + entries)})))"]
        + [f"    return {state}"]
    )
    namespace: dict = {"pack": struct.Struct(f"{len(p) + len(entries)}d").pack}
    exec(compile(src, f"<step, factors {shapes}, observed {observed}>", "exec"), namespace)
    return namespace["run_until"]


class _ScalarKernel:
    """Factors of at most SCALAR_STEP_MAX_DIM rows and columns, held as
    one flat tuple of Python floats (row-major, W_1 first) and stepped
    by a generated straight-line function (_step_function): at these
    sizes a numpy call costs far more than its arithmetic.

    The step checks only the unobserved entries against
    ENTRY_BLOWUP_LIMIT.  An observed entry p_k has |p_k| <= |v_k| +
    sqrt(2 loss), so below ``lo_cap`` none can pass the limit (the
    relative 1e-9 covers the rounding of the loss); at or above it the
    step returns after each step, and gd_train's checks of every entry
    run as before."""

    def __init__(self, factors: Sequence[np.ndarray], task: CompletionTask):
        self.ws = tuple(x for f in factors for x in f.ravel().tolist())
        rows, cols, vals = task.index_arrays()
        self.vals = tuple(vals.tolist())
        margin = max(ENTRY_BLOWUP_LIMIT - max(map(abs, self.vals)), 0.0)
        self.lo_cap = 0.5 * margin**2 * (1 - 1e-9)
        self._run = _step_function(tuple(f.shape for f in factors), tuple((rows * task.shape[1] + cols).tolist()))
        self.p = self._run(self.ws, self.vals, 0.0, 0, 0, 0.0, 0.0, 1, None)[2]

    def run_until(
        self, eta: float, it: int, stop_it: int, lo_min: float, lo_max: float, stride: int, log
    ) -> tuple[int, float, float]:
        lo_max = min(lo_max, self.lo_cap)
        it, lo, self.p, self.ws = self._run(self.ws, self.vals, eta, it, stop_it, lo_min, lo_max, stride, log)
        return it, lo, max(map(abs, self.p))

    def snapshot(self) -> bytes:
        return np.array(self.p + self.ws).tobytes()


def _kernel_for(net: DeepNet, task: CompletionTask):
    """The scalar kernel up to SCALAR_STEP_MAX_DIM rows and columns a factor, else the array kernel."""
    if max(max(f.shape) for f in net.factors) <= SCALAR_STEP_MAX_DIM:
        return _ScalarKernel(net.factors, task)
    return _ArrayKernel(net.factors, task)


@functools.cache
def _decade_edge(k: int) -> float:
    """The least double x with math.floor(math.log10(x)) >= k, found by
    single-ulp steps from 10.0**k; inf past the largest double."""
    if k > 308:
        return math.inf
    x = 10.0**k
    while math.floor(math.log10(x)) < k:
        x = math.nextafter(x, math.inf)
    while math.floor(math.log10(below := math.nextafter(x, 0.0))) >= k:
        x = below
    return x


def _decade_band(decade: int | None) -> tuple[float, float]:
    """[lo, hi): exactly the losses with math.floor(math.log10(loss)) ==
    decade.  Empty for a zero loss (no decade) and below 1e-300
    (near-subnormal powers)."""
    if decade is None or decade < -300:
        return 0.0, 0.0
    return _decade_edge(decade), _decade_edge(decade + 1)


def _net(packed: bytes, layout) -> DeepNet | None:
    """A snapshot's factors as a DeepNet of fresh arrays; None when an
    entry is not finite (a step overflowed)."""
    fs = tuple(s[0].copy() for s in _stacks([packed], layout)[1:])
    return DeepNet(fs) if all(np.isfinite(f).all() for f in fs) else None


def gd_train(net: DeepNet, task: CompletionTask, cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on the factors.

    Runs until the loss drops below ``cfg.loss_threshold`` or
    ``cfg.max_iters`` updates have been applied.  A sample is logged at
    iteration 0, every ``log_stride`` iterations, whenever the loss
    crosses a power-of-ten boundary (so loss-resolved curves stay well
    sampled without storing every step), and at the final state.  A
    non-finite loss or an entry beyond 1e12 stops the run as diverged
    (see :class:`TrainResult`); its ``model`` is None when a step
    overflowed a factor entry to inf or nan.  Nets with no factor
    dimension above SCALAR_STEP_MAX_DIM step on Python floats, larger
    ones on numpy arrays.  The two kernels agree only to rounding, and
    runs past the edge of stability separate (the 3x4 depth-3 cell at
    step 0.03, from about step 15,000).  Between checks the kernel runs
    on alone, keeping the state at each stride multiple itself, until
    an iteration at which a check could fire (cap, threshold,
    divergence, ``_decade_band``).  Logging keeps the state; the
    samples are computed from all kept states in one stacked pass
    (``_samples``) when the run ends.  numpy's overflow and
    invalid-value warnings are off while the kernel steps (the checks
    above catch what they would report) and back on for the sampling.
    """
    if net.shape != task.shape:
        raise ValueError(f"net shape {net.shape} does not match task shape {task.shape}")
    eta, stride = cfg.learning_rate, cfg.log_stride
    layout = (task.shape, *(f.shape for f in net.factors))

    snapshots: list[tuple] = []
    last_decade: float | None = None
    converged = diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _kernel_for(net, task)
        it, lo, peak = kernel.run_until(eta, 0, 0, 0.0, 0.0, stride, snapshots.append)
        while True:
            if not math.isfinite(lo) or peak > ENTRY_BLOWUP_LIMIT:
                diverged = True
                break

            decade = math.floor(math.log10(lo)) if lo > 0 else None
            crossed = last_decade is not None and decade != last_decade
            last_decade = decade
            if it % stride == 0 or crossed:
                snapshots.append((it, lo, kernel.snapshot()))

            if lo < cfg.loss_threshold:
                converged = True
                break
            if it >= cfg.max_iters:
                break

            band_lo, band_hi = _decade_band(decade)
            lo_min = max(band_lo, cfg.loss_threshold)
            it, lo, peak = kernel.run_until(eta, it, cfg.max_iters, lo_min, band_hi, stride, snapshots.append)

    # a diverged run's last state is the blow-up, which is not logged
    if not diverged and snapshots[-1][0] != it:
        snapshots.append((it, lo, kernel.snapshot()))
    return TrainResult(_net(kernel.snapshot(), layout), _samples(snapshots, task, layout), it, converged, diverged)


# ---------------------------------------------------------------------------
# initializers


def _hidden_dims(shape: tuple[int, int], depth: int) -> list[int]:
    # hidden sizes use the smallest value keeping the search space
    # unconstrained: min(rows, cols)
    d, dp = shape
    return [dp] + [min(d, dp)] * (depth - 1) + [d]


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def init_unbalanced(shape: tuple[int, int], depth: int, alpha: float, rng: np.random.Generator) -> DeepNet:
    """Layer-wise independent Gaussian factors calibrated so the product
    matrix has entry standard deviation close to ``alpha``.

    Each factor's entries are i.i.d. N(0, s^2) with
    s = (alpha^2 / h^(L-1)) ** (1 / 2L), h the hidden dimension.  Each
    factor draws from its own spawned substream.  For rectangular
    shapes, excess rows of the last factor (or columns of the first)
    are cleared so the product is supported on its leading min-square
    block.
    """
    _check_depth(depth)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    d, dp = shape
    dims = _hidden_dims(shape, depth)
    h = min(d, dp)
    std = (alpha**2 / h ** (depth - 1)) ** (1.0 / (2 * depth))
    streams = rng.spawn(depth)
    fs = [streams[l].normal(0.0, std, size=(dims[l + 1], dims[l])) for l in range(depth)]
    fs[-1][dp:, :] = 0.0  # rows past dp exist only when d > dp
    fs[0][:, d:] = 0.0  # columns past d only when dp > d
    return DeepNet(tuple(fs))


def init_balanced(shape: tuple[int, int], depth: int, alpha: float, rng: np.random.Generator) -> DeepNet:
    """Balanced factors whose product equals a Gaussian target matrix.

    Draws a target with i.i.d. N(0, alpha^2) entries (excess rows or
    columns cleared for rectangular shapes), takes its SVD
    U diag(s) V^T, and sets W_L = U diag(s)^(1/L),
    W_l = diag(s)^(1/L) for the middle factors, W_1 = diag(s)^(1/L) V^T.
    The factors satisfy the layer balance identity exactly and every
    product-matrix singular value is the L-th power of the matching
    factor singular value.
    """
    _check_depth(depth)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    d, dp = shape
    target = rng.normal(0.0, alpha, size=(d, dp))
    target[dp:, :] = 0.0  # rows past dp exist only when d > dp
    target[:, d:] = 0.0  # columns past d only when dp > d
    u, sigmas, v = svd(target)
    root = sigmas ** (1.0 / depth)
    if depth == 1:
        return DeepNet((target,))
    # W_1 = diag(root) V^T of shape (h, dp), W_L = U diag(root) of shape (d, h)
    middle = [np.diag(root) for _ in range(depth - 2)]
    return DeepNet((root[:, None] * v.T, *middle, u * root[None, :]))


def init_identity(dim: int, depth: int, alpha: float) -> DeepNet:
    """Scaled-identity start: every factor alpha**(1/L) * I, product alpha * I.

    Requires alpha in (0, 1]; the factors are balanced and the product
    determinant alpha**dim is positive.
    """
    _check_depth(depth)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    f = alpha ** (1.0 / depth) * np.eye(dim)
    return DeepNet(tuple(f.copy() for _ in range(depth)))


RESAMPLE_ATTEMPTS = 100  # draws before resample_until_det_sign gives up


def resample_until_det_sign(
    make_init: Callable[[np.random.Generator], DeepNet],
    target_sign: int,
    rng: np.random.Generator,
) -> tuple[DeepNet, int]:
    """Redraw ``make_init`` until the product's leading-minor determinant is
    finite, non-zero and of ``target_sign`` (one that overflowed tells no
    sign); returns the net and the attempt count."""
    if target_sign not in (-1, 1):
        raise ValueError("target_sign must be +1 or -1")
    overflowed = 0
    for attempt in range(1, RESAMPLE_ATTEMPTS + 1):
        net = make_init(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            det = leading_minor_det(product_matrix(net))
        if not math.isfinite(det):
            overflowed += 1
        elif det * target_sign > 0:
            return net, attempt
    if overflowed == RESAMPLE_ATTEMPTS:
        raise ResampleError(
            f"the determinant of all {RESAMPLE_ATTEMPTS} draws overflowed, so none has a sign; lower the init scale"
        )
    raise ResampleError(f"no draw matched determinant sign {target_sign:+d} in {RESAMPLE_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# end-to-end dynamics


def _fractional_gram_powers(w: np.ndarray, depth: int):
    u, sig, v = svd(w)

    def left(beta: float) -> np.ndarray:  # (W W^T)^beta on the column space
        return (u * sig ** (2 * beta)) @ u.T

    def right(beta: float) -> np.ndarray:  # (W^T W)^beta
        return (v * sig ** (2 * beta)) @ v.T

    return left, right


def product_ode_step(w, task: CompletionTask, depth: int, dt: float) -> np.ndarray:
    """One explicit-Euler step of the end-to-end product-matrix flow.

    The velocity is -sum_l (W W^T)^((l-1)/L) G (W^T W)^((L-l)/L), the
    dynamics a balanced depth-L factorization induces on its product.
    Fractional Gram powers are taken through the SVD of ``w``.  Exists
    as a cross-check against factor-space gradient descent.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    m = as_matrix(w)
    g = residual_gradient(task, m)
    if depth == 1:
        return m - dt * g
    left, right = _fractional_gram_powers(m, depth)
    vel = np.zeros_like(m)
    for l in range(1, depth + 1):
        vel -= left((l - 1) / depth) @ g @ right((depth - l) / depth)
    return m + dt * vel


def singular_value_rates(w, task: CompletionTask, depth: int) -> list[float]:
    """Predicted instantaneous rates of the product-matrix singular values:
    -L (sigma_r^2)^(1 - 1/L) <G, u_r v_r^T> for each r.

    Zero singular values have rate zero for depth >= 2 (they are stuck).
    """
    m = as_matrix(w)
    g = residual_gradient(task, m)
    u, sigmas, v = svd(m)
    rates = []
    for r in range(sigmas.size):
        s = float(sigmas[r])
        inner = float(u[:, r] @ g @ v[:, r])
        rates.append(-depth * (s * s) ** (1.0 - 1.0 / depth) * inner)
    return rates


def unbalancedness_magnitude(net: DeepNet) -> float:
    """Largest nuclear norm of W_{l+1}^T W_{l+1} - W_l W_l^T over adjacent
    layers; zero for depth 1.  Conserved by the continuous-time dynamics."""
    return float(_unbalancedness([f[None] for f in net.factors])[0])


def balance_project(net: DeepNet) -> DeepNet:
    """Replace square factors with exactly balanced ones nearby.

    Keeps W_1 and rebuilds each deeper factor from chained SVD rotations
    applied to the symmetric core U_1 S_1 U_1^T: with Q_l = U_l V_l^T
    and R_l = Q_l Q_{l-1} ... Q_2 (R_1 = I), the new factor l >= 2 is
    R_l (U_1 S_1 U_1^T) R_{l-1}^T.  The output is balanced to working
    precision and each factor moves at most (l-1) * sqrt(eps) in
    Frobenius norm, eps the input's unbalancedness magnitude.
    """
    fs = net.factors
    d = fs[0].shape[0]
    for f in fs:
        if f.shape != (d, d):
            raise ValueError("balance_project expects square factors of equal size")
    if len(fs) == 1:
        return DeepNet((fs[0].copy(),))
    (u1, s1, _), *rest = [svd(f) for f in fs]
    core = (u1 * s1) @ u1.T
    qs = [u @ v.T for u, _, v in rest]  # Q_2 ... Q_L
    out = [fs[0].copy()]
    rot_prev = np.eye(d)  # R_{l-1}
    rot = qs[0]  # R_l, starting at Q_2
    for l in range(1, len(fs)):
        out.append(rot @ core @ rot_prev.T)
        if l + 1 < len(fs):
            rot_prev = rot
            rot = qs[l] @ rot
    return DeepNet(tuple(out))


# ---------------------------------------------------------------------------
# task constructors


def make_base_task() -> CompletionTask:
    """The 2x2 completion problem with observations b[0,1] = b[1,0] = 1,
    b[1,1] = 0 and the corner (0, 0) unobserved.

    Its zero-loss solutions trade a norm penalty against rank: any
    Schatten norm is minimized only at free entry 0, while the rank
    surrogates approach their minimum only as the free entry diverges.
    """
    return CompletionTask(shape=(2, 2), observations={(0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0})


def make_perturbed_task(
    z: float, z_prime: float, eps: float, unobserved: tuple[int, int] = (0, 0)
) -> CompletionTask:
    """Generalization of the base task: the unobserved corner may sit at
    any (i, j) in {0,1}^2, the two adjacent entries hold ``z`` and
    ``z_prime`` (both non-zero), and the diagonally opposite entry holds
    ``eps``."""
    if z == 0 or z_prime == 0:
        raise ValueError("z and z_prime must be non-zero")
    i, j = unobserved
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("unobserved position must lie in {0,1}x{0,1}")
    obs = {(i, 1 - j): float(z), (1 - i, j): float(z_prime), (1 - i, 1 - j): float(eps)}
    return CompletionTask(shape=(2, 2), observations=obs)


def make_extended_task(rows: int, cols: int) -> CompletionTask:
    """The d x d' extension: every entry except (0, 0) observed; ones on
    the diagonal from index 2 up to the min dimension and at (0, 1) and
    (1, 0); zeros elsewhere."""
    if rows < 2 or cols < 2:
        raise ValueError("extended task needs both dimensions >= 2")
    ones = {(0, 1), (1, 0)} | {(i, i) for i in range(2, min(rows, cols))}
    obs = {ij: float(ij in ones) for ij in np.ndindex(rows, cols) if ij != (0, 0)}
    return CompletionTask(shape=(rows, cols), observations=obs)


def required_det_sign(task: CompletionTask) -> int:
    """Initial determinant sign under which the free entry is driven to
    grow: +1 for the base and extended tasks; for the perturbed task,
    the sign of z * z' when the unobserved corner is on the diagonal and
    its opposite otherwise."""
    d, dp = task.shape
    unobs = task.unobserved_indices()
    if len(unobs) != 1:
        raise ValueError("task does not have the single-free-entry structure")
    i, j = unobs[0]
    if (d, dp) != (2, 2):
        if (i, j) != (0, 0):
            raise ValueError("extended tasks keep the free entry at (0, 0)")
        return 1
    z = task.observations[(i, 1 - j)]
    z_prime = task.observations[(1 - i, j)]
    prod = z * z_prime
    if prod == 0:
        raise ValueError("adjacent observations must be non-zero")
    sign = 1 if prod > 0 else -1
    return sign if i == j else -sign
