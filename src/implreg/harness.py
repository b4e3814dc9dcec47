"""Experiment harness: JSON configs, seeded runs, CSV persistence,
Monte Carlo studies, and sweep aggregation.

Configs are single JSON documents with a top-level ``kind`` field
("matfac-run", "matfac-sweep", "tenfac-sweep").
Every run gets a stable id (hash of the config without ``out_dir``,
plus seed); identical config and seed reproduce byte-identical CSVs.
Floats are printed with 17 significant digits so parsing a CSV back
recovers the exact doubles.
"""

from __future__ import annotations

import functools
import json
import hashlib
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import matfac, metrics, tenfac
from .rng import stream

__all__ = [
    "TaskSpec",
    "InitSpec",
    "MatfacRunConfig",
    "MatfacSweepConfig",
    "TenfacSweepConfig",
    "RunRecord",
    "parse_config",
    "load_config",
    "run_matfac",
    "run_matfac_sweep",
    "run_detsign",
    "run_tenfac_sweep",
    "run_config",
    "resolve_seed",
    "write_csv",
]

SEED_ENV_VAR = "IMPLREG_SEED"


@functools.cache
def _row_format(types: tuple[type, ...]) -> str:
    # a float, or a float subclass such as numpy's float64, takes 17
    # significant digits: every finite double round-trips, and the rest
    # print as "inf", "-inf" and "nan" (either sign)
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    """Write a header and rows, one ``%`` format per row chosen from the
    row's cell types.  Nothing is quoted: a cell that would need quotes
    raises ValueError, and no file is written."""
    rows = [header, *rows]
    lines = [_row_format(tuple(map(type, row))) % tuple(row) for row in rows]
    text = "".join(lines)
    # each cell ends in one separator (a comma, or the row's newline): a
    # cell adding a separator, a quote or a CR, or a lone empty cell, needs quotes
    if '"' in text or "\r" in text or "\n" in lines or text.count(",") + text.count("\n") != sum(map(len, rows)):
        raise ValueError(f"a cell of {path} needs CSV quoting")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    """Seed precedence: command-line flag, then IMPLREG_SEED, then config."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return config_seed


# ---------------------------------------------------------------------------
# configs


# the TaskSpec fields each task kind reads
_TASK_FIELDS = {"base": (), "perturbed": ("z", "z_prime", "eps", "unobserved"), "extended": ("rows", "cols")}


@dataclass(frozen=True)
class TaskSpec:
    """Which completion problem to run.  ``kind``: "base", "perturbed",
    or "extended".  Positions in configs are 1-based (the top-left
    corner is [1, 1]), matching the w11 naming in logs.  A field the
    kind does not read must keep its default."""

    kind: str = "base"
    z: float = 1.0
    z_prime: float = 1.0
    eps: float = 0.0
    unobserved: tuple[int, int] = (1, 1)
    rows: int = 2
    cols: int = 2

    def build(self) -> matfac.CompletionTask:
        if self.kind not in _TASK_FIELDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        reads = ("kind", *_TASK_FIELDS[self.kind])
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"task kind {self.kind!r} does not read {f.name!r}")
        if self.kind == "base":
            return matfac.make_base_task()
        if self.kind == "perturbed":
            i, j = self.unobserved
            return matfac.make_perturbed_task(self.z, self.z_prime, self.eps, (i - 1, j - 1))
        return matfac.make_extended_task(self.rows, self.cols)


@dataclass(frozen=True)
class InitSpec:
    """How to initialize the factors.  ``det_sign`` of +1/-1 redraws the
    initialization until the product's leading-minor determinant has
    that sign; 0 accepts the first draw.  "auto" (the default via
    ``det_sign=None`` in JSON) picks the sign under which the task's
    free entry is driven to grow.  Identity init is deterministic with a
    positive determinant, so a sign of -1 is refused."""

    kind: str = "balanced"
    alpha: float = 1e-3
    det_sign: int | None = 0

    def build(self, task: matfac.CompletionTask, depth: int, rng) -> tuple[matfac.DeepNet, int]:
        shape = task.shape

        def make(r):
            if self.kind == "balanced":
                return matfac.init_balanced(shape, depth, self.alpha, r)
            if self.kind == "unbalanced":
                return matfac.init_unbalanced(shape, depth, self.alpha, r)
            if self.kind == "identity":
                if shape[0] != shape[1]:
                    raise ValueError("identity init needs a square task")
                return matfac.init_identity(shape[0], depth, self.alpha)
            raise ValueError(f"unknown init kind {self.kind!r}")

        if self.det_sign not in (-1, 0, 1, None):
            raise ValueError(f"det_sign must be -1, 0, 1 or null, got {self.det_sign!r}")
        sign = self.det_sign
        if sign is None:
            sign = matfac.required_det_sign(task)
        if self.kind == "identity" and sign == -1:
            raise ValueError("identity init has a positive determinant; it cannot meet det_sign -1")
        if sign == 0 or self.kind == "identity":
            return make(rng), 1
        return matfac.resample_until_det_sign(make, sign, rng)


@dataclass(frozen=True)
class MatfacRunConfig:
    task: TaskSpec = TaskSpec()
    depth: int = 3
    learning_rate: float = 1e-2
    init: InitSpec = InitSpec()
    loss_threshold: float = 1e-4
    max_iters: int = 5_000_000
    log_stride: int = 500
    seed: int = 0
    out_dir: str = "runs"

    @property
    def run_id(self) -> str:
        return _run_id(asdict(self), self.seed)


@dataclass(frozen=True)
class MatfacSweepConfig:
    """Grid over depths, learning rates, init alphas and seeds.

    With ``pair_lr_alpha`` the learning-rate and alpha lists are zipped
    (the usual protocol: each rate comes with a matching init scale);
    otherwise the lists are crossed.
    """

    task: TaskSpec = TaskSpec()
    depths: tuple[int, ...] = (2, 3)
    learning_rates: tuple[float, ...] = (1e-2,)
    alphas: tuple[float, ...] = (1e-3,)
    pair_lr_alpha: bool = False
    init_kind: str = "balanced"
    det_sign: int | None = None
    loss_threshold: float = 1e-4
    max_iters: int = 5_000_000
    log_stride: int = 500
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "runs"

    def expand(self) -> list[MatfacRunConfig]:
        if self.pair_lr_alpha:
            if len(self.learning_rates) != len(self.alphas):
                raise ValueError("pair_lr_alpha needs learning_rates and alphas of equal length")
            grid = list(zip(self.learning_rates, self.alphas))
        else:
            grid = [(lr, alpha) for lr in self.learning_rates for alpha in self.alphas]
        runs = []
        for depth in self.depths:
            for lr, alpha in grid:
                for seed in self.seeds:
                    runs.append(
                        MatfacRunConfig(
                            task=self.task,
                            depth=depth,
                            learning_rate=lr,
                            init=InitSpec(kind=self.init_kind, alpha=alpha, det_sign=self.det_sign),
                            loss_threshold=self.loss_threshold,
                            max_iters=self.max_iters,
                            log_stride=self.log_stride,
                            seed=seed,
                            out_dir=self.out_dir,
                        )
                    )
        return runs


@dataclass(frozen=True)
class TenfacSweepConfig:
    dims: tuple[int, ...] = (8, 8, 8)
    gt_rank: int = 1
    gt_seed: int = 0
    obs_seed: int = 1
    n_obs: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400, 450, 511)
    init_stds: tuple[float, ...] = (1e-4,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    mse_threshold: float = 1e-6
    max_iters: int = 1_000_000
    baseline: bool = True
    baseline_rank: bool = False
    out_dir: str = "runs"

    @property
    def run_id(self) -> str:
        return _run_id(asdict(self), self.gt_seed)


@dataclass(frozen=True)
class RunRecord:
    """What a run produced: stable id, config echo, artifact paths,
    summary statistics."""

    run_id: str
    config: dict
    csv_path: str
    summary: dict

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # the fields are plain JSON values already: no asdict deep copy
        path.write_text(json.dumps(vars(self), indent=2, sort_keys=True) + "\n")
        return path


def _run_id(config: dict, seed: int) -> str:
    # where a run writes is no part of what it computes
    config = {k: v for k, v in config.items() if k != "out_dir"}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return f"{hashlib.sha256(canonical.encode()).hexdigest()[:12]}-s{seed}"


_KINDS = {
    "matfac-run": MatfacRunConfig,
    "matfac-sweep": MatfacSweepConfig,
    "tenfac-sweep": TenfacSweepConfig,
}


# the JSON values each scalar annotation takes, and its name in a message;
# only a bool field takes a bool, though Python counts it an int
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               bool: (bool, "a boolean"), str: (str, "a string")}
# a config class's annotations, evaluated once (they are strings here)
_hints = functools.cache(get_type_hints)


def _read(tp, value, path: str):
    """The JSON ``value`` at ``path`` of a config as the annotated type
    ``tp``.  An integral float (5e6) in an ``int`` field is read as that
    int, and a ``float`` field keeps a JSON int as given: no run_id moves."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be an object, got {value!r}")
        hints, prefix = _hints(tp), f"{path}." if path else ""
        unknown = value.keys() - hints.keys()
        if unknown:
            raise ValueError(f"unknown field {prefix}{min(unknown)}")
        return tp(**{k: _read(hints[k], v, prefix + k) for k, v in value.items()})
    args = get_args(tp)
    if type(None) in args:
        return None if value is None else _read(args[0], value, path)
    if get_origin(tp) is tuple:
        fixed = args[-1] is not ...
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            raise ValueError(f"{path} must be a list{f' of {len(args)}' if fixed else ''}, got {value!r}")
        return tuple(_read(args[k if fixed else 0], x, f"{path}[{k}]") for k, x in enumerate(value))
    if tp is int and isinstance(value, float) and value.is_integer():
        return int(value)
    types, name = _JSON_TYPES[tp]
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, types):
        raise ValueError(f"{path} must be {name}, got {value!r}")
    # JSON's NaN and Infinity, 1e400 (read as inf) and an int past the
    # largest double all fail the comparison
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{path} must be a finite number, got {value!r}")
    return value


def parse_config(doc: dict):
    """Build a typed config from a JSON document (kind-discriminated),
    each value read by :func:`_read`; an error names the field's path,
    such as ``init.alpha`` or ``n_obs[0]``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("config needs a top-level 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown config kind {kind!r} (expected one of {sorted(_KINDS)})")
    return _read(_KINDS[kind], {k: v for k, v in doc.items() if k != "kind"}, "")


def load_config(path):
    with open(path) as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# matrix runs

def _bounds_for(task_spec: TaskSpec, losses: Sequence[float]) -> tuple[list[str], list[list[float]]]:
    """The names of the three bound columns and their values over a loss
    column, as Python floats."""
    ell = np.array(losses, dtype=float)
    if task_spec.kind == "perturbed":
        prefix = "thm2"
        b = metrics.perturbed_task_bounds(ell, task_spec.z, task_spec.z_prime, task_spec.eps, 1.0)
    else:
        prefix = "thm1"
        b = metrics.base_task_bounds(ell, 1.0)
    names = [f"{prefix}_norm_lb", f"{prefix}_erank_ub", f"{prefix}_dist_ub"]
    return names, [v.tolist() for v in b]


def trajectory_rows(t: dict[str, tuple], task_spec: TaskSpec):
    """The CSV header and rows of a trajectory: its columns in order,
    then the three bound columns over its losses (norm bounds at Schatten
    order 1, the nuclear norm).  The rows are tuples zipped from the
    columns; an empty trajectory gives the header alone."""
    bound_names, bounds = _bounds_for(task_spec, t["loss"])
    return [*t, *bound_names], list(zip(*t.values(), *bounds))


def _prepare(cfg: MatfacRunConfig):
    """The task, initial net, init attempt count and training config of
    a run; raises ValueError or ResampleError if the run cannot start."""
    task = cfg.task.build()
    net, attempts = cfg.init.build(task, cfg.depth, stream(cfg.seed, 1))
    train_cfg = matfac.TrainConfig(
        learning_rate=cfg.learning_rate,
        max_iters=cfg.max_iters,
        loss_threshold=cfg.loss_threshold,
        log_stride=cfg.log_stride,
    )
    return task, net, attempts, train_cfg


def run_matfac(cfg: MatfacRunConfig) -> RunRecord:
    """Execute one training run and persist its trajectory CSV plus a
    JSON record.  Divergence is recorded in the summary and the partial
    trajectory kept."""
    return _run_prepared((cfg, _prepare(cfg)))


def _run_prepared(cell) -> RunRecord:  # cell: (config, _prepare(config))
    cfg, (task, net, attempts, train_cfg) = cell
    t0 = time.monotonic()
    result = matfac.gd_train(net, task, train_cfg)
    elapsed = time.monotonic() - t0

    header, rows = trajectory_rows(result.trajectory, cfg.task)
    last = {name: column[-1] for name, column in result.trajectory.items() if column}
    config = asdict(cfg)
    run_id = _run_id(config, cfg.seed)
    out_dir = Path(cfg.out_dir)
    csv_path = write_csv(out_dir / f"{run_id}.csv", header, rows)
    record = RunRecord(
        run_id=run_id,
        config=config,
        csv_path=str(csv_path),
        summary={
            "diverged": result.diverged,
            "init_attempts": attempts,
            "runtime_s": elapsed,
            # the last logged sample: result.iterations for a run that
            # did not diverge, since such a run logs its final state
            "iterations": last.get("iter", 0),
            "final_loss": last.get("loss", math.nan),
            **{f"final_{c}": last.get(c, math.nan) for c in map(matfac.entry_column, task.unobserved_indices())},
            "converged": result.converged,
        },
    )
    record.write(out_dir / f"{run_id}.json")
    return record


def run_matfac_sweep(cfg: MatfacSweepConfig, jobs: int = 1) -> list[RunRecord]:
    """Run every cell of the grid as :func:`run_matfac` runs it.  Each
    cell is prepared once, before the first runs, so a bad value in any
    cell, or two cells of one ``run_id`` (they would write one pair of
    files), raises before anything is written; ``jobs`` worker processes
    share out the prepared cells."""
    runs = cfg.expand()
    if not runs:
        raise ValueError("the sweep grid is empty")
    if len({run.run_id for run in runs}) < len(runs):
        raise ValueError("the sweep grid repeats a cell")
    return _map_jobs(_run_prepared, [(run, _prepare(run)) for run in runs], jobs)


def _map_jobs(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool pulls in multiprocessing, which a serial run
    # never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# determinant-sign Monte Carlo


def run_detsign(n_samples: int, depth: int, dim: int, seed: int, out=None):
    """Empirical P(det > 0), with a 3-sigma binomial interval, for three
    distributions of ``dim`` x ``dim`` matrices: "gaussian" (one Gaussian
    matrix), "gaussian-product-L" (the product of ``depth`` = L of them)
    and "identity" (sanity path, P = 1).  Their labels end in "@dim" for
    a dimension other than 2.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    label = "" if dim == 2 else f"@{dim}"
    rows = []
    for k, (name, factors) in enumerate((("gaussian", 1), (f"gaussian-product-{depth}", depth), ("identity", 0))):
        p = 1.0
        if factors:
            gen = stream(seed, 23, k)
            prod = gen.standard_normal((n_samples, dim, dim))
            for _ in range(factors - 1):
                prod = gen.standard_normal((n_samples, dim, dim)) @ prod
            p = float(np.mean(matfac.leading_minor_dets(prod) > 0))
        half = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)
        rows.append(
            {"distribution": name + label, "n": n_samples, "p_det_pos": p, "ci_low": p - half, "ci_high": p + half}
        )
    if out is not None:
        write_csv(
            out,
            ["distribution", "n", "p_det_pos", "ci_low", "ci_high"],
            [[r["distribution"], r["n"], r["p_det_pos"], r["ci_low"], r["ci_high"]] for r in rows],
        )
    return rows


# ---------------------------------------------------------------------------
# tensor sweep

TENFAC_COLUMNS = [
    "row",
    "method",
    "n_obs",
    "init_std",
    "seed",
    "recon_error",
    "est_rank",
    "recon_error_q25",
    "recon_error_q75",
    "est_rank_q25",
    "est_rank_q75",
]


def _run_tenfac_group(cfg: TenfacSweepConfig, truth: np.ndarray, group) -> list[tuple]:
    """(recon_error, est_rank) of each seed of one (task, init_std) group,
    its runs trained as one stacked run; blanks for a run that diverges."""
    task, init_std = group
    runs = [(init_std, seed) for seed in cfg.seeds]
    cells = []
    for result in tenfac.train_cp_runs(task, tenfac.default_terms(cfg.dims), runs, cfg.mse_threshold, cfg.max_iters):
        if result.diverged:
            cells.append(("", ""))
            continue
        learned = tenfac.cp_compose(result.model)
        rank = tenfac.estimate_rank(learned, threshold=cfg.mse_threshold)
        cells.append((float(np.linalg.norm(learned - truth)), rank))
    return cells


def _quartiles(values):
    q25, q50, q75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q25), float(q50), float(q75)


def run_tenfac_sweep(cfg: TenfacSweepConfig, jobs: int = 1) -> Path:
    """Run the observation-count sweep and write one CSV holding per-cell
    rows plus median/IQR aggregate rows (merged by cell key, so job
    order never changes the output).

    The "linear" baseline keeps observed entries and zeros elsewhere;
    its reconstruction error has the closed form
    sqrt(sum of squared unobserved truth entries).  Its estimated rank
    is only computed when ``baseline_rank`` is set (a full ALS rank
    search on a near-full-rank tensor is slow and rarely wanted).

    The ground truth and each observation count's observed entries are
    drawn once and shared by every cell and the baseline.  The seeds of
    one (n_obs, init_std) group train as one stacked run
    (:func:`tenfac.train_cp_runs`), bitwise equal to separate runs;
    ``jobs`` worker processes share out the groups.
    """
    if not cfg.dims or min(cfg.dims) < 1:
        raise ValueError(f"dims must list one or more positive sizes, got {list(cfg.dims)}")
    # no tensor of these dims has a larger CP rank
    max_rank = tenfac.default_terms(cfg.dims)
    if not 1 <= cfg.gt_rank <= max_rank:
        raise ValueError(f"gt_rank must lie in [1, {max_rank}] for dims {list(cfg.dims)}")
    for name in ("n_obs", "init_stds", "seeds"):
        values = getattr(cfg, name)
        if not values:
            raise ValueError(f"{name} must not be empty")
        if len(set(values)) < len(values):
            raise ValueError(f"{name} repeats a value")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be positive")
    truth = tenfac.gen_ground_truth(cfg.dims, cfg.gt_rank, cfg.gt_seed)
    tasks = {n: tenfac.sample_observations(truth, n, cfg.obs_seed) for n in cfg.n_obs}
    groups = [(n, std) for n in cfg.n_obs for std in cfg.init_stds]
    run_group = functools.partial(_run_tenfac_group, cfg, truth)
    cells = _map_jobs(run_group, [(tasks[n], std) for n, std in groups], jobs)
    keys = [("tf", n, std, seed) for n, std in groups for seed in cfg.seeds]
    results = [cell for group in cells for cell in group]
    if cfg.baseline:
        for n in cfg.n_obs:
            base = tasks[n].target
            rank = tenfac.estimate_rank(base, threshold=cfg.mse_threshold) if cfg.baseline_rank else ""
            keys.append(("linear", n, "", ""))
            results.append((float(np.linalg.norm(base - truth)), rank))
    rows = [["cell", *key, err, rank, "", "", "", ""] for key, (err, rank) in zip(keys, results)]

    # aggregate per (method, n_obs, init_std), order-independent
    groups: dict[tuple, list] = {}
    for key, (err, rank) in zip(keys, results):
        if err != "":
            groups.setdefault(key[:3], []).append((err, rank))
    for (method, n, std) in sorted(groups, key=str):
        members = groups[(method, n, std)]
        e25, e50, e75 = _quartiles([err for err, _ in members])
        ranks = [rank for _, rank in members if rank != ""]
        r25, r50, r75 = _quartiles(ranks) if ranks else ("", "", "")
        rows.append(["median_iqr", method, n, std, "", e50, r50, e25, e75, r25, r75])

    out = Path(cfg.out_dir) / f"tenfac-{cfg.run_id}.csv"
    return write_csv(out, TENFAC_COLUMNS, rows)


# ---------------------------------------------------------------------------
# dispatch


def run_config(cfg, jobs: int = 1):
    if isinstance(cfg, MatfacRunConfig):
        return run_matfac(cfg)
    if isinstance(cfg, MatfacSweepConfig):
        return run_matfac_sweep(cfg, jobs=jobs)
    if isinstance(cfg, TenfacSweepConfig):
        return run_tenfac_sweep(cfg, jobs=jobs)
    raise TypeError(f"cannot run config of type {type(cfg).__name__}")
