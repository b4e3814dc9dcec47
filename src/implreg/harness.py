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

import csv
import functools
import json
import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

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
    "detsign_distributions",
    "run_detsign",
    "run_tenfac_sweep",
    "run_config",
    "resolve_seed",
    "format_float",
    "write_csv",
    "read_csv",
    "MATFAC_BASE_COLUMNS",
]

SEED_ENV_VAR = "IMPLREG_SEED"


def format_float(x: float) -> str:
    """17-significant-digit rendering; round-trips every finite double
    and prints "inf", "-inf" and "nan" (either sign) for the rest."""
    return f"{x:.17g}"


@functools.cache
def _row_format(types: tuple[type, ...]) -> str:
    # a float subclass (numpy's float64 too) renders as format_float does
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


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def resolve_seed(flag_seed: int | None, config_seed: int) -> int:
    """Seed precedence: command-line flag, then IMPLREG_SEED, then config."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None and env != "":
        return int(env)
    return config_seed


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class TaskSpec:
    """Which completion problem to run.  ``kind``: "base", "perturbed",
    or "extended".  Positions in configs are 1-based (the top-left
    corner is [1, 1]), matching the w11 naming in logs."""

    kind: str = "base"
    z: float = 1.0
    z_prime: float = 1.0
    eps: float = 0.0
    unobserved: tuple[int, int] = (1, 1)
    rows: int = 2
    cols: int = 2

    def build(self) -> matfac.CompletionTask:
        if self.kind == "base":
            return matfac.make_base_task()
        if self.kind == "perturbed":
            i, j = self.unobserved
            return matfac.make_perturbed_task(self.z, self.z_prime, self.eps, (i - 1, j - 1))
        if self.kind == "extended":
            return matfac.make_extended_task(self.rows, self.cols)
        raise ValueError(f"unknown task kind {self.kind!r}")


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


def _tuples(doc: dict) -> dict:
    # configs are frozen dataclasses, so JSON lists become tuples
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def parse_config(doc: dict):
    """Build a typed config from a JSON document (kind-discriminated)."""
    if "kind" not in doc:
        raise ValueError("config needs a top-level 'kind'")
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown config kind {kind!r} (expected one of {sorted(_KINDS)})")
    body = _tuples({k: v for k, v in doc.items() if k != "kind"})
    try:
        if kind in ("matfac-run", "matfac-sweep"):
            if "task" in body:
                t = _tuples(dict(body["task"]))
                body["task"] = TaskSpec(kind=t.pop("kind", "base"), **t)
            if "init" in body:
                body["init"] = InitSpec(**body["init"])
        return _KINDS[kind](**body)
    except TypeError as exc:
        raise ValueError(f"bad fields for config kind {kind!r}: {exc}") from exc


def load_config(path):
    with open(path) as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# matrix runs

MATFAC_BASE_COLUMNS = [
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
]

_NUCLEAR = metrics.nuclear()


def _bounds_for(task_spec: TaskSpec, losses: list[float]) -> tuple[list[str], list[list[float]]]:
    """The names of the three bound columns and their values over a loss
    column, as Python floats."""
    ell = np.array(losses, dtype=float)
    if task_spec.kind == "perturbed":
        prefix = "thm2"
        b = metrics.perturbed_task_bounds(ell, task_spec.z, task_spec.z_prime, task_spec.eps, _NUCLEAR)
    else:
        prefix = "thm1"
        b = metrics.base_task_bounds(ell, _NUCLEAR)
    names = [f"{prefix}_norm_lb", f"{prefix}_erank_ub", f"{prefix}_dist_ub"]
    return names, [report.value.tolist() for report in b]


def _free_entry_column(ij: tuple[int, int]) -> str:
    # trajectory column (and summary key suffix) of a free entry
    return "w11" if ij == (0, 0) else f"unobs_{ij[0] + 1}_{ij[1] + 1}"


def trajectory_rows(samples, task_spec: TaskSpec):
    """Flatten trajectory samples into CSV rows (norm bounds use the
    nuclear spec's constants).  Each unobserved entry of the task gets a
    column after loss: ``w11`` for the (1,1) corner, ``unobs_i_j``
    (1-based) for any other.  The table is built a column at a time;
    rows are tuples."""
    free = task_spec.build().unobserved_indices()
    free_cols = [_free_entry_column(ij) for ij in free]
    losses = [s.loss for s in samples]
    bound_names, bounds = _bounds_for(task_spec, losses)
    header = MATFAC_BASE_COLUMNS[:2] + free_cols + MATFAC_BASE_COLUMNS[3:] + bound_names
    columns = [
        [s.iteration for s in samples],
        losses,
        *([s.unobserved[ij] for s in samples] for ij in free),
        [s.det for s in samples],
        [s.sigmas[0] for s in samples],
        [s.sigmas[1] if len(s.sigmas) > 1 else 0.0 for s in samples],
        *([s.metrics[k] for s in samples] for k in MATFAC_BASE_COLUMNS[6:11]),  # erank .. schatten_half
        [s.unbalancedness for s in samples],
        *bounds,
    ]
    return header, list(zip(*columns))


def run_matfac(cfg: MatfacRunConfig) -> RunRecord:
    """Execute one training run and persist its trajectory CSV plus a
    JSON record.  Divergence is recorded in the summary and the partial
    trajectory kept."""
    task = cfg.task.build()
    rng = stream(cfg.seed, 1)
    net, attempts = cfg.init.build(task, cfg.depth, rng)
    train_cfg = matfac.TrainConfig(
        learning_rate=cfg.learning_rate,
        max_iters=cfg.max_iters,
        loss_threshold=cfg.loss_threshold,
        log_stride=cfg.log_stride,
    )
    t0 = time.monotonic()
    diverged = converged = False
    try:
        result = matfac.gd_train(net, task, train_cfg)
        trajectory, converged = result.trajectory, result.converged
    except matfac.DivergenceError as exc:
        diverged, trajectory = True, exc.trajectory
    elapsed = time.monotonic() - t0
    # a finished run always logs its final state: its last sample is at
    # result.iterations
    last = trajectory[-1] if trajectory else None

    header, rows = trajectory_rows(trajectory, cfg.task)
    config = asdict(cfg)
    run_id = _run_id(config, cfg.seed)
    out_dir = Path(cfg.out_dir)
    csv_path = write_csv(out_dir / f"{run_id}.csv", header, rows)
    record = RunRecord(
        run_id=run_id,
        config=config,
        csv_path=str(csv_path),
        summary={
            "diverged": diverged,
            "init_attempts": attempts,
            "runtime_s": elapsed,
            "iterations": last.iteration if last else 0,
            "final_loss": last.loss if last else math.nan,
            **{
                f"final_{_free_entry_column(ij)}": last.unobserved[ij] if last else math.nan
                for ij in task.unobserved_indices()
            },
            "converged": converged,
        },
    )
    record.write(out_dir / f"{run_id}.json")
    return record


def run_matfac_sweep(cfg: MatfacSweepConfig, jobs: int = 1) -> list[RunRecord]:
    return _map_jobs(run_matfac, cfg.expand(), jobs)


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


def detsign_distributions(depth: int, dim: int) -> list[str]:
    """The distributions a det-sign study compares: one Gaussian matrix,
    a depth-``depth`` Gaussian product, and the identity sanity path."""
    dists = ["gaussian", f"gaussian-product-{depth}", "identity"]
    return dists if dim == 2 else [f"{d}@{dim}" for d in dists]


def run_detsign(n_samples: int, distributions: Sequence[str], seed: int, out=None):
    """Empirical P(det > 0) per distribution, with a 3-sigma binomial
    interval.  Distributions: "gaussian" (one square Gaussian matrix),
    "gaussian-product-L" (product of L of them), "identity" (sanity
    path, P = 1).  Append "@d" for a dimension other than 2.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    rows = []
    for k, name in enumerate(distributions):
        base, _, dim_part = name.partition("@")
        dim = int(dim_part) if dim_part else 2
        if dim < 1:
            raise ValueError(f"{name!r}: dim must be >= 1")
        gen = stream(seed, 23, k)
        if base == "identity":
            p = 1.0
        else:
            if base == "gaussian":
                factors = 1
            elif base.startswith("gaussian-product-"):
                factors = int(base.removeprefix("gaussian-product-"))
                if factors < 1:
                    raise ValueError(f"{name!r}: depth must be >= 1")
            else:
                raise ValueError(f"unknown distribution {name!r}")
            prod = None
            for _ in range(factors):
                draw = gen.standard_normal((n_samples, dim, dim))
                prod = draw if prod is None else draw @ prod
            p = float(np.mean(matfac.leading_minor_dets(prod) > 0))
        half = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)
        rows.append(
            {"distribution": name, "n": n_samples, "p_det_pos": p, "ci_low": p - half, "ci_high": p + half}
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
        if isinstance(result, matfac.DivergenceError):
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
