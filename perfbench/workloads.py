"""The benchmark's workloads: input generation, one pass, and the
checks on a pass's outputs.

Every workload drives implreg through its public API in this process
(``--jobs 1``).  Inputs depend only on the workload seed.  A pass
writes into ``out_dir``, which the caller empties between passes, and
is cut into laps (``tracing.Laps``): one per matfac cell, the plot,
and the whole tenfac sweep.

- ``matfac-grid``: the paired learning-rate / init-scale grids of the
  depth-2, 3 and 4 entry-vs-loss presets on the 2x2 base task, loss
  target 1e-4, log stride 500, each cell capped at 2,500 steps.  One
  ``harness.run_matfac`` call per cell, so a failing cell is counted
  and the pass goes on.  The GD step is almost all of the time here.
- ``matfac-dense-log``: two cells logged at every step (the 3x4
  extended task at depth 3 for 1,000 steps; the perturbed 2x2 task
  z = z' = 1, eps = 0.01 at depth 2, lr 1e-2, for 2,000 steps), then a
  loss-vs-entry SVG read back from both CSVs.  The cost per logged
  sample dominates: SVDs, Schatten norms, bounds, the CSV write.
- ``tenfac-sweep``: an 8x8x8 rank-2 ``tenfac-sweep`` config (400
  observations, init std 1e-2, three seeds, linear baseline) run
  through ``cli.main``.  CP training, ALS and ground-truth generation.
  The ground truth is the same for every seed (see ``TENFAC_GT_SEED``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from implreg import cli, harness, svgplot

import checks

DEFAULT_SEED = 0
GRID_MAX_ITERS = 2_500

# (learning rates, init scales) of configs/matfac_entry_vs_loss_depth{2,3,4}.json
GRIDS = {
    2: ((0.06, 0.03, 0.009, 0.006, 0.003, 0.0009), (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)),
    3: ((0.06, 0.03, 0.009, 0.006, 0.003, 0.0009), (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)),
    4: ((0.006, 0.0045, 0.003, 0.0015, 0.001), (0.1, 1e-2, 1e-3, 1e-4, 1e-5)),
}
TENFAC_CELLS = 3
# one fixed ground truth: its rank search costs the same for every seed
TENFAC_GT_SEED = 0


@dataclass
class Unit:
    """One checked item of a pass: a matfac cell, a tenfac cell, the
    tenfac linear baseline, or the plot."""

    key: str
    kind: str
    task: str | None = None
    values: dict = field(default_factory=dict)
    path: Path | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# inputs


def _grid_inputs(seed: int, out_dir: Path):
    cells = []
    for depth, (rates, alphas) in GRIDS.items():
        sweep = harness.MatfacSweepConfig(
            task=harness.TaskSpec(kind="base"),
            depths=(depth,),
            learning_rates=rates,
            alphas=alphas,
            pair_lr_alpha=True,
            init_kind="balanced",
            det_sign=1,
            loss_threshold=1e-4,
            max_iters=GRID_MAX_ITERS,
            log_stride=500,
            seeds=(seed,),
            out_dir=str(out_dir),
        )
        for cfg in sweep.expand():
            cells.append((f"d{depth}/lr{cfg.learning_rate:g}/alpha{cfg.init.alpha:g}", cfg))
    return cells


def _dense_log_inputs(seed: int, out_dir: Path):
    # loss_threshold 0 never stops a run early: each cell takes exactly
    # max_iters steps, whatever the seed
    init = harness.InitSpec(kind="balanced", alpha=1e-3, det_sign=None)
    common = dict(init=init, loss_threshold=0.0, log_stride=1, seed=seed, out_dir=str(out_dir))
    cells = [
        (
            "extended3x4/d3",
            harness.MatfacRunConfig(
                task=harness.TaskSpec(kind="extended", rows=3, cols=4),
                depth=3,
                learning_rate=0.03,
                max_iters=1_000,
                **common,
            ),
        ),
        (
            "perturbed/d2",
            harness.MatfacRunConfig(
                task=harness.TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.01),
                depth=2,
                learning_rate=1e-2,
                max_iters=2_000,
                **common,
            ),
        ),
    ]
    return cells, out_dir / "loss_vs_entry.svg"


def _tenfac_inputs(seed: int, out_dir: Path):
    doc = {
        "kind": "tenfac-sweep",
        "dims": [8, 8, 8],
        "gt_rank": 2,
        "gt_seed": TENFAC_GT_SEED,
        "obs_seed": seed + 1,
        "n_obs": [400],
        "init_stds": [1e-2],
        "seeds": [seed + k for k in range(TENFAC_CELLS)],
        "mse_threshold": 1e-6,
        "max_iters": 1_000_000,
        "baseline": True,
        "baseline_rank": False,
        "out_dir": str(out_dir),
    }
    path = out_dir.parent / "tenfac-sweep.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# one pass: ``execute(inputs, laps)`` is the timed part, ``collect``
# turns its raw outcome into checked units


def _run_cells(cells, laps):
    out = []
    for key, cfg in cells:
        laps.mark(key)
        try:
            out.append((key, cfg, harness.run_matfac(cfg)))
        except Exception as exc:  # ResampleError, KernelError, ...: the cell fails, the pass goes on
            out.append((key, cfg, exc))
    return out


def _cell_units(raw) -> list[Unit]:
    units = []
    for key, cfg, rec in raw:
        unit = Unit(key, "matfac", task=cfg.task.kind)
        if isinstance(rec, Exception):
            unit.error = f"{type(rec).__name__}: {rec}"
        else:
            s = rec.summary
            unit.values = {k: s[k] for k in ("iterations", "final_loss", "final_w11")}
            unit.path = Path(rec.csv_path)
            if s["diverged"]:
                unit.error = "diverged"
        units.append(unit)
    return units


def _execute_dense_log(inputs, laps):
    cells, svg_path = inputs
    raw = _run_cells(cells, laps)
    csvs = [rec.csv_path for _, _, rec in raw if not isinstance(rec, Exception)]
    laps.mark("plot")
    try:
        plot = svgplot.emit_plot(csvs, "loss-vs-entry", svg_path, title="perfbench dense log")
    except Exception as exc:  # the plot fails, the cells still count
        plot = exc
    return raw, plot


def _collect_dense_log(inputs, outcome):
    raw, plot = outcome
    units = _cell_units(raw)
    unit = Unit("plot", "plot")
    if isinstance(plot, Exception):
        unit.error = f"{type(plot).__name__}: {plot}"
    else:
        unit.path = Path(plot)
        unit.values = {"rows_read": sum(checks.csv_data_rows(u.path) for u in units if u.path)}
    return units + [unit]


def _execute_tenfac(config_path, laps):
    stdout = io.StringIO()
    laps.mark("sweep")
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["tenfac", "--config", str(config_path), "--jobs", "1"])
    except Exception as exc:  # fails every cell of the pass
        return exc
    return code, stdout.getvalue()


def _collect_tenfac(config_path, outcome):
    keys = [f"tf/{k}" for k in range(TENFAC_CELLS)] + ["linear"]
    if isinstance(outcome, Exception) or outcome[0] != 0:
        why = f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else f"exit {outcome[0]}"
        return [Unit(k, "tenfac", error=f"cli.main: {why}") for k in keys]
    printed = outcome[1].strip().splitlines()
    path = Path(printed[-1]) if printed else None
    if path is None or not path.is_file():
        return [Unit(k, "tenfac", error="cli.main printed no sweep CSV path") for k in keys]
    rows = checks.read_rows(path)
    tf = [r for r in rows if r["row"] == "cell" and r["method"] == "tf"]
    linear = [r for r in rows if r["row"] == "cell" and r["method"] == "linear"]
    units = []
    for key, r in zip(keys, tf + linear):
        unit = Unit(key, "tenfac", path=path)
        unit.values = {"recon_error": r["recon_error"]}
        if r["method"] == "tf":
            unit.values["est_rank"] = r["est_rank"]
        units.append(unit)
    for key in keys[len(units):]:
        units.append(Unit(key, "tenfac", error="row missing from the sweep CSV"))
    return units


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    execute: object
    collect: object
WORKLOADS = {
    "matfac-grid": Workload(_grid_inputs, _run_cells, lambda inputs, raw: _cell_units(raw)),
    "matfac-dense-log": Workload(_dense_log_inputs, _execute_dense_log, _collect_dense_log),
    "tenfac-sweep": Workload(_tenfac_inputs, _execute_tenfac, _collect_tenfac),
}


# ---------------------------------------------------------------------------
# checks


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PassReport:
    units: list[Unit]
    failures: dict[str, str]
    counts: dict[str, int]
    faithful: dict[str, tuple[int, int]]  # key -> (faithful samples, samples)
    exit_iter: dict[str, int | None]  # key -> iteration of the first sample off the branch
    excess: dict[str, dict | None]  # key -> worst bound excess on faithful samples


def check_pass(units: list[Unit], out_dir: Path, digests: dict, reference: dict | None) -> PassReport:
    """Check one pass's units and count its outputs.

    ``digests`` maps unit keys to the output digest of the first pass of
    this seed and is filled on first sight; ``reference`` holds the
    default seed's recorded values (None for other seeds).
    """
    failures: dict[str, str] = {}
    faithful: dict[str, tuple[int, int]] = {}
    exit_iter: dict[str, int | None] = {}
    excess: dict[str, dict | None] = {}
    counts = {"cells": 0, "gd_steps": 0, "samples": 0, "faithful_samples": 0, "rows_read": 0, "svg_bytes": 0}
    for u in units:
        if u.kind in ("matfac", "tenfac") and u.key != "linear":
            counts["cells"] += 1
        if u.error:
            failures[u.key] = u.error
            continue
        problems = []
        if u.kind == "matfac":
            rows = checks.read_rows(u.path)
            flags = checks.faithful_flags(rows)
            faithful[u.key] = (sum(flags), len(rows))
            end = checks.branch_exit(rows)
            exit_iter[u.key] = None if end is None else int(rows[end]["iter"])
            counts["gd_steps"] += int(u.values["iterations"])
            counts["samples"] += len(rows)
            counts["faithful_samples"] += sum(flags)
            excess[u.key] = checks.bound_excess(rows, flags)
            if u.task in checks.BOUND_CHECK_TASKS and excess[u.key]:
                problems += [f"{name} bound exceeded by {v:.3g}" for name, v in excess[u.key].items() if v > 0]
        elif u.kind == "tenfac":
            err = float(u.values["recon_error"] or "nan")
            if not (math.isfinite(err) and err >= 0):
                problems.append(f"recon_error {u.values['recon_error']!r}")
            if "est_rank" in u.values and not u.values["est_rank"].replace(".", "", 1).isdigit():
                problems.append(f"est_rank {u.values['est_rank']!r}")
        elif u.kind == "plot":
            svg = u.path.read_text()
            counts["rows_read"] += u.values["rows_read"]
            counts["svg_bytes"] += len(svg.encode())
            if not (svg.lstrip().startswith("<") and svg.rstrip().endswith("</svg>")):
                problems.append("not a complete SVG document")
            if svg.count("<polyline") < len(units) - 1:
                problems.append("a series is missing from the plot")
        if reference is not None and u.kind != "plot":
            ref = reference.get(u.key)
            problems += checks.compare_reference(u.values, ref) if ref else ["no reference value recorded"]
        digest = _digest(u.path)
        if digests.setdefault(u.key, digest) != digest:
            problems.append("output differs from the first pass of this seed")
        if problems:
            failures[u.key] = "; ".join(problems)
    csvs = sorted(out_dir.rglob("*.csv"))
    counts["csv_bytes"] = sum(p.stat().st_size for p in csvs)
    counts["csv_rows"] = sum(checks.csv_data_rows(p) for p in csvs)
    return PassReport(units, failures, counts, faithful, exit_iter, excess)
