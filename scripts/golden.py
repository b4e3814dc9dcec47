#!/usr/bin/env python3
"""Check that a fixed set of implreg outputs keeps its exact bytes.

Regenerates, in a temporary directory, in a few seconds:

- the 17 cells of the depth-2/3/4 entry-vs-loss presets
  (configs/matfac_entry_vs_loss_depth{2,3,4}.json: 2x2 base task, log
  stride 500) capped at 2,500 steps, at seeds 0-2, run through the
  process pool as `implreg matfac --jobs 2` runs them: the manifest was
  recorded serially, so these digests also check that the pool changes
  no byte;
- two cells logged at every step (3x4 extended task at depth 3, and
  the perturbed 2x2 task at depth 2) with their loss-vs-entry SVG, at
  seeds 0-2;
- the quick outputs of scripts/reproduce_entry_vs_loss.py, which must
  exit 0;
- an 8x8x8 rank-2 tensor sweep CSV (400 observations, three seeds) and
  its sweep SVG at seeds 0-2;
- a 3x3x3 rank-1 tensor sweep CSV (15 observations, two seeds, the
  linear baseline) at init scales 1e-3 and 1e13, at seeds 0-2: every
  1e13 run diverges at iteration 0, so its cells are blank and the
  aggregate rows of that scale are left out;
- stacked CP runs on unequal dims at seeds 0-2, one JSON per seed: four
  runs of 4 terms on a (3, 4, 5) task and four of 5 terms on a
  (2, 3, 4, 2) task, whose members stop at different iterations, each
  with its iterations, trajectory and a digest of its factors; and the
  estimated rank of the configs/tenfac_* ground truths;
- lone CP runs at seeds 0-2, one JSON per seed: train_cp at init 1e-1
  on the (5,) and (4, 3) tasks of 3 terms and the (3, 4, 5) and
  (2, 3, 4, 2) tasks of 4 and 5 terms that the stacks of
  tests/test_tenfac.py::TestStackedRuns train on, recorded like the
  stacked runs; and the 8x8x8 sweep CSV above with its one seed alone;
- runs near the 1e12 entry limit, at seeds 0-2: divergence runs on the
  base task (balanced alpha 1.0, depths 2-3, steps 1.0 and 3.0, logged
  at every step), and the perturbed task with an observed value of 9e11
  (it starts with a loss above the bound that keeps observed entries
  within the limit) or 2e12 (past the limit: no such bound);
- runs that diverge at iteration 0 and write the CSV header alone, at
  seeds 0-2: depth 2, step 1e-2, balanced init of scale 1e13 on the
  base task, on the 3x4 extended task (also at scale 1e200, whose
  product overflows) and on the perturbed task with the free entry at
  [1, 2];
- identity-init runs on the base task (alpha 1e-3, the start of
  acceptance criterion 1) at depths 2-4, step 1e-2, 20,000 steps;
- determinant-sign Monte Carlo CSVs of 1,000 samples at (depth, dim)
  = (2, 2), (3, 2) and (3, 3), at seeds 0-2;
- the arithmetic lines of the generated step function: for 2x2
  factors at depths 1-5, observing the row-major entries (1, 2, 3) and
  (0, 2, 3), and for the dense-logged 3x4 extended cell (depth 3,
  factors 3x4, 3x3, 3x3, every entry but (0, 0) observed).

Run records are compared with their runtime and output paths left out.
The sha256 of every output is compared with golden/manifest.json, which
also records the Python and numpy versions it was made with: float
formatting, libm's hypot and numpy's kernels may change the last bit
under other versions.

    python scripts/golden.py            # exit 1 if a digest differs
    python scripts/golden.py --report   # print the comparison, exit 0
    python scripts/golden.py --update   # print the comparison, rewrite the manifest
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from implreg import harness, matfac, svgplot, tenfac  # noqa: E402

MANIFEST = ROOT / "golden" / "manifest.json"
SEEDS = (0, 1, 2)

STEP_PATTERNS = ((1, 2, 3), (0, 2, 3))
DETSIGN_CELLS = ((2, 2), (3, 2), (3, 3))  # (depth, dim)
# a float assignment of the generated step: product and gradient terms,
# residuals, the loss and the factor updates
_STEP_LINE = re.compile(r"\s*(t\d+|r\d+|lo|w\d+_\d+) = ")


def _grid(seed: int, out_dir: Path) -> list[Path]:
    paths = []
    for depth in (2, 3, 4):
        preset = harness.load_config(ROOT / "configs" / f"matfac_entry_vs_loss_depth{depth}.json")
        sweep = dataclasses.replace(preset, max_iters=2_500, seeds=(seed,), out_dir=str(out_dir))
        paths += [Path(rec.csv_path) for rec in harness.run_matfac_sweep(sweep, jobs=2)]
    return paths


def _dense_log(seed: int, out_dir: Path) -> list[Path]:
    common = dict(
        init=harness.InitSpec(kind="balanced", alpha=1e-3, det_sign=None),
        loss_threshold=0.0,
        log_stride=1,
        seed=seed,
        out_dir=str(out_dir),
    )
    cells = [
        harness.MatfacRunConfig(
            task=harness.TaskSpec(kind="extended", rows=3, cols=4),
            depth=3,
            learning_rate=0.03,
            max_iters=1_000,
            **common,
        ),
        harness.MatfacRunConfig(
            task=harness.TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.01),
            depth=2,
            learning_rate=1e-2,
            max_iters=2_000,
            **common,
        ),
    ]
    csvs = [Path(harness.run_matfac(cfg).csv_path) for cfg in cells]
    svg = svgplot.emit_plot(csvs, "loss-vs-entry", out_dir / "loss_vs_entry.svg", title="dense log")
    return csvs + [svg]


def _runs(cells: list[dict]):
    """The maker of one harness.run_matfac run per cell (MatfacRunConfig
    fields besides seed and out_dir) at a seed."""

    def make(seed: int, out_dir: Path) -> list[Path]:
        cfgs = (harness.MatfacRunConfig(seed=seed, out_dir=str(out_dir), **cell) for cell in cells)
        return [Path(harness.run_matfac(cfg).csv_path) for cfg in cfgs]

    return make


_diverge = _runs(
    [
        dict(
            task=harness.TaskSpec(kind="base"),
            depth=depth,
            learning_rate=lr,
            init=harness.InitSpec(kind="balanced", alpha=1.0, det_sign=1),
            max_iters=1_000,
            log_stride=1,
        )
        for depth in (2, 3)
        for lr in (1.0, 3.0)
    ]
)
_large_target = _runs(
    [
        dict(
            task=harness.TaskSpec(kind="perturbed", z=z, z_prime=1.0, eps=0.0),
            depth=2,
            learning_rate=5e-13,
            init=harness.InitSpec(kind="balanced", alpha=1e-3, det_sign=None),
            max_iters=2_000,
            log_stride=1,
        )
        for z in (9e11, 2e12)
    ]
)
_diverge_at_0 = _runs(
    [
        dict(
            task=task,
            depth=2,
            learning_rate=1e-2,
            init=harness.InitSpec(kind="balanced", alpha=alpha, det_sign=0),
            max_iters=10,
            log_stride=1,
        )
        for task, alpha in (
            (harness.TaskSpec(kind="base"), 1e13),
            (harness.TaskSpec(kind="extended", rows=3, cols=4), 1e13),
            (harness.TaskSpec(kind="extended", rows=3, cols=4), 1e200),
            (harness.TaskSpec(kind="perturbed", unobserved=(1, 2)), 1e13),
        )
    ]
)
_identity = _runs(
    [
        dict(
            task=harness.TaskSpec(kind="base"),
            depth=depth,
            learning_rate=1e-2,
            init=harness.InitSpec(kind="identity", alpha=1e-3, det_sign=None),
            max_iters=20_000,
            log_stride=2_000,
        )
        for depth in (2, 3, 4)
    ]
)


def _tenfac_sweep(seed: int, out_dir: Path, seeds: tuple[int, ...]) -> Path:
    cfg = harness.TenfacSweepConfig(
        dims=(8, 8, 8),
        gt_rank=2,
        gt_seed=0,
        obs_seed=seed + 1,
        n_obs=(400,),
        init_stds=(1e-2,),
        seeds=seeds,
        mse_threshold=1e-6,
        max_iters=1_000_000,
        baseline=True,
        baseline_rank=False,
        out_dir=str(out_dir),
    )
    return harness.run_tenfac_sweep(cfg)


def _tenfac_diverge(seed: int, out_dir: Path) -> list[Path]:
    cfg = harness.TenfacSweepConfig(
        dims=(3, 3, 3),
        gt_rank=1,
        gt_seed=0,
        obs_seed=seed + 1,
        n_obs=(15,),
        init_stds=(1e-3, 1e13),
        seeds=(seed, seed + 1),
        baseline=True,
        out_dir=str(out_dir),
    )
    return [harness.run_tenfac_sweep(cfg)]


def _tenfac(seed: int, out_dir: Path) -> list[Path]:
    csv_path = _tenfac_sweep(seed, out_dir, (seed, seed + 1, seed + 2))
    return [csv_path, svgplot.emit_plot([csv_path], "sweep", out_dir / "sweep.svg", title="tensor sweep")]


# (dims, terms) of the stacked CP runs; TestStackedRuns' unequal-dims stacks
CP_STACKS = (((3, 4, 5), 4), ((2, 3, 4, 2), 5))
# (dims, truth rank, observations, terms, mse threshold, max iters) of the
# lone CP runs' tasks: TestStackedRuns' order-1 and order-2 tasks and its
# unequal-dims ones, with their stops
CP_LONE = (
    ((5,), 1, 3, 3, 1e-6, 3_000),
    ((4, 3), 1, 10, 3, 1e-6, 3_000),
    ((3, 4, 5), 2, 30, 4, 1e-3, 2_000),
    ((2, 3, 4, 2), 2, 24, 5, 1e-3, 2_000),
)


def _cp_record(init_std: float, seed: int, result) -> dict:
    factors = b"".join(f.tobytes() for f in result.model.factors)
    return {
        "init_std": init_std,
        "seed": seed,
        "iterations": result.iterations,
        "converged": result.converged,
        "trajectory": list(zip(*result.trajectory.values())),
        "factors_sha256": hashlib.sha256(factors).hexdigest(),
    }


def _write_json(doc: dict, path: Path) -> list[Path]:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return [path]


def _cp_runs(seed: int, out_dir: Path) -> list[Path]:
    # at seed 0 the stacks of tests/test_tenfac.py::TestStackedRuns
    stacks = []
    for dims, terms in CP_STACKS:
        truth = tenfac.gen_ground_truth(dims, 2, seed=seed + 1)
        task = tenfac.sample_observations(truth, int(np.prod(dims)) // 2, seed=seed + 2)
        runs = [(1e-1, seed + 3), (1e-2, seed), (3e-1, seed + 5), (5e-2, seed + 4)]
        results = tenfac.train_cp_runs(task, terms, runs, 1e-3, 2_000)
        members = [_cp_record(init_std, run_seed, result) for (init_std, run_seed), result in zip(runs, results)]
        stacks.append({"dims": dims, "terms": terms, "runs": members})
    ranks = []
    for path in sorted((ROOT / "configs").glob("tenfac_*.json")):
        cfg = json.loads(path.read_text())
        truth = tenfac.gen_ground_truth(cfg["dims"], cfg["gt_rank"], cfg["gt_seed"])
        ranks.append({"config": path.name, "estimate_rank": tenfac.estimate_rank(truth)})
    return _write_json({"stacks": stacks, "ranks": ranks}, out_dir / "cp-runs.json")


def _cp_lone(seed: int, out_dir: Path) -> list[Path]:
    runs = []
    for dims, rank, n_obs, terms, mse_threshold, max_iters in CP_LONE:
        task = tenfac.sample_observations(tenfac.gen_ground_truth(dims, rank, seed=1), n_obs, seed=2)
        result = tenfac.train_cp(task, terms, 1e-1, seed, mse_threshold, max_iters)
        runs.append({"dims": dims, "terms": terms, **_cp_record(1e-1, seed, result)})
    return _write_json({"runs": runs}, out_dir / "cp-lone.json") + [_tenfac_sweep(seed, out_dir, (seed,))]


def _detsign(seed: int, out_dir: Path) -> list[Path]:
    paths = []
    for depth, dim in DETSIGN_CELLS:
        path = out_dir / f"d{depth}-dim{dim}.csv"
        harness.run_detsign(1_000, depth, dim, seed, out=path)
        paths.append(path)
    return paths


def _repro(out_dir: Path) -> list[Path]:
    script = ROOT / "scripts" / "reproduce_entry_vs_loss.py"
    subprocess.run([sys.executable, str(script), "--out-dir", str(out_dir)], check=True, stdout=subprocess.DEVNULL)
    return sorted(out_dir.iterdir())


def _step_lines(shapes: tuple[tuple[int, int], ...], observed: tuple[int, ...]) -> bytes:
    """The float assignments of the generated step source, stripped of
    indentation: the forward pass at entry, then one step's update and
    forward pass.  The source is caught on its way to ``compile``."""
    sources = []

    def catch(src, *args):
        sources.append(src)
        return compile(src, *args)

    matfac.compile = catch
    try:
        matfac._step_function.__wrapped__(shapes, observed)
    finally:
        del matfac.compile
    (src,) = sources
    return "".join(line.strip() + "\n" for line in src.splitlines() if _STEP_LINE.match(line)).encode()


def _digest_file(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json" and path.with_suffix(".csv").is_file():
        # a run record: its runtime and where it was written are no part
        # of what the run computed
        doc = json.loads(data)
        doc["summary"].pop("runtime_s")
        doc["config"].pop("out_dir")
        doc["csv_path"] = Path(doc["csv_path"]).name
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """Output name -> sha256, for every output listed in the docstring."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for seed in SEEDS:
            for group, make in (
                ("grid", _grid),
                ("dense-log", _dense_log),
                ("tenfac", _tenfac),
                ("tenfac-diverge", _tenfac_diverge),
                ("cp-runs", _cp_runs),
                ("cp-lone", _cp_lone),
                ("diverge", _diverge),
                ("large-target", _large_target),
                ("diverge-at-0", _diverge_at_0),
                ("identity", _identity),
                ("detsign", _detsign),
            ):
                out_dir = tmp / group / f"s{seed}"
                for csv_path in make(seed, out_dir):
                    out[f"{group}/s{seed}/{csv_path.name}"] = _digest_file(csv_path)
                    record = csv_path.with_suffix(".json")
                    if csv_path.suffix == ".csv" and record.is_file():
                        out[f"{group}/s{seed}/{record.name}"] = _digest_file(record)
        for path in _repro(tmp / "repro"):
            out[f"repro/{path.name}"] = _digest_file(path)
    steps = {
        f"step/d{depth}-obs{''.join(map(str, observed))}": (((2, 2),) * depth, observed)
        for depth in range(1, 6)
        for observed in STEP_PATTERNS
    }
    steps["step/extended3x4-d3"] = (((3, 4), (3, 3), (3, 3)), tuple(range(1, 12)))
    for name, (shapes, observed) in steps.items():
        out[name] = hashlib.sha256(_step_lines(shapes, observed)).hexdigest()
    return dict(sorted(out.items()))


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def compare(manifest: dict, got: dict[str, str]) -> list[str]:
    """One line per output whose digest differs, is new or is missing."""
    want = manifest["digests"]
    lines = [f"differs: {k}" for k in sorted(want.keys() & got.keys()) if want[k] != got[k]]
    lines += [f"missing: {k}" for k in sorted(want.keys() - got.keys())]
    lines += [f"new:     {k}" for k in sorted(got.keys() - want.keys())]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true", help="rewrite golden/manifest.json from this build")
    mode.add_argument("--report", action="store_true", help="print the comparison and exit 0")
    args = ap.parse_args(argv)

    got = digests()
    if args.update:
        if MANIFEST.is_file():
            for line in compare(json.loads(MANIFEST.read_text()), got):
                print(line)
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps({**versions(), "digests": got}, indent=2) + "\n")
        print(f"wrote {len(got)} digests to {MANIFEST.relative_to(ROOT)}")
        return 0

    manifest = json.loads(MANIFEST.read_text())
    recorded = {k: manifest[k] for k in versions()}
    if recorded != versions():
        print(f"note: manifest recorded under {recorded}, running under {versions()}")
    problems = compare(manifest, got)
    for line in problems:
        print(line)
    if not problems:
        print(f"all {len(got)} digests match")
        return 0
    matched = sum(manifest["digests"].get(k) == v for k, v in got.items())
    print(f"{matched} of {len(manifest['digests'])} recorded digests match")
    return 0 if args.report else 1


if __name__ == "__main__":
    sys.exit(main())
