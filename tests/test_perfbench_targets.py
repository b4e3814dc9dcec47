"""The benchmark's files, loaded by path: every name the traced
benchmark patches must still exist where it looks for it, and the bound
check it runs on its preset cells must pass on the same cells here."""

import dataclasses
import importlib.util
from pathlib import Path

from implreg import harness

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}_under_test", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_callable():
    targets = list(load_perfbench("layers")._targets())
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names gone: {missing}"


def test_preset_cells_keep_their_bounds(tmp_path):
    # matfac-grid's 17 preset cells at its 2,500-step cap and
    # matfac-dense-log's perturbed cell, at seed 0: on every faithful
    # sample each thm1/thm2 bound column holds
    checks = load_perfbench("checks")
    records = []
    for depth in (2, 3, 4):
        preset = harness.load_config(ROOT / "configs" / f"matfac_entry_vs_loss_depth{depth}.json")
        sweep = dataclasses.replace(preset, max_iters=2_500, seeds=(0,), out_dir=str(tmp_path))
        records += harness.run_matfac_sweep(sweep)
    perturbed = harness.MatfacRunConfig(
        task=harness.TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.01),
        depth=2,
        learning_rate=1e-2,
        init=harness.InitSpec(kind="balanced", alpha=1e-3, det_sign=None),
        loss_threshold=0.0,
        max_iters=2_000,
        log_stride=1,
        out_dir=str(tmp_path),
    )
    records.append(harness.run_matfac(perturbed))
    assert len(records) == 18
    excess = {}
    for rec in records:
        rows = checks.read_rows(rec.csv_path)
        worst = checks.bound_excess(rows, checks.faithful_flags(rows))
        if worst is not None:
            excess[rec.run_id] = worst
    assert len(excess) >= 11, f"only {len(excess)} cells have faithful samples"
    exceeded = {run_id: worst for run_id, worst in excess.items() if max(worst.values()) > 0}
    assert not exceeded, f"bounds exceeded on faithful samples: {exceeded}"
