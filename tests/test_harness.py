import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from implreg import harness, matfac, metrics, svgplot
from implreg.harness import (
    InitSpec,
    MatfacRunConfig,
    MatfacSweepConfig,
    TaskSpec,
    TenfacSweepConfig,
    load_config,
    parse_config,
    resolve_seed,
    run_detsign,
    run_matfac,
    run_matfac_sweep,
    run_tenfac_sweep,
    trajectory_rows,
    write_csv,
)
from implreg.rng import stream


def csvs_at_jobs(tmp_path, monkeypatch, run, cfg, jobs):
    out = outputs_in(tmp_path / f"jobs{jobs}", monkeypatch, lambda: run(cfg, jobs=jobs))
    return {p: data for p, data in out.items() if p.suffix == ".csv"}


def outputs_in(where, monkeypatch, run):
    # the CSV bytes and JSON records (runtime left out) that ``run``
    # writes under a fresh working directory: the same relative out_dir
    # there keeps run ids and paths equal
    where.mkdir()
    monkeypatch.chdir(where)
    run()
    out = {}
    for p in sorted(where.rglob("*")):
        if p.suffix == ".csv":
            out[p.relative_to(where)] = p.read_bytes()
        elif p.suffix == ".json":
            doc = json.loads(p.read_text())
            doc["summary"].pop("runtime_s")
            out[p.relative_to(where)] = doc
    return out


def quick_run_config(out_dir, seed=3, task=None, **overrides):
    kw = dict(
        task=task or TaskSpec(kind="base"),
        depth=2,
        learning_rate=3e-2,
        init=InitSpec(kind="identity", alpha=0.1),
        loss_threshold=1e-3,
        max_iters=200_000,
        log_stride=50,
        seed=seed,
        out_dir=str(out_dir),
    )
    kw.update(overrides)
    return MatfacRunConfig(**kw)


def dense_sweep(task, depths, learning_rate, alpha, max_iters):
    """A two-seed sweep of one rate and init scale, logged at every step
    and run to its cap."""
    return MatfacSweepConfig(
        task=task,
        depths=depths,
        learning_rates=(learning_rate,),
        alphas=(alpha,),
        loss_threshold=0.0,
        max_iters=max_iters,
        log_stride=1,
        seeds=(0, 1),
    )


def format_float(x: float) -> str:
    """write_csv's rendering of a float: 17 significant digits."""
    return f"{x:.17g}"


def read_csv(path) -> list[dict[str, str]]:
    """What write_csv wrote, read back by the csv module."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def written_cells(tmp_path, values) -> list[str]:
    """The cells write_csv writes for ``values``, one a row."""
    return [row["x"] for row in read_csv(write_csv(tmp_path / "cells.csv", ["x"], [[v] for v in values]))]


class TestFloatFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=500), size=500).tolist()
        values += [0.0, -0.0, 1e-308, math.pi, 2.0 / 3.0]
        # repr tells every double apart, the sign of zero included
        assert [repr(float(c)) for c in written_cells(tmp_path, values)] == [repr(v) for v in values]

    def test_non_finite(self, tmp_path):
        assert written_cells(tmp_path, [math.inf, -math.inf, math.nan, -math.nan]) == ["inf", "-inf", "nan", "nan"]


def old_format_float(x):
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    if x != x:
        return "nan"
    return f"{x:.17g}"


def old_write_csv(path, header, rows):
    # the csv-module writer the row-format writer replaced
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([old_format_float(v) if isinstance(v, float) else v for v in row])
    return path


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e308, 2.2250738585072014e-308]


class TestWriteCsvMatchesCsvModule:
    def mixed_rows(self):
        rng = np.random.default_rng(7)
        randoms = (rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)).tolist()
        rows = [[k, *SPECIAL_FLOATS[k % 10 : k % 10 + 3], randoms[k], "tf", ""] for k in range(12)]
        rows += [
            [np.float64(v) for v in SPECIAL_FLOATS[:8]],
            [np.int64(-3), np.float64(0.1), True, False, "linear", "", 7, -0.0],
            [1, 2.5, "x", 3, 4.0, "", "", ""],  # types differ from the row before
            ["cell", "tf", 400, 0.01, 2, randoms[-1], 2, "", "", "", ""],
            [float(x) for x in randoms[20:]],
        ]
        return rows

    def test_bytes_equal_old_writer(self, tmp_path):
        header = ["a", "b", "c", "d", "e", "f", "g", "h"]
        rows = self.mixed_rows()
        new = write_csv(tmp_path / "new.csv", header, rows).read_bytes()
        assert new == old_write_csv(tmp_path / "old.csv", header, rows).read_bytes()

    def test_trajectory_tuples_equal_old_writer(self, tmp_path):
        rows = [tuple(r) for r in self.mixed_rows()]
        new = write_csv(tmp_path / "new.csv", ["x"], rows).read_bytes()
        assert new == old_write_csv(tmp_path / "old.csv", ["x"], rows).read_bytes()

    def test_header_only(self, tmp_path):
        header = harness.MATFAC_BASE_COLUMNS
        new = write_csv(tmp_path / "new.csv", header, []).read_bytes()
        assert new == old_write_csv(tmp_path / "old.csv", header, []).read_bytes()

    def test_format_float_matches_old(self, tmp_path):
        # the tests' format_float oracle is write_csv's rendering and the old one
        values = SPECIAL_FLOATS + [math.pi, -1.5e-310, np.float64(-math.nan), 12345678901234567890.0]
        want = [old_format_float(v) for v in values]
        assert [format_float(v) for v in values] == want
        assert written_cells(tmp_path, values) == want

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\rhere"])
    def test_cell_needing_quotes_rejected(self, tmp_path, cell):
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "q.csv", ["name", "n"], [["ok", 1], [cell, 2]])
        with pytest.raises(ValueError, match="quoting"):
            write_csv(tmp_path / "q.csv", ["name", cell], [])
        assert not (tmp_path / "q.csv").exists()


class TestConfigs:
    def test_parse_round_trips_kind(self):
        cfg = parse_config({"kind": "matfac-run", "task": {"kind": "perturbed", "eps": 0.1}, "seed": 4})
        assert cfg.task.eps == 0.1
        assert cfg.seed == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"kind": "mystery"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"samples": 10})

    def test_bad_field_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"kind": "tenfac-sweep", "gt_rnak": 2})

    def test_json_lists_become_tuples(self):
        for doc, expected in (
            (
                {"kind": "matfac-sweep", "task": {"kind": "perturbed", "unobserved": [1, 2]}, "depths": [2]},
                MatfacSweepConfig(task=TaskSpec(kind="perturbed", unobserved=(1, 2)), depths=(2,)),
            ),
            (
                {"kind": "tenfac-sweep", "dims": [4, 4], "n_obs": [5], "init_stds": [1e-3], "seeds": [0]},
                TenfacSweepConfig(dims=(4, 4), n_obs=(5,), init_stds=(1e-3,), seeds=(0,)),
            ),
        ):
            assert parse_config(doc) == expected

    def test_load_presets(self):
        for name in (
            "matfac_entry_vs_loss_depth2.json",
            "matfac_entry_vs_loss_depth3.json",
            "matfac_entry_vs_loss_depth4.json",
            "tenfac_rank1_order3.json",
            "tenfac_rank3_order3.json",
        ):
            cfg = load_config(f"configs/{name}")
            assert cfg is not None

    def test_run_ids_injective_over_preset_grid(self):
        ids = set()
        count = 0
        for name in ("matfac_entry_vs_loss_depth2.json", "matfac_entry_vs_loss_depth3.json",
                     "matfac_entry_vs_loss_depth4.json"):
            for cfg in load_config(f"configs/{name}").expand():
                ids.add(cfg.run_id)
                count += 1
        assert len(ids) == count

    def test_run_id_stable_under_reserialization(self, tmp_path):
        cfg = quick_run_config(tmp_path)
        doc = json.loads(json.dumps({"kind": "matfac-run", **_cfg_doc(cfg)}))
        again = parse_config(doc)
        assert again.run_id == cfg.run_id

    def test_run_id_independent_of_out_dir(self, tmp_path):
        a = run_matfac(quick_run_config(tmp_path / "a"))
        b = run_matfac(quick_run_config(tmp_path / "b"))
        assert a.run_id == b.run_id and Path(a.csv_path).name == Path(b.csv_path).name
        sweep = TenfacSweepConfig(dims=(3, 3), gt_rank=1, n_obs=(4,), init_stds=(1e-2,), seeds=(0,), baseline=False)
        paths = [run_tenfac_sweep(replace(sweep, out_dir=str(tmp_path / d))) for d in "ab"]
        assert paths[0].name == paths[1].name and paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_precedence(self, monkeypatch):
        monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
        assert resolve_seed(None, 7) == 7
        monkeypatch.setenv(harness.SEED_ENV_VAR, "11")
        assert resolve_seed(None, 7) == 11
        assert resolve_seed(5, 7) == 5


def _cfg_doc(cfg):
    import dataclasses

    return dataclasses.asdict(cfg)


class TestInitSpec:
    @pytest.mark.parametrize("det_sign", [0, 1, None])
    def test_identity_with_a_positive_or_free_sign(self, det_sign):
        net, attempts = InitSpec(kind="identity", alpha=0.1, det_sign=det_sign).build(
            TaskSpec(kind="base").build(), 2, stream(0)
        )
        assert attempts == 1
        assert matfac.leading_minor_det(matfac.product_matrix(net)) == pytest.approx(0.01, rel=1e-12)

    @pytest.mark.parametrize(
        "task, det_sign",
        [(TaskSpec(kind="base"), -1), (TaskSpec(kind="perturbed", unobserved=(1, 2)), None)],
        ids=["explicit", "auto-off-diagonal"],
    )
    def test_identity_refuses_a_negative_sign(self, task, det_sign):
        # the identity product has determinant alpha^dim > 0 and is never redrawn
        with pytest.raises(ValueError, match="det_sign -1"):
            InitSpec(kind="identity", alpha=0.1, det_sign=det_sign).build(task.build(), 2, stream(0))


class TestRunMatfac:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = quick_run_config(tmp_path / "a")
        rec1 = run_matfac(cfg)
        cfg2 = quick_run_config(tmp_path / "b")
        rec2 = run_matfac(cfg2)
        assert open(rec1.csv_path, "rb").read() == open(rec2.csv_path, "rb").read()

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(
                MatfacSweepConfig(
                    depths=(2, 3),
                    learning_rates=(3e-2,),
                    alphas=(0.3,),
                    loss_threshold=1e-3,
                    max_iters=100_000,
                    log_stride=50,
                    seeds=(0, 1),
                ),
                id="to-loss-1e-3",
            ),
            # logged at every step: the 2x2 base task; the 3x4 extended
            # task and the 4x3 one, whose last factor starts with its extra
            # row cleared; and the base task from a small init that sits
            # near its saddle at a loss of about 1.0
            pytest.param(dense_sweep(TaskSpec(kind="base"), (2, 3), 3e-2, 1e-3, 2_000), id="dense-base"),
            pytest.param(
                dense_sweep(TaskSpec(kind="extended", rows=3, cols=4), (2, 3), 3e-2, 1e-3, 2_000),
                id="dense-extended3x4",
            ),
            pytest.param(
                dense_sweep(TaskSpec(kind="extended", rows=4, cols=3), (2, 3), 3e-2, 1e-3, 2_000),
                id="dense-extended4x3",
            ),
            pytest.param(dense_sweep(TaskSpec(kind="base"), (3, 4), 9e-4, 1e-7, 2_500), id="dense-saddle"),
        ],
    )
    def test_sweep_csvs_independent_of_jobs(self, tmp_path, monkeypatch, cfg):
        # the preset grid under the pool is golden.py's grid group
        serial = csvs_at_jobs(tmp_path, monkeypatch, run_matfac_sweep, cfg, 1)
        assert len(serial) == 4
        assert csvs_at_jobs(tmp_path, monkeypatch, run_matfac_sweep, cfg, 2) == serial

    def test_sweep_prepares_each_cell_once(self, tmp_path, monkeypatch):
        # three auto-sign cells: each one's task, init draw and det-sign
        # resampling are made once, and the sweep writes what separate
        # run_matfac calls write (runtime aside)
        cfg = MatfacSweepConfig(
            depths=(2,),
            learning_rates=(3e-2,),
            alphas=(0.3,),
            loss_threshold=1e-3,
            max_iters=100_000,
            log_stride=50,
            seeds=(0, 1, 2),
        )
        prepared, prepare = [], harness._prepare

        def counting(run):
            prepared.append(run)
            return prepare(run)

        monkeypatch.setattr(harness, "_prepare", counting)
        swept = outputs_in(tmp_path / "sweep", monkeypatch, lambda: run_matfac_sweep(cfg, jobs=1))
        assert len(prepared) == 3
        assert len(swept) == 6  # a CSV and a JSON record per cell
        alone = outputs_in(tmp_path / "alone", monkeypatch, lambda: [run_matfac(run) for run in cfg.expand()])
        assert swept == alone

    def test_csv_round_trip_exact(self, tmp_path):
        rec = run_matfac(quick_run_config(tmp_path))
        rows = read_csv(rec.csv_path)
        lossy = [float(r["loss"]) for r in rows]
        w11 = [float(r["w11"]) for r in rows]
        # parse, re-serialize, compare bytes: the 17-digit format is exact
        out = harness.write_csv(
            tmp_path / "again.csv",
            list(rows[0].keys()),
            [[int(r["iter"])] + [float(r[c]) for c in list(r.keys())[1:]] for r in rows],
        )
        assert open(out, "rb").read() == open(rec.csv_path, "rb").read()
        assert lossy[0] > w11[0]  # starting loss near 1, entry near 0

    def test_columns_present(self, tmp_path):
        rec = run_matfac(quick_run_config(tmp_path))
        cols = list(read_csv(rec.csv_path)[0].keys())
        for c in harness.MATFAC_BASE_COLUMNS + ["thm1_norm_lb", "thm1_erank_ub", "thm1_dist_ub"]:
            assert c in cols

    def test_perturbed_task_gets_thm2_columns(self, tmp_path):
        cfg = quick_run_config(
            tmp_path,
            task=TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.1),
            init=InitSpec(kind="balanced", alpha=1e-2, det_sign=None),
            depth=2,
            learning_rate=1e-2,
        )
        rec = run_matfac(cfg)
        cols = list(read_csv(rec.csv_path)[0].keys())
        assert "thm2_norm_lb" in cols and "thm1_norm_lb" not in cols

    def test_record_written_next_to_csv(self, tmp_path):
        rec = run_matfac(quick_run_config(tmp_path))
        doc = json.loads((tmp_path / f"{rec.run_id}.json").read_text())
        assert doc["run_id"] == rec.run_id
        assert doc["summary"]["converged"] is True

    def test_perturbed_entry_plateaus_near_ratio(self, tmp_path):
        # with the diagonal observation perturbed to 0.2, the free entry
        # stops near z z' / eps = 5 (within a factor of two) as the loss
        # is driven below 1e-4
        cfg = MatfacRunConfig(
            task=TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.2),
            depth=3,
            learning_rate=9e-3,
            init=InitSpec(kind="balanced", alpha=1e-4, det_sign=None),
            loss_threshold=1e-4,
            max_iters=2_000_000,
            log_stride=500,
            seed=0,
            out_dir=str(tmp_path),
        )
        rec = run_matfac(cfg)
        assert rec.summary["converged"]
        plateau = abs(rec.summary["final_w11"])
        assert 2.5 <= plateau <= 10.0

    def test_summary_names_the_free_entry_by_its_column(self, tmp_path):
        # (1,1) is observed here: the summary carries the unobs_1_2
        # column's last value, and no w11
        cfg = MatfacRunConfig(
            task=TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.0, unobserved=(1, 2)),
            depth=2,
            learning_rate=0.05,
            init=InitSpec(alpha=1e-2, det_sign=None),
            loss_threshold=1e-3,
            log_stride=1000,
            out_dir=str(tmp_path),
        )
        rec = run_matfac(cfg)
        last_row = read_csv(rec.csv_path)[-1]
        assert "final_w11" not in rec.summary
        assert rec.summary["final_unobs_1_2"] == float(last_row["unobs_1_2"]) != 0.0
        assert json.loads((tmp_path / f"{rec.run_id}.json").read_text())["summary"] == rec.summary
        base = run_matfac(quick_run_config(tmp_path / "base"))
        assert list(base.summary) == [
            "diverged", "init_attempts", "runtime_s", "iterations", "final_loss", "final_w11", "converged"
        ]
        assert base.summary["final_w11"] == float(read_csv(base.csv_path)[-1]["w11"])

    @pytest.mark.parametrize(
        "task, depth",
        [(TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.01), 2), (TaskSpec(kind="extended", rows=3, cols=4), 3)],
        ids=["perturbed2x2-d2", "extended3x4-d3"],
    )
    def test_dense_log_builds_no_sample_objects(self, tmp_path, monkeypatch, task, depth):
        # the CSV and the summary read the trajectory's columns: a run
        # logged at every step constructs no TrajectorySample
        built, sample = [], matfac.TrajectorySample

        def counting(*args, **kwargs):
            built.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(matfac, "TrajectorySample", counting)
        init = InitSpec(kind="balanced", alpha=1e-3, det_sign=None)
        cfg = quick_run_config(tmp_path, task=task, depth=depth, init=init, loss_threshold=0.0, max_iters=300, log_stride=1)
        rec = run_matfac(cfg)
        assert len(read_csv(rec.csv_path)) == 301 and rec.summary["iterations"] == 300
        assert built == []
        # the counter sees the samples a caller asks for
        built_task, net, _, train_cfg = harness._prepare(cfg)
        assert matfac.gd_train(net, built_task, train_cfg).trajectory[-1].iteration == 300
        assert len(built) == 1

    def test_divergent_run_keeps_partial_csv(self, tmp_path):
        cfg = quick_run_config(
            tmp_path,
            init=InitSpec(kind="unbalanced", alpha=2.0, det_sign=0),
            learning_rate=2.0,
            max_iters=5000,
        )
        rec = run_matfac(cfg)
        assert rec.summary["diverged"] is True
        assert read_csv(rec.csv_path)  # partial rows survived

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_factor_overflow_is_recorded_as_divergence(self, tmp_path):
        cfg = quick_run_config(tmp_path, init=InitSpec(kind="balanced", alpha=10.0), learning_rate=1e308)
        rec = run_matfac(cfg)
        assert rec.summary["diverged"] is True
        assert rec.summary["iterations"] == 0
        assert len(read_csv(rec.csv_path)) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "task, alpha",
        [(TaskSpec(kind="base"), 1e13), (TaskSpec(kind="extended", rows=3, cols=4), 1e13),
         (TaskSpec(kind="extended", rows=3, cols=4), 1e200)],
        ids=["base", "extended3x4", "extended3x4-overflow"],
    )
    def test_divergence_at_iteration_0_writes_header_only(self, tmp_path, task, alpha):
        # a product drawn at scale 1e13 is past the blow-up limit before
        # the first sample; at 1e200 its loss overflows, without a warning
        cfg = quick_run_config(tmp_path, task=task, init=InitSpec(kind="balanced", alpha=alpha))
        rec = run_matfac(cfg)
        assert rec.summary["diverged"] is True
        assert rec.summary["iterations"] == 0
        assert math.isnan(rec.summary["final_loss"])
        header, _ = harness.trajectory_rows([], task)
        assert open(rec.csv_path).read().splitlines() == [",".join(header)]


def old_trajectory_rows(samples, task_spec):
    # one row per sample with scalar bound evaluations, as rows were once built
    free = task_spec.build().unobserved_indices()
    nuclear = metrics.QuasiNormSpec(1.0)
    rows = []
    for s in samples:
        if task_spec.kind == "perturbed":
            b = metrics.perturbed_task_bounds(s.loss, task_spec.z, task_spec.z_prime, task_spec.eps, nuclear)
        else:
            b = metrics.base_task_bounds(s.loss, nuclear)
        rows.append(
            [s.iteration, s.loss]
            + [s.unobserved[ij] for ij in free]
            + [s.det, s.sigmas[0], s.sigmas[1] if len(s.sigmas) > 1 else 0.0]
            + [s.metrics[k] for k in ("erank", "nuclear_norm", "frob_norm", "spectral_norm", "schatten_half")]
            + [s.unbalancedness, *b]
        )
    return rows


def typed_bits(rows):
    return [[(type(v), np.float64(v).view(np.uint64) if isinstance(v, float) else v) for v in r] for r in rows]


class TestTrajectoryRows:
    @pytest.mark.parametrize(
        "task, depth",
        [
            (TaskSpec(kind="base"), 2),
            (TaskSpec(kind="perturbed", z=0.7, z_prime=-1.3, eps=0.05), 2),
            (TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.1, unobserved=(1, 2)), 3),
            (TaskSpec(kind="extended", rows=3, cols=4), 3),
            (TaskSpec(kind="extended", rows=3, cols=3), 4),
        ],
        ids=["base-d2", "perturbed-d2", "off-diagonal-d3", "extended3x4-d3", "extended3x3-d4"],
    )
    def test_columns_equal_per_row_oracle(self, task, depth):
        net, _ = InitSpec(kind="balanced", alpha=1e-2, det_sign=None).build(task.build(), depth, stream(4, 1))
        cfg = matfac.TrainConfig(learning_rate=0.03, max_iters=600, loss_threshold=0.0, log_stride=3)
        samples = matfac.gd_train(net, task.build(), cfg).trajectory
        header, rows = trajectory_rows(samples, task)
        assert len(rows) == len(samples) > 200
        assert all(len(r) == len(header) for r in rows)
        assert typed_bits(rows) == typed_bits(old_trajectory_rows(samples, task))
        if task.unobserved == (1, 2):  # w11 is observed: the free entry's own column, and no w11
            assert header[2:4] == ["unobs_1_2", "det"] and "w11" not in header


class TestDetsign:
    def test_identity_sanity_path(self):
        rows = run_detsign(1000, 2, 2, seed=0)
        assert [r["distribution"] for r in rows] == ["gaussian", "gaussian-product-2", "identity"]
        assert rows[2]["p_det_pos"] == 1.0

    def test_gaussian_near_half(self):
        rows = run_detsign(10_000, 3, 2, seed=0)
        for r in rows[:2]:
            assert abs(r["p_det_pos"] - 0.5) < 0.02

    def test_dimension_3_names_and_determinants(self):
        # the "@d" names and the np.linalg.det branch of leading_minor_dets
        rows = run_detsign(10_000, 3, 3, seed=0)
        assert [r["distribution"] for r in rows] == ["gaussian@3", "gaussian-product-3@3", "identity@3"]
        assert rows[2]["p_det_pos"] == 1.0
        for r in rows[:2]:
            assert r["ci_low"] < 0.5 < r["ci_high"]

    def test_csv_written(self, tmp_path):
        out = tmp_path / "ds.csv"
        run_detsign(1000, 3, 2, seed=1, out=out)
        assert [r["distribution"] for r in read_csv(out)] == ["gaussian", "gaussian-product-3", "identity"]

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            run_detsign(10, 3, 2, seed=0)


class TestTenfacSweep:
    def test_rank1_order3_cell_at_450_obs(self, tmp_path):
        # near-complete observation of a rank-1 ground truth: the
        # learned tensors keep estimated rank 1 across seeds
        cfg = TenfacSweepConfig(
            dims=(8, 8, 8),
            gt_rank=1,
            n_obs=(450,),
            init_stds=(1e-4,),
            seeds=(0, 1, 2, 3, 4),
            baseline=False,
            out_dir=str(tmp_path),
        )
        path = run_tenfac_sweep(cfg)
        agg = [r for r in read_csv(path) if r["row"] == "median_iqr"]
        assert len(agg) == 1
        assert float(agg[0]["est_rank"]) == 1.0

    def test_small_sweep_csv_shape(self, tmp_path):
        cfg = TenfacSweepConfig(
            dims=(4, 4, 4),
            gt_rank=1,
            n_obs=(20, 40),
            init_stds=(1e-3,),
            seeds=(0, 1, 2),
            out_dir=str(tmp_path),
        )
        path = run_tenfac_sweep(cfg)
        rows = read_csv(path)
        cells = [r for r in rows if r["row"] == "cell" and r["method"] == "tf"]
        aggs = [r for r in rows if r["row"] == "median_iqr"]
        baselines = [r for r in rows if r["method"] == "linear" and r["row"] == "cell"]
        assert len(cells) == 6
        assert len(baselines) == 2
        assert {r["n_obs"] for r in cells} == {"20", "40"}
        assert any(r["method"] == "tf" for r in aggs) and any(r["method"] == "linear" for r in aggs)
        for r in aggs:
            if r["method"] == "tf":
                assert float(r["recon_error_q25"]) <= float(r["recon_error"]) <= float(r["recon_error_q75"])

    def test_diverged_cell_is_blank_and_siblings_are_not(self, tmp_path):
        # init 1e13 puts the factors past the blow-up limit at iteration 0
        cfg = TenfacSweepConfig(
            dims=(3, 3, 3),
            gt_rank=1,
            n_obs=(15,),
            init_stds=(1e-3, 1e13),
            seeds=(0, 1),
            baseline=False,
            out_dir=str(tmp_path),
        )
        cells = [r for r in read_csv(run_tenfac_sweep(cfg)) if r["row"] == "cell"]
        assert len(cells) == 4
        for r in cells:
            if float(r["init_std"]) == 1e13:
                assert r["recon_error"] == r["est_rank"] == ""
            else:
                assert float(r["recon_error"]) >= 0.0 and int(r["est_rank"]) >= 1

    def test_csv_independent_of_jobs(self, tmp_path, monkeypatch):
        # 2 observation counts x 2 inits: four stacked groups of 3 seeds
        cfg = TenfacSweepConfig(dims=(4, 4, 4), gt_rank=1, n_obs=(20, 40), init_stds=(1e-3, 1e-2), seeds=(0, 1, 2))
        serial = csvs_at_jobs(tmp_path, monkeypatch, run_tenfac_sweep, cfg, 1)
        assert len(serial) == 1
        assert csvs_at_jobs(tmp_path, monkeypatch, run_tenfac_sweep, cfg, 2) == serial

    @pytest.mark.parametrize(
        "dims, n_obs, max_iters",
        [((8, 8, 8), 400, 1_000_000), ((2, 3, 4, 2), 36, 20_000)],
        ids=["order3", "order4"],
    )
    def test_cell_row_independent_of_its_batch(self, tmp_path, dims, n_obs, max_iters):
        # seed 1 trained in a stack of three and alone: its cell row has the
        # same bytes, so the stacked gradient gives a member the bits it
        # gets alone (test_csv_independent_of_jobs keeps the groups the same
        # under the pool)
        def seed1_row(seeds, out_dir):
            cfg = TenfacSweepConfig(
                dims=dims,
                gt_rank=2,
                n_obs=(n_obs,),
                init_stds=(1e-2,),
                seeds=seeds,
                max_iters=max_iters,
                out_dir=str(out_dir),
            )
            lines = run_tenfac_sweep(cfg).read_text().splitlines()
            (row,) = [line for line in lines if line.startswith(f"cell,tf,{n_obs},0.01,1,")]
            return row

        assert seed1_row((0, 1, 2), tmp_path / "batch") == seed1_row((1,), tmp_path / "alone")

    def test_truth_and_observations_drawn_once(self, tmp_path, monkeypatch):
        from implreg import tenfac

        calls = {"gen_ground_truth": 0, "sample_observations": 0}

        def counted(name):
            real = getattr(tenfac, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tenfac, name, counted(name))
        cfg = TenfacSweepConfig(
            dims=(4, 4, 4), gt_rank=1, n_obs=(20, 40), init_stds=(1e-3,), seeds=(0, 1), out_dir=str(tmp_path)
        )
        run_tenfac_sweep(cfg)
        assert calls == {"gen_ground_truth": 1, "sample_observations": 2}

    def test_baseline_error_closed_form(self, tmp_path):
        from implreg import tenfac

        cfg = TenfacSweepConfig(
            dims=(4, 4), gt_rank=1, n_obs=(5,), init_stds=(1e-3,), seeds=(0,), out_dir=str(tmp_path)
        )
        path = run_tenfac_sweep(cfg)
        truth = tenfac.gen_ground_truth((4, 4), 1, cfg.gt_seed)
        task = tenfac.sample_observations(truth, 5, cfg.obs_seed)
        mask = np.ones((4, 4), dtype=bool)
        for idx in task.observations:
            mask[idx] = False
        expected = float(np.sqrt((truth[mask] ** 2).sum()))
        row = [r for r in read_csv(path) if r["method"] == "linear" and r["row"] == "cell"][0]
        assert float(row["recon_error"]) == pytest.approx(expected, abs=1e-12)


class TestPlots:
    def test_missing_column_names_it(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iter,loss\n0,1.0\n")
        with pytest.raises(svgplot.SchemaError, match="w11"):
            svgplot.emit_plot([p], "loss-vs-entry", tmp_path / "x.svg")

    def test_empty_trajectory_still_valid_svg(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("iter,loss,w11\n")
        out = svgplot.emit_plot([p], "loss-vs-entry", tmp_path / "x.svg")
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_two_run_overlay_has_two_polylines_and_legend(self, tmp_path):
        rec1 = run_matfac(quick_run_config(tmp_path, seed=1))
        rec2 = run_matfac(quick_run_config(tmp_path, seed=2, learning_rate=2e-2))
        out = svgplot.emit_plot([rec1.csv_path, rec2.csv_path], "loss-vs-entry", tmp_path / "o.svg")
        text = out.read_text()
        assert text.count("<polyline") == 2
        assert rec1.run_id in text and rec2.run_id in text

    def test_sweep_style(self, tmp_path):
        cfg = TenfacSweepConfig(
            dims=(4, 4, 4), gt_rank=1, n_obs=(20, 40), init_stds=(1e-3,), seeds=(0, 1), out_dir=str(tmp_path)
        )
        path = run_tenfac_sweep(cfg)
        out = svgplot.emit_plot([path], "sweep", tmp_path / "s.svg")
        text = out.read_text()
        assert "<polyline" in text and "<polygon" in text

    def test_loss_vs_entry_independent_of_column_order(self, tmp_path):
        rec = run_matfac(quick_run_config(tmp_path / "canonical"))
        with open(rec.csv_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        order = list(reversed(range(len(header))))
        moved = tmp_path / "moved" / f"{rec.run_id}.csv"
        moved.parent.mkdir()
        with open(moved, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["note"] + [header[i] for i in order])
            w.writerows([f"n{k}"] + [r[i] for i in order] for k, r in enumerate(rows))
        a = svgplot.emit_plot([rec.csv_path], "loss-vs-entry", tmp_path / "a.svg")
        b = svgplot.emit_plot([moved], "loss-vs-entry", tmp_path / "b.svg")
        assert len(rows) > 10 and a.read_bytes() == b.read_bytes()

    def test_loss_vs_entry_reads_an_off_corner_free_entry(self, tmp_path):
        cfg = MatfacRunConfig(
            task=TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.0, unobserved=(1, 2)),
            depth=2,
            learning_rate=0.05,
            init=InitSpec(alpha=1e-2, det_sign=None),
            loss_threshold=1e-3,
            log_stride=1000,
            out_dir=str(tmp_path),
        )
        rec = run_matfac(cfg)
        text = svgplot.emit_plot([rec.csv_path], "loss-vs-entry", tmp_path / "p.svg").read_text()
        points = text.split('points="', 1)[1].split('"', 1)[0].split()
        assert "nan" not in text and len(points) > 1
        assert all(math.isfinite(float(v)) for pt in points for v in pt.split(","))

    def test_unknown_style_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            svgplot.emit_plot([], "mystery", tmp_path / "x.svg")


class TestPlotReadRows:
    """The plot splits rows on commas: on every CSV the package writes,
    that gives what csv.reader gives."""

    @staticmethod
    def csv_module_rows(path):
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]

    def test_trajectory_csv(self, tmp_path):
        cfg = quick_run_config(tmp_path, task=TaskSpec(kind="perturbed", z=1.0, z_prime=1.0, eps=0.01), log_stride=1)
        path = run_matfac(replace(cfg, max_iters=300)).csv_path
        header, rows = svgplot._read_rows(path, ["iter", "loss", "w11"])
        assert [header, *rows] == self.csv_module_rows(path) and len(rows) == 301

    def test_sweep_csv_with_empty_cells(self, tmp_path):
        cfg = TenfacSweepConfig(
            dims=(4, 4), gt_rank=1, n_obs=(6, 8), init_stds=(1e-3,), seeds=(0, 1), out_dir=str(tmp_path)
        )
        path = run_tenfac_sweep(cfg)
        header, rows = svgplot._read_rows(path, ["row", "method", "n_obs"])
        assert [header, *rows] == self.csv_module_rows(path)
        assert any("" in r for r in rows) and any(r[0] == "median_iqr" for r in rows)

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"iter,loss,w11\r\n\r\n0,1.0,0.5\r\n1,,0.25\n\n")
        header, rows = svgplot._read_rows(path, ["w11"])
        want = [["iter", "loss", "w11"], ["0", "1.0", "0.5"], ["1", "", "0.25"]]
        assert [header, *rows] == self.csv_module_rows(path) == want

    def test_quoted_file_refused(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('iter,loss,w11\n0,"1.0",0.5\n')
        with pytest.raises(svgplot.SchemaError, match=f"quoted field in {path}"):
            svgplot.emit_plot([path], "loss-vs-entry", tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "style, text, message",
        [
            ("loss-vs-entry", "iter,loss,w11\n0,1.0,0.5\n1,abc,0.4\n", "non-numeric value 'abc' in column 'loss', row 2"),
            ("loss-vs-entry", "iter,loss,w11\n0,1.0,0.5\n1,0.9\n", "row 2 of"),
            ("sweep", f"{','.join(harness.TENFAC_COLUMNS)}\nmedian_iqr,tf,x8,,,1.0,1,,,,\n",
             "non-numeric value 'x8' in column 'n_obs', row 1"),
        ],
        ids=["loss-vs-entry-cell", "loss-vs-entry-short-row", "sweep-cell"],
    )
    def test_bad_cell_named(self, tmp_path, style, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(svgplot.SchemaError, match=message) as err:
            svgplot.emit_plot([path], style, tmp_path / "x.svg")
        assert str(path) in str(err.value)
        assert not (tmp_path / "x.svg").exists()


# one-seed configs that run as given; a bad-input case overrides one field
_CLI_MATFAC_DOC = {
    "kind": "matfac-run",
    "task": {"kind": "base"},
    "depth": 2,
    "learning_rate": 0.03,
    "init": {"kind": "balanced", "alpha": 0.1},
    "max_iters": 1000,
    "out_dir": "runs",
}
_CLI_TENFAC_DOC = {"kind": "tenfac-sweep", "dims": [3, 3], "n_obs": [4], "seeds": [0], "out_dir": "runs"}
# its first cell runs and writes unless the whole grid is checked first
_CLI_SWEEP_DOC = {
    "kind": "matfac-sweep",
    "task": {"kind": "base"},
    "depths": [2],
    "learning_rates": [0.03],
    "alphas": [0.1],
    "max_iters": 1000,
    "out_dir": "runs",
}

_CLI_PLOT_INPUTS = {
    "no-w11.csv": "iter,loss\n0,1.0\n",
    "abc.csv": "iter,loss,w11\n0,abc,0.5\n",
    "quoted.csv": 'iter,loss,w11\n0,"1.0",0.5\n',
}


class TestCli:
    def test_detsign_and_plot_subcommands(self, tmp_path, capsys, monkeypatch):
        from implreg.cli import main

        monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
        out = tmp_path / "ds.csv"
        assert main(["detsign", "--samples", "1000", "--depth", "2", "--seed", "0", "--out", str(out)]) == 0
        assert out.exists()
        rec = run_matfac(quick_run_config(tmp_path))
        svg = tmp_path / "p.svg"
        assert main(["plot", "--input", rec.csv_path, "--style", "loss-vs-entry", "--out", str(svg)]) == 0
        assert svg.exists()

    def test_tenfac_subcommand(self, tmp_path, monkeypatch):
        from implreg.cli import main

        monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
        doc = {
            "kind": "tenfac-sweep",
            "dims": [4, 4],
            "gt_rank": 1,
            "n_obs": [8],
            "init_stds": [0.001],
            "seeds": [0, 1],
            "baseline": True,
            "out_dir": str(tmp_path),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["tenfac", "--config", str(cfg_path)]) == 0
        assert list(tmp_path.glob("tenfac-*.csv"))

    @pytest.mark.parametrize(
        "command, config",
        [("matfac", {"kind": "tenfac-sweep", "n_obs": [5]}), ("tenfac", {"kind": "matfac-run", "max_iters": 10})],
    )
    def test_config_of_another_kind_refused(self, tmp_path, monkeypatch, capsys, command, config):
        from implreg.cli import main

        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--config", str(cfg_path)])
        assert exc_info.value.code == 2
        assert "does not run" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "text",
        ['{"kind": "matfac-run", "depht": 3}', '{"kind": "mystery"}', None, '{"kind": "matfac-run",'],
        ids=["misspelled-field", "unknown-kind", "missing-file", "not-json"],
    )
    def test_config_that_fails_to_load_exits_2(self, tmp_path, monkeypatch, capsys, text):
        from implreg.cli import main

        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc_info:
            main(["matfac", "--config", str(cfg_path)])
        assert exc_info.value.code == 2
        assert f"cannot load {cfg_path}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "argv, config, env, message",
        [
            (["detsign", "--samples", "10"], None, None, "need at least 1000 samples"),
            (["detsign", "--samples", "1000", "--depth", "0"], None, None, "depth must be >= 1"),
            (["detsign", "--samples", "1000", "--depth", "-1"], None, None, "depth must be >= 1"),
            (["detsign", "--samples", "1000", "--dim", "0"], None, None, "dim must be >= 1"),
            (["plot", "--input", "missing.csv", "--style", "sweep"], None, None, "missing.csv"),
            (["plot", "--input", "../no-w11.csv", "--style", "loss-vs-entry"], None, None,
             "missing column 'w11' in ../no-w11.csv"),
            (["plot", "--input", "../abc.csv", "--style", "loss-vs-entry"], None, None,
             "non-numeric value 'abc' in column 'loss', row 1 of ../abc.csv"),
            (["plot", "--input", "../a-directory", "--style", "loss-vs-entry"], None, None, "Is a directory"),
            (["plot", "--input", "../quoted.csv", "--style", "loss-vs-entry"], None, None,
             "quoted field in ../quoted.csv"),
            (["matfac"], {"depth": 0}, None, "depth must be >= 1"),
            (["matfac"], {"depth": -1}, None, "depth must be >= 1"),
            (["matfac"], {"task": {"kind": "mystery"}}, None, "unknown task kind"),
            (["matfac"], {"init": {"kind": "mystery"}}, None, "unknown init kind"),
            (["matfac"], {"task": {"kind": "base", "eps": 0.1}}, None, "task kind 'base' does not read 'eps'"),
            (["matfac"], {"task": {"kind": "extended", "rows": 3, "cols": 4, "unobserved": [1, 2]}}, None,
             "task kind 'extended' does not read 'unobserved'"),
            (["matfac"], {"task": {"kind": "perturbed", "rows": 3}}, None, "task kind 'perturbed' does not read 'rows'"),
            (["matfac", "--jobs", "2"], {**_CLI_SWEEP_DOC, "task": {"kind": "base", "z": 2.0}}, None,
             "task kind 'base' does not read 'z'"),
            (["matfac"], {"learning_rate": 0.0}, None, "learning_rate must be positive"),
            (["tenfac"], {"n_obs": [0]}, None, "n_obs must lie in [1, 8]"),
            (["tenfac"], {"n_obs": [9]}, None, "n_obs must lie in [1, 8]"),
            (["tenfac"], {"mse_threshold": -1}, None, "mse_threshold must be non-negative"),
            (["matfac", "--jobs", "0"], {}, None, "--jobs must be >= 1, got 0"),
            (["tenfac", "--jobs", "-1"], {}, None, "--jobs must be >= 1, got -1"),
            (["matfac"], {}, "abc", "IMPLREG_SEED must be an integer"),
            (["tenfac"], {}, "abc", "IMPLREG_SEED must be an integer"),
            (["detsign", "--samples", "1000"], None, "abc", "IMPLREG_SEED must be an integer"),
            (["matfac", "--jobs", "1"], {**_CLI_SWEEP_DOC, "depths": [2, 0]}, None, "depth must be >= 1"),
            (["matfac", "--jobs", "2"], {**_CLI_SWEEP_DOC, "depths": [2, 0]}, None, "depth must be >= 1"),
            (["matfac", "--jobs", "1"], {**_CLI_SWEEP_DOC, "learning_rates": [0.03, 0.0]}, None,
             "learning_rate must be positive"),
            (["matfac", "--jobs", "2"], {**_CLI_SWEEP_DOC, "learning_rates": [0.03, 0.0]}, None,
             "learning_rate must be positive"),
        ],
        ids=[
            "detsign-too-few-samples",
            "detsign-depth-0",
            "detsign-depth-negative",
            "detsign-dim-0",
            "plot-missing-input",
            "plot-missing-column",
            "plot-non-numeric-cell",
            "plot-directory",
            "plot-quoted-csv",
            "matfac-depth-0",
            "matfac-depth-negative",
            "matfac-unknown-task",
            "matfac-unknown-init",
            "matfac-base-task-eps",
            "matfac-extended-task-unobserved",
            "matfac-perturbed-task-rows",
            "sweep-base-task-z-jobs-2",
            "matfac-learning-rate-0",
            "tenfac-n-obs-0",
            "tenfac-n-obs-size",
            "tenfac-mse-threshold-negative",
            "matfac-jobs-0",
            "tenfac-jobs-negative",
            "matfac-env-seed-not-int",
            "tenfac-env-seed-not-int",
            "detsign-env-seed-not-int",
            "sweep-later-depth-0-jobs-1",
            "sweep-later-depth-0-jobs-2",
            "sweep-later-learning-rate-0-jobs-1",
            "sweep-later-learning-rate-0-jobs-2",
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, argv, config, env, message):
        from implreg.cli import main

        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        if env is None:
            monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(harness.SEED_ENV_VAR, env)
        if argv[0] == "plot":
            # inputs beside the working directory, which must stay empty
            for name, text in _CLI_PLOT_INPUTS.items():
                (tmp_path / name).write_text(text)
            (tmp_path / "a-directory").mkdir()
        if config is None:
            argv = [*argv, "--out", str(work / "out.file")]
        else:
            # a config that names its kind is complete
            base = {} if "kind" in config else _CLI_MATFAC_DOC if argv[0] == "matfac" else _CLI_TENFAC_DOC
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**base, **config}))
            argv = [*argv, "--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err
        assert list(work.iterdir()) == []  # no output file, no runs/, no CSV

    def test_seed_flag_refused_on_multi_seed_config(self, tmp_path, capsys):
        from implreg.cli import main

        doc = {"kind": "tenfac-sweep", "dims": [3, 3], "n_obs": [4], "seeds": [0, 1], "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc_info:
            main(["tenfac", "--config", str(cfg_path), "--seed", "7"])
        assert exc_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_matfac_subcommand_with_env_seed(self, tmp_path, monkeypatch):
        from implreg.cli import main

        doc = {
            "kind": "matfac-run",
            "task": {"kind": "base"},
            "depth": 2,
            "learning_rate": 0.03,
            "init": {"kind": "identity", "alpha": 0.1},
            "loss_threshold": 0.0001,
            "max_iters": 200000,
            "log_stride": 100,
            "seed": 0,
            "out_dir": str(tmp_path),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        monkeypatch.setenv(harness.SEED_ENV_VAR, "21")
        assert main(["matfac", "--config", str(cfg_path)]) == 0
        recs = list(tmp_path.glob("*-s21.json"))
        assert len(recs) == 1
