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
    detsign_distributions,
    format_float,
    load_config,
    parse_config,
    read_csv,
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
    # the same relative out_dir in a fresh directory keeps run ids equal
    where = tmp_path / f"jobs{jobs}"
    where.mkdir()
    monkeypatch.chdir(where)
    run(cfg, jobs=jobs)
    return {p.relative_to(where): p.read_bytes() for p in sorted(where.rglob("*.csv"))}


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


class TestFloatFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(scale=10.0 ** rng.integers(-300, 300, size=500), size=500))
        values += [0.0, -0.0, 1e-308, math.pi, 2.0 / 3.0]
        for v in values:
            assert float(format_float(float(v))) == float(v)

    def test_non_finite(self):
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"
        assert format_float(math.nan) == "nan"


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

    def test_format_float_matches_old(self):
        for v in SPECIAL_FLOATS + [math.pi, -1.5e-310, np.float64(-math.nan), 12345678901234567890.0]:
            assert format_float(v) == old_format_float(v)

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

    def test_sweep_csvs_independent_of_jobs(self, tmp_path, monkeypatch):
        cfg = MatfacSweepConfig(
            depths=(2, 3),
            learning_rates=(3e-2,),
            alphas=(0.3,),
            loss_threshold=1e-3,
            max_iters=100_000,
            log_stride=50,
            seeds=(0, 1),
        )
        serial = csvs_at_jobs(tmp_path, monkeypatch, run_matfac_sweep, cfg, 1)
        assert len(serial) == 4
        assert csvs_at_jobs(tmp_path, monkeypatch, run_matfac_sweep, cfg, 2) == serial

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
    nuclear = metrics.nuclear()
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
            + [s.unbalancedness, b[0].value, b[1].value, b[2].value]
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
        rows = run_detsign(1000, ["identity"], seed=0)
        assert rows[0]["p_det_pos"] == 1.0

    def test_gaussian_near_half(self):
        rows = run_detsign(10_000, ["gaussian", "gaussian-product-3"], seed=0)
        for r in rows:
            assert abs(r["p_det_pos"] - 0.5) < 0.02

    def test_dimension_3_names_and_determinants(self):
        # the "@d" names and the np.linalg.det branch of leading_minor_dets
        rows = run_detsign(10_000, detsign_distributions(3, 3), seed=0)
        assert [r["distribution"] for r in rows] == ["gaussian@3", "gaussian-product-3@3", "identity@3"]
        assert rows[2]["p_det_pos"] == 1.0
        for r in rows[:2]:
            assert r["ci_low"] < 0.5 < r["ci_high"]

    def test_csv_written(self, tmp_path):
        out = tmp_path / "ds.csv"
        run_detsign(1000, ["gaussian"], seed=1, out=out)
        assert read_csv(out)[0]["distribution"] == "gaussian"

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            run_detsign(10, ["gaussian"], seed=0)


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
        "argv, message",
        [
            (["detsign", "--samples", "10"], "need at least 1000 samples"),
            (["detsign", "--samples", "1000", "--depth", "0"], "depth must be >= 1"),
            (["detsign", "--samples", "1000", "--depth", "-1"], "depth must be >= 1"),
            (["detsign", "--samples", "1000", "--dim", "0"], "dim must be >= 1"),
            (["plot", "--input", "missing.csv", "--style", "sweep"], "missing.csv"),
        ],
        ids=[
            "detsign-too-few-samples",
            "detsign-depth-0",
            "detsign-depth-negative",
            "detsign-dim-0",
            "plot-missing-input",
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, argv, message):
        from implreg.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.file"
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--out", str(out)])
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no output file, no runs/

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
