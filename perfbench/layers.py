"""Where the traced run wraps implreg, and the per-layer metrics it
derives from the spans.

Each public function is wrapped where its caller looks it up: the
linalg kernels under the names ``matfac`` and ``metrics`` import them
as, the other layers as attributes of their own module (callers reach
them as ``matfac.gd_train``, ``tenfac.als_fit`` and so on, and calls
inside a module go through its globals).  A span is named after the
layer that defines the function.
"""

from __future__ import annotations

from implreg import cli, harness, matfac, metrics, svgplot, tenfac

LAYERS = ("linalg", "matfac", "metrics", "tenfac", "harness", "svgplot", "cli")

_INITS = ("matfac.init_balanced", "matfac.init_unbalanced", "matfac.init_identity")
_RESAMPLE = "matfac.resample_until_det_sign"
_BOUNDS = ("metrics.base_task_bounds", "metrics.perturbed_task_bounds")


def _targets():
    yield from (
        (matfac, "svd", "linalg.svd"),
        (matfac, "schatten_norm", "linalg.schatten_norm"),
        (matfac, "svd2x2_analytic", "linalg.svd2x2_analytic"),
        (metrics, "svd", "linalg.svd"),
        (metrics, "schatten_norm", "linalg.schatten_norm"),
        (tenfac, "outer_product", "linalg.outer_product"),
    )
    for attr in ("gd_train", "init_balanced", "init_unbalanced", "init_identity", "resample_until_det_sign"):
        yield matfac, attr, f"matfac.{attr}"
    for attr in ("base_task_bounds", "perturbed_task_bounds", "effective_rank_of_sigmas"):
        yield metrics, attr, f"metrics.{attr}"
    for attr in ("gen_ground_truth", "sample_observations", "train_cp", "estimate_rank", "als_fit", "cp_compose"):
        yield tenfac, attr, f"tenfac.{attr}"
    for attr in ("run_matfac", "trajectory_rows", "write_csv", "run_config", "run_tenfac_sweep", "load_config"):
        yield harness, attr, f"harness.{attr}"
    yield svgplot, "emit_plot", "svgplot.emit_plot"
    yield cli, "main", "cli.main"


def install(tracer, counters: dict) -> None:
    """Wrap every target; ``counters`` receives the counts that only a
    return value shows (CP steps, successful ALS fits)."""

    def cp_steps(args, kwargs, result):
        counters["cp_steps"] = counters.get("cp_steps", 0) + result.iterations

    def als_success(args, kwargs, result):
        threshold = kwargs.get("threshold", args[2] if len(args) > 2 else 1e-6)
        counters["als_success"] = counters.get("als_success", 0) + (result[1] < threshold)

    hooks = {"tenfac.train_cp": cp_steps, "tenfac.als_fit": als_success}
    for owner, attr, name in _targets():
        tracer.patch(owner, attr, name, hooks.get(name))


def _ratio(num, den):
    return num / den if den else 0.0


def metrics_of_pass(tracer, counters: dict, counts: dict, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are totals over the pass and self time unless the name says
    otherwise; shares divide self time by the traced pass's wall time.
    """
    t = tracer.total
    out: dict[str, tuple[float, str]] = {}

    for layer in LAYERS:
        out[f"share.{layer}"] = (_ratio(tracer.self_by_prefix(layer + "."), wall), "ratio")

    for fn in ("svd", "schatten_norm", "svd2x2_analytic"):
        s = t(f"linalg.{fn}")
        out[f"linalg.{fn}.calls"] = (s.calls, "count")
        out[f"linalg.{fn}.us"] = (s.self_time * 1e6, "us")

    gd = t("matfac.gd_train")
    out["matfac.gd_steps"] = (counts["gd_steps"], "count")
    out["matfac.gd_step_us"] = (_ratio(gd.self_time * 1e6, counts["gd_steps"]), "us")
    out["matfac.gd_train.self_share"] = (_ratio(gd.self_time, wall), "ratio")
    out["matfac.samples"] = (counts["samples"], "count")
    out["matfac.faithful_ratio"] = (_ratio(counts["faithful_samples"], counts["samples"]), "ratio")
    # initialization time: the resampling loop plus initializers called
    # outside it; draws are the initializer calls made inside it
    resample = t(_RESAMPLE)
    direct = sum(t(name, exclude_parents=(_RESAMPLE,)).inclusive for name in _INITS)
    draws = sum(t(name, parents=(_RESAMPLE,)).calls for name in _INITS)
    out["matfac.init.us"] = ((resample.inclusive + direct) * 1e6, "us")
    out["matfac.init_draws"] = (draws, "count")
    out["matfac.init_accept_ratio"] = (_ratio(resample.calls, draws), "ratio")

    bounds = [t(name) for name in _BOUNDS]
    out["metrics.bounds.calls"] = (sum(b.calls for b in bounds), "count")
    out["metrics.bounds.us"] = (sum(b.self_time for b in bounds) * 1e6, "us")
    erank = t("metrics.effective_rank_of_sigmas")
    out["metrics.effective_rank_of_sigmas.calls"] = (erank.calls, "count")
    out["metrics.effective_rank_of_sigmas.us"] = (erank.self_time * 1e6, "us")

    out["harness.cells"] = (counts["cells"], "count")
    out["harness.csv_bytes"] = (counts["csv_bytes"], "bytes")
    out["harness.csv_rows"] = (counts["csv_rows"], "count")
    rows_us = t("harness.trajectory_rows").self_time * 1e6
    out["harness.trajectory_rows.us_per_row"] = (_ratio(rows_us, counts["samples"]), "us")
    out["harness.write_csv.us_per_row"] = (_ratio(t("harness.write_csv").self_time * 1e6, counts["csv_rows"]), "us")

    out["svgplot.emit_plot.s"] = (t("svgplot.emit_plot").self_time, "s")
    out["svgplot.rows_read"] = (counts["rows_read"], "count")
    out["svgplot.svg_bytes"] = (counts["svg_bytes"], "bytes")

    cp_steps = counters.get("cp_steps", 0)
    train = t("tenfac.train_cp")
    out["tenfac.cp_steps"] = (cp_steps, "count")
    out["tenfac.cp_step_us"] = (_ratio(train.self_time * 1e6, cp_steps), "us")
    out["tenfac.train_cp.share"] = (_ratio(train.self_time, wall), "ratio")
    als = t("tenfac.als_fit")
    out["tenfac.als_fit.calls"] = (als.calls, "count")
    out["tenfac.als_fit.ms"] = (als.self_time * 1e3, "ms")
    out["tenfac.als_success_ratio"] = (_ratio(counters.get("als_success", 0), als.calls), "ratio")
    for fn in ("gen_ground_truth", "estimate_rank"):
        s = t(f"tenfac.{fn}")
        out[f"tenfac.{fn}.calls"] = (s.calls, "count")
        out[f"tenfac.{fn}.s"] = (s.inclusive, "s")
    compose = t("tenfac.cp_compose")
    out["tenfac.cp_compose.calls"] = (compose.calls, "count")
    out["tenfac.cp_compose.us"] = (compose.self_time * 1e6, "us")

    cli_main = t("cli.main").inclusive
    run_config = t("harness.run_config", parents=("cli.main",)).inclusive
    out["cli.overhead_ms"] = ((cli_main - run_config) * 1e3, "ms")
    return out
