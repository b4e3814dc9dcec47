"""perfbench: end-to-end and per-layer benchmark of implreg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from source in this checkout,
single process, with one BLAS thread, pinned to one CPU (the scheduler
moving the process between CPUs widened the spread of pass times by
about half on a 2-CPU host).  Passes repeat until the next one
would end after ``--seconds``; at least two run.  Every pass is checked
(``checks.py``), and the outputs of all passes of a seed must be
byte-identical.  Each pass is cut into laps, one per cell (see
``workloads.py``).

Times are scaled to a reference host speed (``calibrate.py``): a fixed
kernel is timed just before and just after every pass and every set-up
probe, and each time is multiplied by ``CAL_REF_S`` over the kernel's
mean time there.  On a shared host the raw times of identical passes
moved by 1.4-2.4x for stretches of seconds to minutes; the scaled ones
do not carry that.  Raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: scaled seconds of one pass over the workload's inputs,
  the sum over laps of each lap's median over the run's passes;
- ``setup_s``: median scaled seconds, over fresh interpreters started
  between the passes, from start to the first call into the workload
  (imports plus input generation);
- ``peak_rss_mb``: peak resident memory of this process, MiB.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` (medians over traced passes; times
scaled like ``wall_s``) plus ``trace.overhead_s``, the traced minus
the untraced pass time, both taken as in ``wall_s``.

Human-readable lines come first, including ``fail_ratio`` (failed over
attempted units), then a ``record`` line with the environment and the
exact counts, and last one JSON result line.  Outputs go to
``.perfbench_work/`` in the checkout, which is removed on exit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import CAL_REF_S, Calibrator, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("matfac-grid", "matfac-dense-log", "tenfac-sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 9
MIN_PASSES = 2
TIME_UNITS = ("s", "ms", "us")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import implreg from this checkout's ``src``, nowhere else."""
    if not (SRC / "implreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no implreg source under {SRC}")
    sys.path.insert(0, str(SRC))
    import implreg

    if Path(implreg.__file__).resolve().parent != SRC / "implreg":
        raise SystemExit(f"perfbench: imported implreg from {implreg.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(args) -> None:
    """Child side of ``setup_s``: import, generate inputs, say ready."""
    work = WORK / f"probe-{os.getpid()}"
    try:
        workloads = import_program()
        work.mkdir(parents=True)
        workloads.WORKLOADS[args.workload].make_inputs(args.seed, work / "out")
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(args, calibrator) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its ``ready``, and
    the calibration kernel's mean time around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    cal = calibrator.seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed, (cal + calibrator.seconds()) / 2


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs and checks the passes of one workload and seed."""

    def __init__(self, workloads, args, out_dir: Path):
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.out_dir = out_dir
        self.inputs = self.workload.make_inputs(args.seed, out_dir)
        self.reference = None
        if args.seed == workloads.DEFAULT_SEED:
            self.reference = json.loads((HERE / "reference.json").read_text())[args.workload]
        self.digests: dict[str, str] = {}
        self.calibrator = Calibrator()
        self.calibrator.seconds()  # warm-up

    def one_pass(self, tracer=None):
        import layers
        from tracing import Laps

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        counters: dict[str, int] = {}
        if tracer is not None:
            tracer.reset()
            layers.install(tracer, counters)
        laps = Laps()
        cal = self.calibrator.seconds()
        try:
            raw = self.workload.execute(self.inputs, laps)
            wall = laps.stop()
        finally:
            if tracer is not None:
                tracer.restore()
        cal = (cal + self.calibrator.seconds()) / 2
        units = self.workload.collect(self.inputs, raw)
        report = self.workloads.check_pass(units, self.out_dir, self.digests, self.reference)
        per_layer = None
        if tracer is not None:
            per_layer = {
                name: (scale(value, cal) if unit in TIME_UNITS else value, unit)
                for name, (value, unit) in layers.metrics_of_pass(tracer, counters, report.counts, wall).items()
            }
        return wall, cal, {k: scale(v, cal) for k, v in laps.times.items()}, report, per_layer


class Pass(NamedTuple):
    traced: bool
    wall: float  # raw seconds
    cal: float  # calibration kernel seconds around the pass
    laps: dict[str, float]  # scaled seconds
    report: object
    per_layer: dict | None


def run_passes(runner: Runner, seconds: float, trace: bool, probe=None, probes: int = 0):
    """Untraced passes, or alternating untraced and traced ones, until
    the next pass would end after ``seconds``.  ``probe()`` runs after
    each of the first ``probes`` passes, so that set-up is sampled
    across the run; probes still owed when time is up run last.
    Returns the passes and the probes' results."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    passes = []
    setup = []
    durations = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(Pass(traced, *runner.one_pass(tracer if traced else None)))
        if len(setup) < probes:
            setup.append(probe())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    while len(setup) < probes:
        setup.append(probe())
    return passes, setup


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if cpus:
        os.sched_setaffinity(0, {max(cpus)})
    if args.probe_setup:
        probe_setup(args)
        return 0

    workloads = import_program()
    from tracing import median_pass

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    work = WORK / str(os.getpid())
    try:
        work.mkdir(parents=True)
        runner = Runner(workloads, args, work / "out")
        probes = 0 if args.trace else SETUP_PROBES
        probe = functools.partial(measure_setup, args, runner.calibrator)
        passes, setup = run_passes(runner, args.seconds, bool(args.trace), probe, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    reports = [p.report for p in passes]
    attempted = sum(len(r.units) for r in reports)
    failed = sum(len(r.failures) for r in reports)
    untraced = [p.wall for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    traced = [p.wall for p in traced_passes]
    wall = median_pass([p.laps for p in passes if not p.traced])
    setup_scaled = [scale(t, cal) for t, cal in setup]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, {len(passes[0].laps)} laps each; "
          f"untraced pass median {statistics.median(untraced):.4f} s raw, {wall:.4f} s scaled "
          f"(calibration kernel median {statistics.median(p.cal for p in passes) * 1e3:.2f} ms, "
          f"reference {CAL_REF_S * 1e3:g} ms)")
    for i, p in enumerate(passes):
        print(f"  pass {i + 1}{' (traced)' if p.traced else ''}: {p.wall:.4f} s raw, "
              f"{scale(p.wall, p.cal):.4f} s scaled, {len(p.report.units)} units, {len(p.report.failures)} failed")
    first = reports[0]
    for key, (good, total) in first.faithful.items():
        ex = first.excess.get(key)
        worst = " ".join(f"{k} {v:+.3g}" for k, v in ex.items()) if ex else "none"
        unit = next(u for u in first.units if u.key == key)
        note = "" if unit.task in workloads.checks.BOUND_CHECK_TASKS else " (not checked: extended task)"
        exit_iter = first.exit_iter[key]
        branch = "stays on its branch" if exit_iter is None else f"leaves its branch at iter {exit_iter}"
        print(f"  cell {key}: {branch}; faithful {good}/{total} samples ({good / total:.3f}); "
              f"worst bound excess on faithful samples: {worst}{note}")
    for i, report in enumerate(reports):
        for key, why in report.failures.items():
            print(f"  FAILED pass {i + 1} {key}: {why}")

    if args.trace:
        layer_metrics = traced_passes[0].per_layer
        metrics = {
            name: {"value": statistics.median(p.per_layer[name][0] for p in traced_passes), "unit": unit}
            for name, (_, unit) in layer_metrics.items()
        }
        overhead = median_pass([p.laps for p in traced_passes]) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name:40s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"{'fail_ratio':40s} {_fmt(failed / attempted):>14s} ratio ({failed} failed of {attempted} attempted)")

    counts = dict(first.counts)
    if args.trace:
        exact = [k for k in layer_metrics if k.endswith(".calls")] + ["tenfac.cp_steps", "matfac.init_draws"]
        counts.update({k: layer_metrics[k][0] for k in exact})
    record = {
        "env": environment(args),
        "counts": counts,
        "faithful_ratio": {k: g / t for k, (g, t) in first.faithful.items()},
        "exit_iter": first.exit_iter,
        "cal_ref_s": CAL_REF_S,
        "setup_raw_s": [t for t, _ in setup],
        "setup_cal_s": [cal for _, cal in setup],
        "pass_raw_s": untraced,
        "traced_pass_raw_s": traced,
        "pass_cal_s": [p.cal for p in passes],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
