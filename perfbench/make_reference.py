"""Record the default seed's per-cell values into ``reference.json``.

    python3 perfbench/make_reference.py

Run it only when a change to implreg is meant to alter its numbers
beyond ``checks.REF_RTOL``, and say so in the change's notes: the
reference check exists to catch changes that are not meant to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from tracing import Laps


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    workloads = run.import_program()
    work = run.WORK / f"reference-{os.getpid()}"
    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            out = work / name / "out"
            out.mkdir(parents=True)
            inputs = workload.make_inputs(workloads.DEFAULT_SEED, out)
            units = workload.collect(inputs, workload.execute(inputs, Laps()))
            failed = [u for u in units if u.error]
            if failed:
                print(f"{name}: {failed[0].key} failed: {failed[0].error}", file=sys.stderr)
                return 1
            reference[name] = {u.key: _typed(u.values) for u in units if u.kind != "plot"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def _typed(values: dict) -> dict:
    # CSV cells arrive as text: ranks become ints, errors floats
    out = {}
    for k, v in values.items():
        if isinstance(v, str):
            v = int(v) if k == "est_rank" else float(v)
        out[k] = v
    return out


if __name__ == "__main__":
    sys.exit(main())
