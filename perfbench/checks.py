"""Correctness checks on the outputs of one benchmark pass.

- Faithful samples: a logged sample of a 2x2-style trajectory is
  faithful while the run is still on its initial determinant branch and
  numerically trustworthy: its loss is below 0.5, and it and every
  earlier sample kept the determinant sign of the first sample with
  |det| above eps * ||P||_F^2 (the rounding floor of the determinant).
- Bound check: on faithful samples every thm1/thm2 bound column must
  hold: nuclear_norm >= norm_lb, erank <= erank_ub, sigma2 <= dist_ub.
- Reference check: for the default seed, each cell's headline values
  must match the values recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

EPS = sys.float_info.epsilon
FAITHFUL_LOSS = 0.5

# Task kinds whose logged bound columns must hold on faithful samples.
# The extended (d x d') task is left out on purpose: the harness writes
# thm1 columns for it, but that family's zero-loss solutions have rank
# >= 2, so the rank-one bounds do not apply (sigma2 exceeds
# thm1_dist_ub by about 0.5 on the 3x4 cell after 1,000 steps).  That
# is a defect of the harness's column choice, to be fixed in the
# program, not a failure of the run; the benchmark reports the excess
# without failing the cell.
BOUND_CHECK_TASKS = ("base", "perturbed")

# Relative tolerance against the recorded reference values.  A
# reordered floating-point sum moves a 2e4-step trajectory by far less
# (kernels that reorder sums agree to about 1e-10); a wrong gradient
# moves it by far more.
REF_RTOL = 1e-6


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def branch_exit(rows) -> int | None:
    """Index of the first row off the initial determinant branch: its
    determinant has left the first row's sign or fallen to the rounding
    floor.  None when every row stays on the branch."""
    sign0 = None
    for i, r in enumerate(rows):
        det = float(r["det"])
        frob = float(r["frob_norm"])
        sign = math.copysign(1.0, det)
        if sign0 is None:
            sign0 = sign
        if sign != sign0 or not abs(det) > EPS * frob * frob:
            return i
    return None


def faithful_flags(rows) -> list[bool]:
    """One flag per trajectory row (see the module docstring)."""
    end = branch_exit(rows)
    if end is None:
        end = len(rows)
    return [i < end and float(r["loss"]) < FAITHFUL_LOSS for i, r in enumerate(rows)]


def bound_excess(rows, flags) -> dict[str, float] | None:
    """Worst excess of each logged bound over the flagged rows; a bound
    holds where its excess is <= 0.  None when no row is flagged."""
    picked = [r for r, f in zip(rows, flags) if f]
    if not picked:
        return None
    prefix = "thm2" if "thm2_norm_lb" in picked[0] else "thm1"
    return {
        "norm": max(float(r[f"{prefix}_norm_lb"]) - float(r["nuclear_norm"]) for r in picked),
        "erank": max(float(r["erank"]) - float(r[f"{prefix}_erank_ub"]) for r in picked),
        "dist": max(float(r["sigma2"]) - float(r[f"{prefix}_dist_ub"]) for r in picked),
    }


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Mismatches between a cell's values and its recorded reference.

    A step count may be one step off (a loss that lands on the stopping
    threshold); other integers (ranks) must match exactly and floats to
    ``REF_RTOL``.
    """
    problems = []
    for field, want in reference.items():
        got = values.get(field)
        if got is None or got == "":
            problems.append(f"{field}: missing (want {want!r})")
            continue
        got = float(got)
        if field == "iterations":
            ok = abs(got - want) <= 1
        elif isinstance(want, int):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REF_RTOL, abs_tol=1e-300)
        if not ok:
            problems.append(f"{field}: got {got!r}, want {want!r}")
    return problems


def csv_data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)
