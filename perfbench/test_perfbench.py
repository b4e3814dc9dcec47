"""Tests of the benchmark's own arithmetic: span self time, lap times,
and the faithful-sample filter.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import csv
import math
import types

import pytest

import checks
from calibrate import CAL_REF_S, scale
from tracing import Laps, Tracer, median_pass


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_program(clock):
    """outer -> 2 x inner -> leaf, with known time spent at each level."""
    ns = types.SimpleNamespace()

    def leaf():
        clock.now += 0.5

    def inner():
        clock.now += 3.0
        ns.leaf()

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 2.0
        ns.inner()

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    return ns


def test_self_time_subtracts_nested_wrapped_children():
    clock = FakeClock()
    ns = _nested_program(clock)
    tracer = Tracer(clock=clock)
    for name in ("leaf", "inner", "outer"):
        tracer.patch(ns, name, f"x.{name}")
    ns.outer()

    leaf = tracer.stats[("x.leaf", "x.inner")]
    inner = tracer.stats[("x.inner", "x.outer")]
    outer = tracer.stats[("x.outer", None)]
    assert (leaf.calls, leaf.inclusive, leaf.self_time) == (2, 1.0, 1.0)
    assert (inner.calls, inner.inclusive, inner.self_time) == (2, 7.0, 6.0)
    assert (outer.calls, outer.inclusive, outer.self_time) == (1, 10.0, 3.0)
    # self times partition the root span
    assert sum(s.self_time for s in tracer.stats.values()) == outer.inclusive
    assert tracer.self_by_prefix("x.") == 10.0


def test_unwrapped_child_counts_as_parent_self_time():
    clock = FakeClock()
    ns = _nested_program(clock)
    tracer = Tracer(clock=clock)
    tracer.patch(ns, "outer", "x.outer")
    tracer.patch(ns, "leaf", "x.leaf")
    ns.outer()
    # inner is not wrapped: its 6 s are outer's own, leaf still nests under outer
    assert tracer.stats[("x.leaf", "x.outer")].calls == 2
    assert tracer.stats[("x.outer", None)].self_time == 9.0


def test_total_filters_by_parent():
    clock = FakeClock()
    ns = _nested_program(clock)
    tracer = Tracer(clock=clock)
    for name in ("leaf", "inner", "outer"):
        tracer.patch(ns, name, f"x.{name}")
    ns.outer()
    ns.leaf()
    assert tracer.total("x.leaf").calls == 3
    assert tracer.total("x.leaf", parents=("x.inner",)).calls == 2
    assert tracer.total("x.leaf", exclude_parents=("x.inner",)).calls == 1


def test_span_closes_on_exception_and_restore_unwraps():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def boom():
        clock.now += 2.0
        raise ValueError("boom")

    ns.boom = boom
    seen = []
    tracer = Tracer(clock=clock)
    tracer.patch(ns, "boom", "x.boom", on_return=lambda *a: seen.append(a))
    with pytest.raises(ValueError):
        ns.boom()
    assert tracer.stats[("x.boom", None)].inclusive == 2.0
    assert seen == []  # no return, no hook
    tracer.reset()  # the stack is empty again
    tracer.restore()
    assert ns.boom is boom


def test_on_return_sees_arguments_and_result():
    ns = types.SimpleNamespace(f=lambda a, b=0: a + b)
    seen = []
    tracer = Tracer()
    tracer.patch(ns, "f", "x.f", on_return=lambda args, kwargs, result: seen.append((args, kwargs, result)))
    assert ns.f(1, b=2) == 3
    assert seen == [((1,), {"b": 2}, 3)]


# ---------------------------------------------------------------------------
# laps


def test_laps_are_contiguous_and_sum_to_the_pass():
    clock = FakeClock()
    laps = Laps(clock)
    clock.now = 10.0
    laps.mark("a")
    clock.now = 11.5
    laps.mark("b")
    clock.now = 14.0
    laps.mark("a")  # a key marked again accumulates
    clock.now = 14.25
    assert laps.stop() == 4.25
    assert laps.times == {"a": 1.75, "b": 2.5}


def test_median_pass_takes_each_laps_median():
    passes = [{"a": 1.0, "b": 5.0}, {"a": 3.0, "b": 2.0}, {"a": 2.0, "b": 4.0}, {"a": 9.0, "b": 3.0}]
    assert median_pass(passes) == 2.5 + 3.5
    with pytest.raises(ValueError):
        median_pass([{"a": 1.0}, {"b": 1.0}])


def test_scale_cancels_host_speed():
    # the same pass on a host half as fast: twice the time, twice the kernel time
    assert scale(2.0, 0.025) == pytest.approx(scale(4.0, 0.05))
    assert scale(1.0, CAL_REF_S) == 1.0


# ---------------------------------------------------------------------------
# faithful samples

COLUMNS = ["iter", "loss", "det", "frob_norm", "nuclear_norm", "erank", "sigma2",
           "thm1_norm_lb", "thm1_erank_ub", "thm1_dist_ub"]


def _trajectory(tmp_path, rows):
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(COLUMNS)
        w.writerows(rows)
    return checks.read_rows(path)


# iter, loss, det, frob, nuclear, erank, sigma2, norm_lb, erank_ub, dist_ub
HAND_MADE = [
    (0, 1.0, 1e-6, 1.4e-3, 2e-3, 2.0, 1e-3, -8.0, 9.0, 4.0),  # loss too high
    (100, 0.4, 0.5, 1.5, 2.0, 1.5, 0.3, -7.0, 4.0, 3.0),  # faithful
    (200, 0.1, 0.9, 2.0, 2.5, 1.2, 0.2, -6.0, 3.0, 1.5),  # faithful
    (300, 0.05, -0.2, 2.5, 3.0, 1.1, 0.1, -5.0, 2.0, 1.0),  # det changed sign
    (400, 0.01, 0.7, 3.0, 3.5, 1.0, 0.05, 99.0, 0.0, 0.0),  # back positive, still off the branch
]


def test_sign_change_ends_the_faithful_prefix(tmp_path):
    rows = _trajectory(tmp_path, HAND_MADE)
    assert checks.branch_exit(rows) == 3
    assert checks.faithful_flags(rows) == [False, True, True, False, False]


def test_determinant_at_rounding_floor_ends_the_branch(tmp_path):
    rows = list(HAND_MADE[:3]) + [(300, 0.05, 1e-17, 1.0, 3.0, 1.1, 0.1, -5.0, 2.0, 1.0)]
    rows = _trajectory(tmp_path, rows)
    # 1e-17 < eps * 1.0**2, same sign as the first sample
    assert checks.branch_exit(rows) == 3
    assert checks.faithful_flags(rows) == [False, True, True, False]


def test_run_that_stays_on_branch_has_no_exit(tmp_path):
    rows = _trajectory(tmp_path, HAND_MADE[:3])
    assert checks.branch_exit(rows) is None
    assert checks.faithful_flags(rows) == [False, True, True]


def test_bound_excess_only_over_faithful_rows(tmp_path):
    rows = _trajectory(tmp_path, HAND_MADE)
    excess = checks.bound_excess(rows, checks.faithful_flags(rows))
    # rows 1 and 2: norm_lb - nuclear = -9, -8.5; erank - ub = -2.5, -1.8;
    # sigma2 - dist_ub = -2.7, -1.3.  Row 4 violates every bound but is
    # not faithful.
    assert excess == pytest.approx({"norm": -8.5, "erank": -1.8, "dist": -1.3})
    assert checks.bound_excess(rows, [False] * len(rows)) is None


def test_reference_tolerance():
    ref = {"iterations": 20000, "final_loss": 0.0123, "est_rank": 3}
    assert checks.compare_reference({"iterations": 20001, "final_loss": 0.0123 * (1 + 1e-9), "est_rank": "3"}, ref) == []
    bad = checks.compare_reference({"iterations": 20003, "final_loss": 0.0124, "est_rank": "4"}, ref)
    assert len(bad) == 3
    assert checks.compare_reference({"final_loss": math.nan}, {"final_loss": 1.0}) != []
