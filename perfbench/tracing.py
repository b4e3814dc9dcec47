"""Span tracing from outside the program.

A :class:`Tracer` replaces a function with a wrapper at the place where
its caller looks it up (a module attribute such as ``matfac.svd``), so
the program's source stays untouched.  Each wrapped call is a span.
Spans nest through a stack: a span's self time is its duration minus
the durations of the wrapped spans it directly contains.

Statistics are aggregated online per (span name, parent span name):
calls, inclusive seconds and self seconds.  Keeping the parent in the
key lets a caller tell, for instance, initializer draws made inside the
resampling loop from direct ones.

:class:`Laps` cuts one pass into contiguous timed stretches (one per
cell), and :func:`median_pass` adds up each stretch's median time over
the passes of a run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[tuple[str, str | None], SpanStats] = {}
        self._stack: list[list] = []  # frames: [name, seconds spent in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.stats = {}

    def wrap(self, fn, name: str, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_return(args, kwargs, result)`` is called after a normal
        return, outside the timed interval.
        """
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (name, parent)
                s = self.stats.get(key)
                if s is None:
                    s = self.stats[key] = SpanStats()
                s.calls += 1
                s.inclusive += dt
                s.self_time += dt - frame[1]
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------

    def total(self, name: str, parents=None, exclude_parents=()) -> SpanStats:
        """Sum the statistics of ``name`` over its parents (all of them,
        only those in ``parents``, or all but ``exclude_parents``)."""
        out = SpanStats()
        for (n, parent), s in self.stats.items():
            if n != name or parent in exclude_parents:
                continue
            if parents is not None and parent not in parents:
                continue
            out.calls += s.calls
            out.inclusive += s.inclusive
            out.self_time += s.self_time
        return out

    def self_by_prefix(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return sum(s.self_time for (n, _), s in self.stats.items() if n.startswith(prefix))


class Laps:
    """Contiguous laps of one pass: :meth:`mark` ends the running lap
    and starts the next under a new key; :meth:`stop` ends the last.
    A key marked twice accumulates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: dict[str, float] = {}
        self._key: str | None = None
        self._t0 = 0.0

    def mark(self, key: str | None) -> None:
        now = self.clock()
        if self._key is not None:
            self.times[self._key] = self.times.get(self._key, 0.0) + now - self._t0
        self._key, self._t0 = key, now

    def stop(self) -> float:
        """End the running lap; return the pass time (sum of the laps)."""
        self.mark(None)
        return sum(self.times.values())


def median_pass(passes: list[dict[str, float]]) -> float:
    """Sum over lap keys of each lap's median over ``passes``."""
    keys = passes[0].keys()
    if any(p.keys() != keys for p in passes):
        raise ValueError("passes were cut into different laps")
    return sum(statistics.median(p[k] for p in passes) for k in keys)
