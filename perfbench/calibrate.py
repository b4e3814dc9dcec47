"""Host-speed calibration for the benchmark's times.

On a shared host the same code ran at very different speeds from one
minute to the next: neighbours slowed it by 1.4-2.4x for stretches of
seconds to over a minute, so run medians of raw pass times spread by
20-30% between runs.  A fixed calibration kernel timed just before and
just after each pass slows down with it, and the ratio of the two
stays put.  Times are therefore reported at a reference host speed:

    scaled = measured * CAL_REF_S / calibration seconds next to it

so a scaled time reads as seconds on a host where the kernel takes
``CAL_REF_S``.  The kernel does not touch implreg, so a change to the
program moves scaled times exactly as it moves raw ones.

The kernel has two halves, each about half its time, matching the two
kinds of work the workloads do: a Python loop of 2x2 numpy updates
(the matfac step: per-call dispatch on tiny arrays) and a CP-gradient-
shaped block on 64x400 arrays with a small solve (tenfac training and
ALS: gathers, products, matmuls).  Over ten 40-s runs per workload
(seeds 0-9), the distance between the quartiles of ``wall_s`` was
0.03-0.05 of its median scaled, where raw run medians gave 0.05-0.15.
"""

from __future__ import annotations

import time

import numpy as np

# Reference kernel time, seconds: a round figure near the kernel's time
# on the 2-vCPU Xeon VM this benchmark was tuned on (run medians of
# 17-23 ms), so scaled times there read within about a quarter of raw
# ones.
CAL_REF_S = 0.025

DISPATCH_STEPS = 2400
CP_ROUNDS = 12


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20050639)
        self.factors = [rng.normal(size=(64, 8)) for _ in range(3)]
        self.idx = rng.integers(0, 8, size=(400, 3))
        self.vals = rng.normal(size=400)
        self.onehots = []
        for n in range(3):
            oh = np.zeros((400, 8))
            oh[np.arange(400), self.idx[:, n]] = 1.0
            self.onehots.append(oh)

    def _dispatch(self) -> None:
        a = np.eye(2) * 0.5
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        for _ in range(DISPATCH_STEPS):
            a = a - 1e-3 * (a @ b - b)

    def _cp_block(self) -> None:
        f, idx = self.factors, self.idx
        for _ in range(CP_ROUNDS):
            g = [f[n][:, idx[:, n]] for n in range(3)]
            resid = (g[0] * g[1] * g[2]).sum(axis=0) - self.vals
            for n in range(3):
                (g[(n + 1) % 3] * g[(n + 2) % 3] * resid) @ self.onehots[n]
            k = (f[0][:, None, :] * f[1][:, :, None]).reshape(64, -1)
            np.linalg.solve(k @ k.T + np.eye(64), k[:, :8])

    def seconds(self) -> float:
        """Time one run of the kernel."""
        t0 = time.perf_counter()
        self._dispatch()
        self._cp_block()
        return time.perf_counter() - t0


def scale(seconds: float, cal: float) -> float:
    """``seconds`` measured where the kernel took ``cal``, at reference speed."""
    return seconds * CAL_REF_S / cal
