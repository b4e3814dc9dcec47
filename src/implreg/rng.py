"""Seedable counter-based random streams.

All randomness in this package flows through Philox (a 64-bit
counter-based generator), keyed by a user seed plus an integer path.
Distinct paths give statistically independent streams, so experiment
components (initialization, observation sampling, Monte Carlo studies)
can each own a stream without coordinating draw order.  Per-factor
splitting inside initializers uses ``Generator.spawn``, which derives
children from the same seed tree.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for ``seed`` at stream ``path``.

    Identical (seed, path) pairs always produce identical streams;
    different paths are independent.  A seed that is not an integer,
    such as 1.5, raises TypeError rather than being truncated.
    """
    ss = np.random.SeedSequence(entropy=operator.index(seed) & (2**64 - 1), spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
