"""Rank surrogates and loss-driven bound evaluators.

Two continuous stand-ins for rank are provided: the effective rank
(exponential of the entropy of the normalized singular-value
distribution) and the Frobenius distance from the best rank-r
approximant.  On top of these sit evaluators for the analytic
guarantees that hold along gradient-flow trajectories of the corner
completion tasks in :mod:`implreg.matfac`: a lower bound on any
Schatten (quasi-)norm of the product matrix plus upper bounds on its
effective rank and its distance from rank one, each a closed-form
function of the running loss.

Lower bounds can be negative ("vacuous") at high loss; they are
reported as computed, never clamped, so evaluator bugs stay visible.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .linalg import as_matrix, schatten_norm, singular_values

# Imported unused: perfbench/layers.py traces it under this module name.
from .linalg import svd  # noqa: F401

__all__ = [
    "triangle_constant",
    "effective_rank_of_sigmas",
    "dist_from_rank",
    "solution_singular_values",
    "base_task_bounds",
    "perturbed_task_bounds",
    "solution_norm_argmin",
]


def triangle_constant(p: float) -> float:
    """The smallest c with ||A + B|| <= c (||A|| + ||B||) in the Schatten
    (quasi-)norm of positive order ``p``: 1 for p >= 1, 2^(1/p - 1) below.
    Every 2x2 single-entry matrix e_i e_j^T has norm 1 in this family,
    so the bound evaluators below carry no basis-norm factors."""
    pf = float(p)
    if not pf > 0:
        raise ValueError(f"Schatten order must be positive, got {p!r}")
    return 1.0 if pf >= 1.0 else 2.0 ** (1.0 / pf - 1.0)


# ---------------------------------------------------------------------------
# rank surrogates


def effective_rank_of_sigmas(sigmas: np.ndarray | Sequence[float]) -> float | np.ndarray:
    """Effective rank from precomputed singular values.

    The values run along the last axis: a 1-D input gives a float, an
    (n, k) stack an array of n effective ranks.  Values that are not
    positive add an exact 0.0 to the entropy sum, so for k < 8 (summed
    in order; numpy regroups longer sums) each rank equals the sum over
    the positive values alone, bit for bit.
    """
    sig = np.asarray(sigmas, dtype=float)
    total = sig.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("effective rank is undefined for the zero matrix")
    rho = sig / total
    pos = rho > 0
    erank = np.exp(-np.where(pos, rho * np.log(np.where(pos, rho, 1.0)), 0.0).sum(axis=-1))
    return float(erank) if sig.ndim == 1 else erank


def dist_from_rank(m, r: int) -> float:
    """Frobenius distance from the set of matrices with rank <= r,
    i.e. sqrt(sum of squared singular values past the r-th)."""
    w = as_matrix(m)
    k = min(w.shape)
    if not (0 <= r <= k):
        raise ValueError(f"rank bound {r} out of range [0, {k}]")
    sig = singular_values(w)
    tail = sig[r:]
    return float(np.sqrt((tail * tail).sum()))


# ---------------------------------------------------------------------------
# closed-form singular values along the solution families


def solution_singular_values(free_entry: float) -> tuple[float, float]:
    """Singular values of the base-task solution with the given free
    entry x: (|x| + sqrt(x^2 + 4)) / 2 and (sqrt(x^2 + 4) - |x|) / 2."""
    x = abs(float(free_entry))
    root = math.sqrt(x * x + 4.0)
    return (x + root) / 2.0, (root - x) / 2.0


# ---------------------------------------------------------------------------
# bound evaluators


def _loss_column(ell) -> np.ndarray:
    loss = np.asarray(ell, dtype=float)
    if np.any(loss < 0):
        raise ValueError("loss must be non-negative")
    return loss


def _as_given(loss: np.ndarray, *values) -> tuple:
    # a scalar loss gets Python floats back, a loss array arrays
    return tuple(map(float, values)) if loss.ndim == 0 else values


def base_task_bounds(ell: float | np.ndarray, p: float) -> tuple:
    """The bounds ``(norm_lb, erank_ub, dist_ub)`` holding along
    positive-determinant trajectories of the base task at loss ``ell``,
    with c = :func:`triangle_constant` of the Schatten order ``p``:

    - ||W||_p >= a / sqrt(ell) - b with a = 1 / (sqrt(2) c) and
      b = max(sqrt(2) a, 8 c^2);
    - erank(W) <= 1 + (2 sqrt(12) / ln 2) sqrt(ell);
    - distance from rank one <= 3 sqrt(2) sqrt(ell).

    A scalar ``ell`` gives Python floats, an array of losses arrays,
    bitwise equal to scalar calls (IEEE sqrt and division are correctly
    rounded).
    """
    c = triangle_constant(p)
    loss = _loss_column(ell)
    a = 1.0 / (math.sqrt(2.0) * c)
    b = max(math.sqrt(2.0) * a, 8.0 * c**2)
    root = np.sqrt(loss)
    with np.errstate(divide="ignore"):
        norm_lb = a / root - b
    erank_ub = 1.0 + (2.0 * math.sqrt(12.0) / math.log(2.0)) * root
    dist_ub = 3.0 * math.sqrt(2.0) * root
    return _as_given(loss, norm_lb, erank_ub, dist_ub)


def perturbed_task_bounds(ell: float | np.ndarray, z: float, z_prime: float, eps: float, p: float) -> tuple:
    """The bounds ``(norm_lb, erank_ub, dist_ub)`` for the perturbed task
    at loss ``ell``, valid along trajectories whose determinant sign
    matches the task, with c as in :func:`base_task_bounds`:

    - ||W||_p >= a |z z'| / (|eps| + sqrt(2 ell)) - b with
      a = 1 / c and
      b = max(a |z z'| / (|eps| + min(|z|, |z'|)),
              8 c^2 max(|z|, |z'|, |eps|));
    - erank(W) <= 1 + 16 / min(|z|, |z'|) * (|eps| + sqrt(2 ell));
    - distance from rank one
      <= 4 |eps| + (4 + sqrt(|z z'|) / min(|z|, |z'|)) sqrt(2 ell).

    With eps != 0 the norm bound's zero-loss limit is the finite value
    a |z z'| / |eps| - b; with eps == 0 it is infinite.  ``ell`` may be
    an array of losses, as in :func:`base_task_bounds`.
    """
    if z == 0 or z_prime == 0:
        raise ValueError("z and z_prime must be non-zero")
    c = triangle_constant(p)
    loss = _loss_column(ell)
    az, azp, ae = abs(z), abs(z_prime), abs(eps)
    zmin = min(az, azp)
    a = 1.0 / c
    b = max(a * az * azp / (ae + zmin), 8.0 * c**2 * max(az, azp, ae))
    root = np.sqrt(2.0 * loss)
    with np.errstate(divide="ignore"):
        norm_lb = a * az * azp / (ae + root) - b
    erank_ub = 1.0 + (16.0 / zmin) * (ae + root)
    dist_ub = 4.0 * ae + (4.0 + math.sqrt(az * azp) / zmin) * root
    return _as_given(loss, norm_lb, erank_ub, dist_ub)


def solution_norm_argmin(p: float, x_grid: Sequence[float]) -> float:
    """Grid minimizer of the Schatten (quasi-)norm of order ``p`` over
    the base-task solution family, parameterized by the free entry.  The
    grid must contain 0; for every Schatten order the minimizer is 0."""
    grid = [float(x) for x in x_grid]
    if not grid:
        raise ValueError("x_grid must be non-empty")
    if 0.0 not in grid:
        raise ValueError("x_grid must contain 0")
    best_x = grid[0]
    best_v = math.inf
    for x in grid:
        w = np.array([[x, 1.0], [1.0, 0.0]])
        v = schatten_norm(w, p)
        if v < best_v:
            best_v = v
            best_x = x
    return best_x
