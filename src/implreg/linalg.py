"""Dense matrix/tensor kernels: validation, SVD, Schatten norms, outer
products and entropy.

Everything here operates on plain ``numpy`` arrays of float64.  Inputs
are validated once at the boundary (finite entries, sane shapes); the
numerical routines themselves assume validated data.

The SVD is LAPACK's thin SVD (``np.linalg.svd``) with a fixed sign
convention.  ``singular_values`` serves callers that need only the
values; on a 2x2 it uses the closed form, which the tests also use as
an oracle independent of LAPACK.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "KernelError",
    "SvdResult",
    "SPECTRAL",
    "as_matrix",
    "as_tensor",
    "svd",
    "svd2x2_analytic",
    "singular_values",
    "schatten_norm",
    "outer_product",
    "shannon_entropy",
]


class KernelError(RuntimeError):
    """A numerical kernel failed to converge.  Carries the offending input."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


class _Spectral(enum.Enum):
    SPECTRAL = "spectral"


#: Distinguished order selecting the spectral norm (largest singular
#: value) from the Schatten family.  Kept as an enum member rather than
#: a float infinity so the infinite order cannot be produced by
#: arithmetic accident.
SPECTRAL = _Spectral.SPECTRAL

SchattenOrder = Union[float, _Spectral]


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array.

    Rejects non-2-D shapes, empty axes, and non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix axes must be positive, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_tensor(a) -> np.ndarray:
    """Validate and return ``a`` as an order >= 1 dense float64 array."""
    t = np.asarray(a, dtype=float)
    if t.ndim < 1:
        t = t.reshape(1)
    if any(d < 1 for d in t.shape):
        raise ValueError(f"tensor axes must be positive, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor entries must be finite")
    return t


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a matrix: ``sum_r sigmas[r] * u[:, r] @ v[:, r].T``.

    ``u`` is (d, k), ``v`` is (d', k) with orthonormal columns and
    k = min(d, d'); ``sigmas`` is non-increasing and non-negative.
    """

    u: np.ndarray
    sigmas: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigmas) @ self.v.T


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    try:
        out = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"LAPACK SVD failed: {exc}", a) from exc
    sigmas = out[1] if compute_uv else out
    sigmas[sigmas <= max(a.shape) * np.finfo(float).eps * sigmas[0]] = 0.0
    return out


def svd(m) -> SvdResult:
    """Thin SVD through LAPACK, singular values sorted descending.

    Values at most max(d, d') * eps * sigma_1 are set to exactly 0.0.
    Each left vector is signed so its largest-magnitude entry is
    non-negative, its right vector flipped with it.  Raises
    :class:`KernelError`, carrying the input, if LAPACK fails.
    """
    u, sigmas, vt = _lapack_svd(as_matrix(m), compute_uv=True)
    signs = np.copysign(1.0, u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
    return SvdResult(u=u * signs, sigmas=sigmas, v=vt.T * signs)


def singular_values(m) -> np.ndarray:
    """Singular values, largest first: the closed form for a 2x2,
    otherwise LAPACK's values-only SVD with the cutoff of :func:`svd`."""
    return _sigmas(as_matrix(m))


def _sigmas(w: np.ndarray) -> np.ndarray:
    return np.array(_svd2x2(w)) if w.shape == (2, 2) else _lapack_svd(w, compute_uv=False)


def svd2x2_analytic(m) -> tuple[float, float]:
    """Closed-form singular values of a 2x2 matrix, largest first.

    Uses the exact rotation-invariant form: with e = a+d, f = a-d,
    g = b+c, h = b-c, the singular values are (|q|+|r|)/2 and
    ||q|-|r||/2 for q = hypot(e, h), r = hypot(f, g): the quadratic
    formula on the Gram matrix's eigenvalues, immune to cancellation.
    """
    w = as_matrix(m)
    if w.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {w.shape}")
    return _svd2x2(w)


def _svd2x2(w: np.ndarray) -> tuple[float, float]:
    (a, b), (c, d) = w.tolist()
    q = math.hypot(a + d, b - c)
    r = math.hypot(a - d, b + c)
    return 0.5 * (q + r), 0.5 * abs(q - r)


def schatten_norm(m, p: SchattenOrder) -> float:
    """Schatten norm of order ``p``: ``(sum_r sigma_r**p) ** (1/p)``.

    ``p`` must be a positive real or :data:`SPECTRAL` (the max singular
    value).  p = 1 is nuclear, p = 2 is Frobenius; p < 1 gives the
    quasi-norm variant.  A float infinity is accepted and treated as
    :data:`SPECTRAL`.
    """
    w = as_matrix(m)
    if isinstance(p, _Spectral) or (isinstance(p, float) and math.isinf(p) and p > 0):
        return float(_sigmas(w)[0])
    pf = float(p)
    if not pf > 0:
        raise ValueError(f"Schatten order must be positive, got {p!r}")
    if pf == 2.0:
        # Frobenius: no SVD needed
        return float(np.sqrt(np.sum(w * w)))
    return float(np.sum(_sigmas(w) ** pf) ** (1.0 / pf))


def outer_product(vectors: Sequence) -> np.ndarray:
    """Outer product of N >= 1 vectors, an order-N tensor.

    Entry (i1, ..., iN) is the product of the vectors' entries at
    those indices.
    """
    if len(vectors) == 0:
        raise ValueError("outer_product needs at least one vector")
    vs = []
    for v in vectors:
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("outer_product arguments must be non-empty vectors")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite")
        vs.append(arr)
    out = vs[0]
    for v in vs[1:]:
        out = np.multiply.outer(out, v)
    return out


def shannon_entropy(dist) -> float:
    """Entropy ``-sum rho ln rho`` of a distribution, with 0 ln 0 = 0.

    The input must be non-negative and sum to 1 within 1e-12.
    """
    rho = np.asarray(dist, dtype=float)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError("expected a non-empty 1-D distribution")
    if np.any(rho < 0) or not np.all(np.isfinite(rho)):
        raise ValueError("distribution entries must be finite and non-negative")
    total = float(rho.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"distribution must sum to 1 (got {total!r})")
    pos = rho[rho > 0]
    return float(-(pos * np.log(pos)).sum())
