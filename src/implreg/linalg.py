"""Dense matrix/tensor kernels: validation, SVD, Schatten norms, outer
products.

Everything here operates on plain ``numpy`` arrays of float64.  Inputs
are validated once at the boundary (finite entries, sane shapes); the
numerical routines themselves assume validated data.

The SVD is LAPACK's thin SVD (``np.linalg.svd``) with a fixed sign
convention.  ``singular_values`` serves callers that need only the
values, for one matrix or a stack of them; on 2x2s it uses the closed
form, which the tests also use as an oracle independent of LAPACK.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "KernelError",
    "SPECTRAL",
    "as_matrix",
    "as_tensor",
    "svd",
    "svd2x2_analytic",
    "singular_values",
    "schatten_norm",
    "outer_product",
]


class KernelError(RuntimeError):
    """A numerical kernel failed to converge.  Carries the offending input."""

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


#: The Schatten order of the spectral norm (largest singular value).
SPECTRAL = math.inf


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array.

    Rejects non-2-D shapes, empty axes, and non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return _finite_matrices(m)


def _finite_matrices(m: np.ndarray) -> np.ndarray:
    # the checks as_matrix makes, on the last two axes of a matrix or a stack
    if min(m.shape[-2:]) < 1:
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


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    try:
        out = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"LAPACK SVD failed: {exc}", a) from exc
    sigmas = out[1] if compute_uv else out
    sigmas[sigmas <= max(a.shape[-2:]) * np.finfo(float).eps * sigmas[..., :1]] = 0.0
    return out


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(u, sigmas, v)`` through LAPACK, m = (u * sigmas) @ v.T:
    ``u`` (d, k) and ``v`` (d', k) have orthonormal columns, k = min(d, d'),
    and ``sigmas`` is sorted descending.  Values at most
    max(d, d') * eps * sigma_1 are set to exactly 0.0.  Each left vector
    is signed so its largest-magnitude entry is non-negative, its right
    vector flipped with it.  Raises :class:`KernelError`, carrying the
    input, if LAPACK fails.
    """
    u, sigmas, vt = _lapack_svd(as_matrix(m), compute_uv=True)
    signs = np.copysign(1.0, u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
    return u * signs, sigmas, vt.T * signs


def singular_values(m) -> np.ndarray:
    """Singular values, largest first: the closed form for a 2x2,
    otherwise LAPACK's values-only SVD with the cutoff of :func:`svd`.

    An (n, d, d') stack of matrices gives an (n, min(d, d')) array whose
    row i equals matrix i's own values bit for bit.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 3:
        return _sigmas(_finite_matrices(a))
    return _sigmas(as_matrix(a)[None])[0]


def _sigmas(ws: np.ndarray) -> np.ndarray:
    """Values of each matrix in a validated (n, d, d') stack, one row each.

    On 2x2s, the exact rotation-invariant closed form on every matrix at
    once: with q = hypot(a+d, b-c) and r = hypot(a-d, b+c), the values
    are (q+r)/2 and |q-r|/2, the quadratic formula on the Gram matrix's
    eigenvalues, immune to cancellation.  ``math.hypot`` runs over the
    columns as lists (numpy's hypot may round differently).
    """
    if ws.shape[1:] == (2, 2):
        a, b, c, d = ws.reshape(-1, 4).T
        n = len(ws)
        q = np.fromiter(map(math.hypot, (a + d).tolist(), (b - c).tolist()), float, n)
        r = np.fromiter(map(math.hypot, (a - d).tolist(), (b + c).tolist()), float, n)
        return np.stack([0.5 * (q + r), 0.5 * abs(q - r)], axis=1)
    return _lapack_svd(ws, compute_uv=False)


def svd2x2_analytic(m) -> tuple[float, float]:
    """Closed-form singular values of a 2x2 matrix, largest first, as
    Python floats: the form of :func:`singular_values` on a 2x2."""
    w = as_matrix(m)
    if w.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {w.shape}")
    return tuple(_sigmas(w[None])[0].tolist())


def schatten_norm(m, p: float) -> float:
    """Schatten norm of order ``p``: ``(sum_r sigma_r**p) ** (1/p)``.

    ``p`` must be positive; :data:`SPECTRAL` (``math.inf``) gives the
    max singular value.  p = 1 is nuclear, p = 2 is Frobenius; p < 1
    gives the quasi-norm variant.
    """
    w = as_matrix(m)
    pf = float(p)
    if not pf > 0:
        raise ValueError(f"Schatten order must be positive, got {p!r}")
    if pf == SPECTRAL:
        return float(_sigmas(w[None])[0, 0])
    if pf == 2.0:
        # Frobenius: no SVD needed
        return float(np.sqrt(np.sum(w * w)))
    return float(np.sum(_sigmas(w[None])[0] ** pf) ** (1.0 / pf))


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
