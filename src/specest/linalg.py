"""Dense linear-algebra primitives shared by the estimation pipeline.

Everything operates on float64 ndarrays. Problem sizes stay in the
low thousands per axis, so dense storage and LAPACK-backed routines
are the right tool.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonFiniteError",
    "gram",
    "empirical_spectrum",
    "load_matrix_csv",
]


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or infinity."""


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"data matrix must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"data matrix must be non-empty, got shape {arr.shape}")
    return arr


# Overflow is checked for below and raised as NonFiniteError, so numpy's
# own warnings would only repeat the error on stderr.
@np.errstate(over="ignore", invalid="ignore")
def gram(y) -> np.ndarray:
    """Gram matrix of the rows of ``y``: out[i, j] = <row i, row j>."""
    arr = _as_matrix(y)
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        arr = np.ascontiguousarray(arr)
    # On one contiguous buffer, numpy computes x @ x.T as a symmetric
    # rank-k update and mirrors the triangle, so both triangles carry the
    # same rounding. A strided x would reach BLAS as two separate copies.
    a = arr @ arr.T
    # A NaN or infinity in row i makes the diagonal entry sum_j y_ij^2
    # non-finite, so the input needs a pass only when the output fails.
    # min and max propagate NaN and find either infinity without the n x n
    # boolean temporary of isfinite(a).
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        if not np.isfinite(arr).all():
            raise NonFiniteError("data matrix contains non-finite entries")
        raise NonFiniteError("gram matrix overflowed to non-finite values")
    return a


def empirical_spectrum(y) -> np.ndarray:
    """Eigenvalues of (1/n) * Y^T Y, ascending, as a length-d vector.

    Computed through the smaller of the two gram matrices; when n < d
    the spectrum is padded with the d - n structural zeros. Tiny
    negative values from rounding are clamped to zero.
    """
    arr = _as_matrix(y)
    n, d = arr.shape
    return _gram_spectrum(gram(arr if n <= d else arr.T), n, d)


def _gram_spectrum(a: np.ndarray, n: int, d: int) -> np.ndarray:
    """``empirical_spectrum`` of n samples in d dimensions from their smaller gram ``a``.

    ``a`` must be finite and exactly symmetric, as ``gram`` makes it; it
    is not modified.
    """
    # eigvalsh returns ascending values; clipping and zero-padding at the
    # front keep them ascending.
    vals = np.clip(np.linalg.eigvalsh(a) / n, 0.0, None)
    if a.shape[0] < d:
        vals = np.concatenate([np.zeros(d - a.shape[0]), vals])
    return vals


def load_matrix_csv(path) -> np.ndarray:
    """Load a sample matrix from CSV: one sample per line, no header.

    A leading UTF-8 byte-order mark is skipped. Every ValueError names the
    file: one with no data rows, and the offending 1-based line on bytes
    that are not UTF-8, ragged rows, unparseable fields or non-finite values
    (nan, inf, or a literal that overflows, such as 1e999).
    """
    rows: list[list[float]] = []
    width: int | None = None
    # surrogateescape decodes each byte that is not UTF-8 to a lone surrogate
    # U+DC80..U+DCFF, so the line holding it is the one that fails to parse.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                fields = stripped.split(",")
                try:
                    row = [float(f) for f in fields]
                except ValueError as exc:
                    bad = [ord(c) - 0xDC00 for c in line if "\udc80" <= c <= "\udcff"]
                    why = f"byte {bad[0]:#04x} is not UTF-8" if bad else f"unparseable value ({exc})"
                    raise ValueError(f"line {lineno}: {why}") from None
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"line {lineno}: non-finite value")
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
                rows.append(row)
            if not rows:
                raise ValueError("no data rows found")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return np.asarray(rows, dtype=float)
