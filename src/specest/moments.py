"""Unbiased spectral-moment estimation from a sample matrix.

Given n samples in the rows of Y (n x d), the k-th population spectral
moment (1/d) * sum_i lambda_i^k of the covariance is estimated from the
gram matrix A = Y Y^T by averaging the cycle products

    A[i_1, i_2] * A[i_2, i_3] * ... * A[i_k, i_1]

over all index tuples i_1 < i_2 < ... < i_k. Each such product is an
unbiased estimate of the (un-normalized) k-th moment, and restricting
to increasing tuples lets the whole average collapse to a single trace:
with G the strict upper triangle of A,

    sum over increasing k-tuples = tr(G^(k-1) A).

Two exact identities make those traces cheap. Since A = diag(A) + G + G^T
and every power G^m (m >= 1) is strictly upper triangular,

    tr(G^m A) = <G^m, G>,

an elementwise inner product; and splitting m = h + p,

    tr(G^(h+p) A) = <G^p, G (G^h)^T>.

With h = floor(k_max / 2), the powers G^2..G^h and one pass of
G (G^h)^T give every trace up to k_max: floor(k_max / 2) products in
all (none for k_max <= 2). The diagonal of that last product also gives
tr(G (G^h)^T) = <G^h, G>, the trace for k = h + 1. Each product is
computed only on the tiles (I, J >= I) where its upper triangular output
can be non-zero, over the inner range where both factors can be: about a
sixth of the flops of a dense n x n product as n grows.

A strictly upper triangular power leaves the lower triangle of its n x n
array unused, so the powers above G^ceil(h / 2) are kept, transposed, in
the lower triangles of the arrays that hold G..G^ceil(h / 2). The kernel
keeps ceil(h / 2) n x n arrays: one, the gram's own, for k_max <= 5, and
two for k_max <= 9.

The average requires no bias correction at any sample size, which is
what makes the estimator usable when n is far below d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import NonFiniteError, _as_matrix, gram

__all__ = [
    "MomentEstimate",
    "estimate_moments",
]


@dataclass(frozen=True)
class MomentEstimate:
    """Moment estimates for k = 1..k_max plus the context they came from.

    ``values[k-1]`` estimates the k-th spectral moment of the covariance
    after eigenvalues are divided by the bound b given to
    ``estimate_moments``, i.e. of the spectrum mapped into [0, 1] when b
    really is an upper bound.
    """

    values: np.ndarray
    n: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be positive, got n={self.n} d={self.d}")
        _validate_k(self.n, self.k_max)

    @property
    def k_max(self) -> int:
        return int(self.values.size)


def _tile_edge(n: int) -> int:
    """Tile edge of the triangular products for an n x n gram.

    At k_max = 5 on a 2-CPU host, 128 beat 256 at n = 200 and 256, where
    256 is one tile (0.70-0.75 against 0.83-0.89 and 1.31-1.35 against
    1.80-1.85 ms, medians of 61), and at n = 512 and 1024 (4.0-4.1 against
    4.9-5.0 and 21.5-22.2 against 23.1-23.4 ms, medians of 9); 256 won at
    n = 2048 (127-132 against 135 ms). n <= 128 is one tile either way.
    """
    return 128 if n < 2048 else 256


def _cycle_traces(a: np.ndarray, k_max: int) -> np.ndarray:
    """tr(G^(k-1) A) for k = 1..k_max, G the strict upper triangle of a.

    Overwrites ``a``: past the trace of A, its strict upper triangle holds
    G. With h = k_max // 2, the traces for k = 2..h come from
    tr(G^m A) = <G^m, G>, the one for k = h+1 from the trace of G (G^h)^T,
    and the rest from tr(G^(h+p) A) = <G^p, G (G^h)^T>, p = 1..k_max-1-h,
    with G (G^h)^T formed one tile at a time. That is k_max // 2 matrix
    products (none for k_max <= 2).

    With u = ceil(h / 2), the powers G..G^u stand upright in the upper
    triangles of u n x n arrays, G in ``a`` itself. Each power G^(u+r),
    r = 1..h-u, is G^u G^r, and its transpose fills the strictly lower
    off-diagonal tiles of the r-th array (which no product reads), with
    its diagonal tiles, transposed, in an n x edge side array of their
    own: a diagonal tile of an upright power must keep the zeros below
    its diagonal. So u n x n arrays, h - u side arrays and two tiles are
    live at once. Every product reads both factors upright; the last pass
    gathers the rows of a transposed G^h it needs, one tile row at a time,
    over side rows no later tile reads.

    Every product is taken over tiles [i, j) x [c, e) with c >= i: the
    traces read only the upper triangle of each product, and rows [i, j)
    of a strictly upper triangular factor are zero left of column i. So a
    power tile needs only the inner range i:e, and a tile of G (G^h)^T
    only c:. For n_t tiles a side that is n_t (n_t + 1) (n_t + 2) / 6 tile
    products, about a sixth of a dense n x n product.
    """
    n = a.shape[0]
    out = np.zeros(k_max)
    out[0] = np.trace(a)
    if k_max == 1:
        return out
    edge = _tile_edge(n)
    blocks = [(i, min(i + edge, n)) for i in range(0, n, edge)]
    g = a
    for i, j in blocks:
        g[i:j, i:j] = np.triu(g[i:j, i:j], 1)
        out[1] += np.einsum("ij,ij->", g[i:j, i:], g[i:j, i:])
    h = k_max // 2
    u = (h + 1) // 2
    bufs = [g] + [np.empty((n, n)) for _ in range(u - 1)]
    sides = [np.empty((n, blocks[0][1])) for _ in range(h - u)]

    def stored(m, i, j, c, e):
        # Where G^m[i:j, c:e] (c >= i) is kept; for m > u, its transpose.
        if m <= u:
            return bufs[m - 1][i:j, c:e]
        return sides[m - u - 1][i:j, : j - i] if c == i else bufs[m - u - 1][c:e, i:j]

    for m in range(2, h + 1):
        # G^m = G^s G^(m-s), both factors upright.
        s = min(m - 1, u)
        left, right = bufs[s - 1], bufs[m - s - 1]
        for b, (i, j) in enumerate(blocks):
            for c, e in blocks[b:]:
                x = stored(m, i, j, c, e)
                if m <= u:
                    np.matmul(left[i:j, i:e], right[i:e, c:e], out=x)
                else:
                    np.matmul(right[i:e, c:e].T, left[i:j, i:e].T, out=x)
                if m < h:
                    out[m] += np.einsum("ij,ij->" if m <= u else "ij,ji->", x, g[i:j, c:e])
    rest = k_max - 1 - h
    if not rest:
        return out
    # Block columns last to first, so that rows c: of G^h's side array can
    # take (G^h[c:e, c:])^T: its diagonal tile is already in place, and the
    # rows below it hold diagonal tiles of blocks past c, which no later
    # tile reads.
    for b in reversed(range(len(blocks))):
        c, e = blocks[b]
        if h == 1:
            top = g[c:e, c:].T
        else:
            top = sides[-1][c:, : e - c]
            top[e - c :] = bufs[h - u - 1][e:, c:e]
        for i, j in blocks[: b + 1]:
            w = g[i:j, c:] @ top
            if i == c and h > 1:
                out[h] += np.trace(w)
            for p in range(1, rest + 1):
                pair = "ij,ij->" if p <= u else "ij,ji->"
                out[h + p] += np.einsum(pair, stored(p, i, j, c, e), w)
    return out


def _validate_k(n: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got k={k}")
    if k > n:
        raise ValueError(f"moment order k={k} exceeds sample count n={n}")


def estimate_moments(y, k_max: int, b: float = 1.0) -> MomentEstimate:
    """Estimate spectral moments 1..k_max of the b-rescaled covariance.

    The samples are divided by sqrt(b) before estimation, so the k-th
    returned value targets (1/d) * sum_i (lambda_i / b)^k. With b an
    upper bound on the population eigenvalues, that is the moment
    sequence of a distribution supported on [0, 1].

    Parameters
    ----------
    y : ndarray of shape (n, d)
    k_max : int
        Highest moment order, 1 <= k_max <= n.
    b : float
        Positive finite eigenvalue scale; b = 1 leaves the data untouched.

    Returns
    -------
    MomentEstimate

    Raises
    ------
    NonFiniteError
        If ``y`` has a non-finite entry ("data matrix contains non-finite
        entries", from ``gram``), or if the gram matrix or the cycle traces
        overflow, as a tiny b makes them.
    """
    y = _as_matrix(y)
    n, d = y.shape
    _validate_k(n, k_max)
    if not 0 < b < math.inf:
        raise ValueError(f"scale must be positive and finite, got b={b}")
    return _gram_moments(gram(y), d, k_max, b)


@np.errstate(over="ignore", invalid="ignore")
def _gram_moments(a: np.ndarray, d: int, k_max: int, b: float) -> MomentEstimate:
    """The rest of ``estimate_moments``, from the n x n gram ``a`` of d-dimensional samples.

    ``a`` must be finite, as ``gram`` checks; it is overwritten.
    """
    n = a.shape[0]
    # Scaling the gram matrix by 1/b is the same map as scaling the
    # samples by 1/sqrt(b), one n^2 pass instead of an n*d pass. In place:
    # _cycle_traces then keeps G in its upper triangle and the transposed
    # top powers of G in its lower one, so for k_max <= 5 this is the only
    # n x n array (two for k_max <= 9).
    a /= b
    traces = _cycle_traces(a, k_max)
    if not np.isfinite(traces).all():
        raise NonFiniteError(f"moment estimates overflowed to non-finite values at b={b!r}")
    # Exact quotients: C(n, k) passes the float range (at k = 500 for n = 1030).
    values = [float(Fraction(t) / (d * math.comb(n, k))) for k, t in enumerate(traces, 1)]
    return MomentEstimate(values=values, n=n, d=d)
