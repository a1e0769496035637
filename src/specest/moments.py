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
all (none for k_max <= 2), each on triangular factors.

The average requires no bias correction at any sample size, which is
what makes the estimator usable when n is far below d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NonFiniteError, _as_matrix, gram

__all__ = [
    "MomentEstimate",
    "binomial",
    "trial_seed",
    "estimate_moments",
]


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float, exact up to float rounding of the true integer."""
    return float(math.comb(n, k))


def trial_seed(seed: int, i: int) -> int:
    """Derived seed for trial i of a Monte-Carlo run: seed XOR i."""
    return seed ^ i


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
        if self.k_max > self.n:
            raise ValueError(f"k_max={self.k_max} exceeds sample count n={self.n}")

    @property
    def k_max(self) -> int:
        return int(self.values.size)


# Row-block height of the triangular products; 128 and 512 time the same.
_BLOCK = 256


def _row_blocks(n: int):
    for i in range(0, n, _BLOCK):
        yield i, min(i + _BLOCK, n)


def _cycle_traces(a: np.ndarray, k_max: int) -> np.ndarray:
    """tr(G^(k-1) A) for k = 1..k_max, where G = strict_upper(a).

    Overwrites ``a`` with G: past the trace of A, only its strict upper
    triangle is needed. With h = k_max // 2, the traces for k = 2..h+1
    come from tr(G^m A) = <G^m, G> over the powers G..G^h, and the rest
    from tr(G^(h+p) A) = <G^p, G (G^h)^T>, p = 1..k_max-1-h, with
    G (G^h)^T formed one row block at a time. That is k_max // 2 matrix
    products (none for k_max <= 2), and h n x n arrays are live at once.

    Row block [i, j) of a strictly upper triangular factor is zero left
    of column i + 1, so every product reads only columns i: of its
    operands, about a third of the flops of a dense n x n product.
    """
    n = a.shape[0]
    out = np.zeros(k_max)
    out[0] = np.trace(a)
    if k_max == 1:
        return out
    g = a
    for i, j in _row_blocks(n):
        g[i:j, :i] = 0.0
        g[i:j, i:j] = np.triu(g[i:j, i:j], 1)
    h = k_max // 2
    powers = [g]
    for _ in range(h - 1):
        power = np.zeros(g.shape)
        for i, j in _row_blocks(n):
            np.matmul(powers[-1][i:j, i:], g[i:, i:], out=power[i:j, i:])
        powers.append(power)
    for m, power in enumerate(powers, start=1):
        out[m] = np.vdot(power, g)
    rest = k_max - 1 - h
    if rest:
        top = powers[-1]
        for i, j in _row_blocks(n):
            w = g[i:j, i:] @ top[i:, i:].T
            for p, power in enumerate(powers[:rest], start=1):
                out[h + p] += np.vdot(power[i:j, i:], w)
    return out


def _validate_k(n: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got k={k}")
    if k > n:
        raise ValueError(f"moment order k={k} exceeds sample count n={n}")


# Overflow is checked for at the end and raised as NonFiniteError.
@np.errstate(over="ignore", invalid="ignore")
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
        If the gram matrix or the moments overflow, as a tiny b makes them.
    """
    y = _as_matrix(y, "data matrix")
    n, d = y.shape
    _validate_k(n, k_max)
    if not 0 < b < math.inf:
        raise ValueError(f"scale must be positive and finite, got b={b}")
    # Scaling the gram matrix by 1/b is the same map as scaling the
    # samples by 1/sqrt(b), one n^2 pass instead of an n*d pass. In place,
    # so one n x n array is live; _cycle_traces then overwrites it with G.
    a = gram(y)
    a /= b
    traces = _cycle_traces(a, k_max)
    values = traces / (d * np.array([binomial(n, k) for k in range(1, k_max + 1)]))
    if not np.isfinite(values).all():
        raise NonFiniteError(f"moment estimates overflowed to non-finite values at b={b!r}")
    return MomentEstimate(values=values, n=n, d=d)
