"""Synthetic covariance models and data generation for experiments.

Four covariance families are supported, each with a known spectrum so
recovery error can be measured exactly:

* ``identity``          all eigenvalues 1
* ``two_spike``         half the eigenvalues 1, half 2 (d must be even)
* ``uniform_spectrum``  eigenvalues 2i/d for i = 1..d
* ``toeplitz``          Sigma[i, j] = 0.3^|i - j| (``TOEPLITZ_RHO``)

Data is generated as Y = X Sigma^(1/2) where X has i.i.d. zero-mean
unit-variance entries. The three diagonal families carry their square
root as the length-d vector sqrt(lambda), applied by scaling the columns
of X; ``toeplitz`` carries the d x d symmetric square root, applied by a
matrix product.

The toeplitz covariance is the Kac-Murdock-Szego matrix, whose eigen-system
is known in closed form (Kac, Murdock & Szego 1953), so its spectrum and
square root take no eigendecomposition: the eigen-angles come from one
vectorised bisection, the eigenvectors from O(d^2) sines, and the square
root from one symmetric rank-d update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram

__all__ = [
    "FAMILIES",
    "ENTRY_KINDS",
    "CovarianceModel",
    "entry_distribution",
    "true_spectrum",
    "factor",
    "draw_entry_matrix",
    "sample",
]

FAMILIES = ("identity", "two_spike", "uniform_spectrum", "toeplitz")

TOEPLITZ_RHO = 0.3  # decay of the toeplitz family's covariance


@dataclass(frozen=True)
class CovarianceModel:
    """A named covariance family at a fixed dimension."""

    family: str
    d: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.family == "two_spike" and self.d % 2 != 0:
            raise ValueError("two_spike requires an even dimension")


# Zero-mean unit-variance entry laws, each an (rng, n, d) -> n x d draw.
_ENTRY_DRAWS = {
    "gaussian": lambda rng, n, d: rng.standard_normal((n, d)),
    "rademacher": lambda rng, n, d: 2.0 * rng.integers(0, 2, size=(n, d)).astype(float) - 1.0,
    "uniform_scaled": lambda rng, n, d: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n, d)),
}

ENTRY_KINDS = tuple(_ENTRY_DRAWS)


def entry_distribution(kind: str):
    """The draw function (rng, n, d) -> n x d array of the named entry law."""
    try:
        return _ENTRY_DRAWS[kind]
    except KeyError:
        raise ValueError(
            f"unknown entry distribution {kind!r}, expected one of {ENTRY_KINDS}"
        ) from None


def _toeplitz_angles(d: int) -> np.ndarray:
    """The angles theta of the toeplitz eigen-system, descending.

    Sigma^-1 is tridiagonal, so each eigenvalue is (1 - rho^2) /
    (1 - 2 rho cos(theta) + rho^2), where theta is a root of
    f(theta) = sin((d+1) theta) - 2 rho sin(d theta) + rho^2 sin((d-1) theta).
    f has opposite signs at the ends of ((j-1) pi/d, j pi/(d+1)), j = 1..d,
    and exactly one root inside each; all d brackets are bisected at once
    until they are adjacent floats.
    """
    rho = TOEPLITZ_RHO

    def f(theta):
        return (
            np.sin((d + 1) * theta)
            - 2.0 * rho * np.sin(d * theta)
            + rho**2 * np.sin((d - 1) * theta)
        )

    j = np.arange(d, 0, -1)
    lo, hi = (j - 1) * np.pi / d, j * np.pi / (d + 1)
    hi_negative = np.signbit(f(hi))
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            return mid
        root_below = np.signbit(f(mid)) == hi_negative
        hi = np.where(root_below, mid, hi)
        lo = np.where(root_below, lo, mid)


def _toeplitz_eigenvalues(theta: np.ndarray) -> np.ndarray:
    """The toeplitz eigenvalue at each angle from ``_toeplitz_angles``."""
    rho = TOEPLITZ_RHO
    return (1.0 - rho**2) / (1.0 - 2.0 * rho * np.cos(theta) + rho**2)


def true_spectrum(model: CovarianceModel) -> np.ndarray:
    """Population eigenvalues of the model covariance, ascending."""
    d = model.d
    if model.family == "identity":
        return np.ones(d)
    if model.family == "two_spike":
        return np.concatenate([np.ones(d // 2), np.full(d // 2, 2.0)])
    if model.family == "uniform_spectrum":
        return 2.0 * np.arange(1, d + 1) / d
    # Eigenvalues fall as theta rises, so descending angles give them ascending.
    return _toeplitz_eigenvalues(_toeplitz_angles(d))


def factor(model: CovarianceModel) -> np.ndarray:
    """The square root of the model covariance, in the form ``sample`` takes.

    Diagonal families give the length-d vector sqrt(lambda), which stands
    for diag(sqrt(lambda)); the toeplitz family gives the d x d symmetric
    square root S, with S^T S = S S^T = Sigma.
    """
    if model.family != "toeplitz":
        return np.sqrt(true_spectrum(model))
    theta = _toeplitz_angles(model.d)
    # Eigenvector j has entries sin((k+1) theta_j) - rho sin(k theta_j),
    # k = 0..d-1, built from one table of sin(k theta_j), k = 0..d.
    v = np.arange(model.d + 1)[:, None] * theta
    np.sin(v, out=v)
    v = v[1:] - TOEPLITZ_RHO * v[:-1]
    # With the unit eigenvectors scaled by lambda^(1/4), S = V diag(sqrt(lambda)) V^T
    # is the gram of V's rows: one symmetric rank-d update, bit-symmetric.
    v *= _toeplitz_eigenvalues(theta) ** 0.25 / np.linalg.norm(v, axis=0)
    return gram(v)


def draw_entry_matrix(entry, n: int, d: int, seed) -> np.ndarray:
    """The raw n x d i.i.d. entry matrix X, before covariance shaping."""
    if n < 1 or d < 1:
        raise ValueError(f"matrix shape must be positive, got ({n}, {d})")
    draw = entry_distribution(entry)
    return draw(np.random.default_rng(seed), n, d)


def sample(s: np.ndarray, n: int, entry, seed) -> np.ndarray:
    """Draw n samples Y = X S with i.i.d. entries in X.

    ``s`` is a ``factor``: a length-d vector scales the columns of X,
    which is bit for bit X @ diag(s), and a d x d matrix multiplies it.
    Deterministic given ``seed``; the same seed always yields the same
    data matrix.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2):
        raise ValueError(
            f"factor must be a length-d vector or a d x d matrix, got shape {s.shape}"
        )
    x = draw_entry_matrix(entry, n, s.shape[0], seed)
    return np.multiply(x, s, out=x) if s.ndim == 1 else x @ s
