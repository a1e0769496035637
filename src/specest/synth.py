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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "ENTRY_KINDS",
    "CovarianceModel",
    "EntryDistribution",
    "entry_distribution",
    "true_spectrum",
    "covariance",
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


@dataclass(frozen=True)
class EntryDistribution:
    """Zero-mean unit-variance entry law with its known fourth moment."""

    kind: str
    fourth_moment: float

    def draw(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((n, d))
        if self.kind == "rademacher":
            return 2.0 * rng.integers(0, 2, size=(n, d)).astype(float) - 1.0
        if self.kind == "uniform_scaled":
            half = math.sqrt(3.0)
            return rng.uniform(-half, half, size=(n, d))
        raise ValueError(f"unknown entry distribution {self.kind!r}")


_ENTRY_DISTRIBUTIONS = {
    "gaussian": EntryDistribution("gaussian", 3.0),
    "rademacher": EntryDistribution("rademacher", 1.0),
    "uniform_scaled": EntryDistribution("uniform_scaled", 9.0 / 5.0),
}

ENTRY_KINDS = tuple(_ENTRY_DISTRIBUTIONS)


def entry_distribution(kind) -> EntryDistribution:
    """Look up an entry distribution by name (passes through instances)."""
    if isinstance(kind, EntryDistribution):
        return kind
    try:
        return _ENTRY_DISTRIBUTIONS[kind]
    except KeyError:
        raise ValueError(
            f"unknown entry distribution {kind!r}, expected one of {ENTRY_KINDS}"
        ) from None


def true_spectrum(model: CovarianceModel) -> np.ndarray:
    """Population eigenvalues of the model covariance, ascending."""
    d = model.d
    if model.family == "identity":
        return np.ones(d)
    if model.family == "two_spike":
        return np.concatenate([np.ones(d // 2), np.full(d // 2, 2.0)])
    if model.family == "uniform_spectrum":
        return 2.0 * np.arange(1, d + 1) / d
    return np.linalg.eigvalsh(covariance(model))


def covariance(model: CovarianceModel) -> np.ndarray:
    """The model covariance matrix Sigma itself."""
    d = model.d
    if model.family == "toeplitz":
        idx = np.arange(d)
        return TOEPLITZ_RHO ** np.abs(idx[:, None] - idx[None, :])
    return np.diag(true_spectrum(model))


def factor(model: CovarianceModel) -> np.ndarray:
    """The square root of the model covariance, in the form ``sample`` takes.

    Diagonal families give the length-d vector sqrt(lambda), which stands
    for diag(sqrt(lambda)); the toeplitz family gives the d x d symmetric
    square root S, with S^T S = S S^T = Sigma.
    """
    if model.family == "toeplitz":
        sigma = covariance(model)
        vals, vecs = np.linalg.eigh(sigma)
        vals = np.clip(vals, 0.0, None)
        return (vecs * np.sqrt(vals)) @ vecs.T
    return np.sqrt(true_spectrum(model))


def draw_entry_matrix(entry, n: int, d: int, seed) -> np.ndarray:
    """The raw n x d i.i.d. entry matrix X, before covariance shaping."""
    if n < 1 or d < 1:
        raise ValueError(f"matrix shape must be positive, got ({n}, {d})")
    dist = entry_distribution(entry)
    rng = np.random.default_rng(seed)
    return dist.draw(rng, n, d)


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
    return x * s if s.ndim == 1 else x @ s
