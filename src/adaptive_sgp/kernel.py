"""Squared-exponential kernel.

Single isotropic lengthscale; both hyperparameters live in log-space so
positivity never needs a constrained optimizer.  The kernel's analytic
partials are contracted directly in ``bound._chain_to_params``, which
reads the squared distances its caller built the kernel matrices from
(``_from_sq_dists``), so a gradient computes each distance matrix once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class KernelParams:
    """Log-space hyperparameters: signal variance and shared lengthscale.

    ``variance`` and ``lengthscale`` are computed on first read and kept in
    the instance's ``__dict__``; equality and hashing use the two fields
    only."""

    log_variance: float
    log_lengthscale: float

    @cached_property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @cached_property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))


def _as_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    return X


def sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    X, Z = _as_2d(X), _as_2d(Z)
    if X.shape[1] != Z.shape[1]:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, Z has {Z.shape[1]}")
    d2 = (
        (X * X).sum(axis=1)[:, None]
        + (Z * Z).sum(axis=1)[None, :]
        - 2.0 * X @ Z.T
    )
    return np.maximum(d2, 0.0)


def kernel_matrix(X, Z, p: KernelParams) -> np.ndarray:
    """k(x, z) = variance * exp(-||x - z||^2 / (2 lengthscale^2))."""
    return _from_sq_dists(sq_dists(X, Z), p)


def _from_sq_dists(d2: np.ndarray, p: KernelParams) -> np.ndarray:
    """The kernel from squared distances, for callers that reuse them."""
    return p.variance * np.exp(-0.5 * d2 / p.lengthscale**2)
