"""Squared-exponential kernel.

Single isotropic lengthscale; both hyperparameters live in log-space so
positivity never needs a constrained optimizer.  Data and inducing inputs
are read by ``_as_inputs``, one way everywhere: a 1-D array is N inputs of
dimension 1.  A window's ``Kxu`` and ``Kuu`` are row blocks of one
``_from_sq_dists`` of one ``sq_dists`` ([X; U] to U), which the chain rule
reuses (``bound._window_setup``).  A step's one-point kernels are
``kernel_column``s; its k(U, x_new) and k(U, x_oldest), when it evicts
with no carried kxu, are one ``kernel_matrix``.
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


def _as_inputs(X) -> np.ndarray:
    """``X`` as a float N x D array, a 1-D one read as N inputs of dimension
    1 (a column).  Every function of the library that takes a set of inputs
    reads it here; a single point ``x`` of ``kernel_column`` is a vector."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    X, Z = _as_inputs(X), _as_inputs(Z)
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


def kernel_column(X, x, p: KernelParams) -> np.ndarray:
    """k(X, x) for the rows of ``X`` and one point ``x``, as a vector.

    ``kernel_matrix(X, x[None]).ravel()`` by one matrix-vector product, in
    place: distances as (|X|^2 + |x|^2) - 2 X x, clipped at 0, then the
    kernel in ``_from_sq_dists``' order.  Bit-identical to it at D=1; at
    larger D the sums may round differently."""
    X = _as_inputs(X)
    x = np.asarray(x, dtype=float).ravel()
    if X.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, x has {x.shape[0]}")
    k = np.einsum("ij,ij->i", X, X)
    k += x @ x
    k -= 2.0 * (X @ x)
    np.maximum(k, 0.0, out=k)
    k *= -0.5
    k /= p.lengthscale**2
    np.exp(k, out=k)
    k *= p.variance
    return k


def _from_sq_dists(d2: np.ndarray, p: KernelParams) -> np.ndarray:
    """The kernel from squared distances, for callers that reuse them."""
    return p.variance * np.exp(-0.5 * d2 / p.lengthscale**2)

