"""Squared-exponential kernel.

Single isotropic lengthscale; both hyperparameters live in log-space so
positivity never needs a constrained optimizer.  Data and inducing inputs
are read by ``_as_inputs``, one way everywhere: a 1-D array is N inputs of
dimension 1, and any shape but N or N x D raises ``DimensionMismatch``.

Vectors by differences, matrices by one product.  Every one-point kernel
of the library, k(U, x_new) and a candidate's k(X, x_new) among them, is
one ``kernel_column``, whose squared distances are sum (X - x)^2: within a
few roundings of the exact value at any offset, so distinct points never
read 0, and needing no carried row norms.  At D>1 the sum is one
matrix-vector product of the squared differences with a kept read-only
ones vector: 2.4 against ``np.einsum``'s 3.2 us at 40 x 8, and 7.8
against 9.3 us at 400 x 8 (one BLAS thread, 2-core x86 host).  Every
matrix is one ``sq_dists``: at D=1 ``(x - z)^2``, one broadcast
subtraction squared in place; at D>1 the Gram expansion
|x|^2 + |z|^2 - 2 x.z, clipped at zero, which cancels on close points but
is one matrix product for all D columns (at a window set-up's 440 x 40 at
D=8, differences took about 370 us against 69 us, one BLAS thread on a
2-core x86 host).  A window's ``Kxu`` and ``Kuu`` are row blocks of one
``_from_sq_dists`` of one ``sq_dists`` ([X; U] to U), which the chain rule
reuses (``bound._window_setup``), and which a streaming state keeps as its
``kxu``.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    reads it here; a single point ``x`` of ``kernel_column`` is a vector.
    Any other shape (a scalar, or 3 or more dimensions) raises
    ``DimensionMismatch``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    elif X.ndim != 2:
        raise DimensionMismatch(f"expected N x D inputs, got shape {X.shape}")
    return X


@lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    """The read-only vector of n ones, made once per size."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances.

    At D=1, ``(x - z)^2`` by one broadcast subtraction squared in place:
    within three roundings of the exact value (the difference's, twice
    over in the square, and the square's own), so distinct points never
    read 0.  At D>1, the Gram expansion
    (|x|^2 + |z|^2) - 2 x.z, written in place and clipped at zero; it
    cancels on close points, but one matrix product is cheaper than D
    passes."""
    X, Z = _as_inputs(X), _as_inputs(Z)
    if X.shape[1] != Z.shape[1]:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, Z has {Z.shape[1]}")
    if X.shape[1] == 1:
        d2 = X - Z.T
        d2 *= d2
        return d2
    d2 = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :]
    d2 -= 2.0 * X @ Z.T
    return np.maximum(d2, 0.0, out=d2)


def kernel_matrix(X, Z, p: KernelParams) -> np.ndarray:
    """k(x, z) = variance * exp(-||x - z||^2 / (2 lengthscale^2))."""
    d2 = sq_dists(X, Z)
    return _from_sq_dists(d2, p, out=d2)


def kernel_column(X, x, p: KernelParams) -> np.ndarray:
    """k(X, x) for the rows of ``X`` and one point ``x``, as a vector.

    The squared distances are differences: at D=1 ``(X - x)^2`` squared in
    place, bit-identical to ``kernel_matrix(X, x[None]).ravel()``; at D>1
    the row sums of (X - x)^2, squared in place and summed by one
    matrix-vector product with a kept ones vector (``_ones``), exact to a
    few roundings where ``kernel_matrix``'s Gram form cancels on close
    points."""
    X = _as_inputs(X)
    x = np.asarray(x, dtype=float).ravel()
    if X.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[1]} columns, x has {x.shape[0]}")
    if x.shape[0] == 1:
        k = X[:, 0] - x
        k *= k
    else:
        d = X - x
        d *= d
        k = d @ _ones(x.shape[0])
    return _from_sq_dists(k, p, out=k)


def _from_sq_dists(d2: np.ndarray, p: KernelParams, out=None) -> np.ndarray:
    """The kernel from squared distances, for callers that reuse them: a new
    array, or ``out`` (which may be ``d2`` itself) written in place."""
    K = np.multiply(d2, -0.5 / p.lengthscale**2, out=out)
    np.exp(K, out=K)
    K *= p.variance
    return K
