"""Squared-exponential kernel with analytic gradients.

Single isotropic lengthscale; both hyperparameters live in log-space so
positivity never needs a constrained optimizer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class KernelParams:
    """Log-space hyperparameters: signal variance and shared lengthscale."""

    log_variance: float
    log_lengthscale: float

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @property
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
        np.sum(X**2, axis=1)[:, None]
        + np.sum(Z**2, axis=1)[None, :]
        - 2.0 * X @ Z.T
    )
    return np.maximum(d2, 0.0)


def kernel_matrix(X, Z, p: KernelParams) -> np.ndarray:
    """k(x, z) = variance * exp(-||x - z||^2 / (2 lengthscale^2))."""
    d2 = sq_dists(X, Z)
    return p.variance * np.exp(-0.5 * d2 / p.lengthscale**2)


def kernel_grads(X, Z, p: KernelParams):
    """Analytic partials of each kernel entry.

    Returns
    -------
    (dK_dlogvar, dK_dloglen, dK_dZ)
        The first two have the same shape as the kernel matrix (n x m);
        the third is n x m x D with the derivative w.r.t. each coordinate
        of each row of Z.
    """
    X, Z = _as_2d(X), _as_2d(Z)
    ell2 = p.lengthscale**2
    d2 = sq_dists(X, Z)
    K = p.variance * np.exp(-0.5 * d2 / ell2)
    dK_dlogvar = K
    dK_dloglen = K * d2 / ell2
    # dk/dz_d = k * (x_d - z_d) / ell^2
    diff = X[:, None, :] - Z[None, :, :]
    dK_dZ = K[:, :, None] * diff / ell2
    return dK_dlogvar, dK_dloglen, dK_dZ
