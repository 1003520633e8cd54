"""Batch variational sparse GP: collapsed bound, optimal variational
distribution, predictive posterior, and Adam-based batch training
(``train``, the ascent loop shared by ``fit_batch`` and the sliding-window
baseline's retraining).

``fit_batch`` initializes every streaming model kind.
"""

from dataclasses import dataclass

import numpy as np

from . import bound, linalg
from .errors import DimensionMismatch
from .kernel import KernelParams, _as_inputs, kernel_column
from .optim import Adam, ascent_step

DEFAULT_JITTER = 1e-6


@dataclass(frozen=True)
class PredictiveDist:
    """Latent-function predictive mean and variance at one query point."""

    mean: float
    var: float


def _clamp_var(v: float) -> float:
    # Tiny negative values are rounding noise; anything worse is a bug the
    # property suite is meant to catch, so only clamp near zero.
    return max(float(v), 0.0)


@dataclass
class VsgpModel:
    inducing: np.ndarray          # M x D
    params: KernelParams
    log_noise: float
    q_mean: np.ndarray            # M
    q_cov: np.ndarray             # M x M
    kuu_inv: np.ndarray           # inverse of jittered Kuu
    jitter: float = DEFAULT_JITTER


def collapsed_bound(X, y, U, params: KernelParams, log_noise: float,
                    jitter: float = DEFAULT_JITTER) -> float:
    """Collapsed variational lower bound on the log marginal likelihood."""
    y = np.asarray(y, dtype=float).ravel()
    return bound.weighted_bound(X, y, U, params, log_noise,
                                np.ones(y.shape[0]), jitter)


def optimal_q(X, y, U, params: KernelParams, log_noise: float,
              jitter: float = DEFAULT_JITTER):
    """Closed-form optimal variational mean and covariance
    (``bound._q_from_factor``): mu = sigma^-2 Kuu B Kux y,  A = Kuu B Kuu,
    with B = (Kuu + sigma^-2 Kux Kxu)^-1.
    """
    s, f_b = bound._factor(X, y, U, params, log_noise, np.ones(np.size(y)),
                           jitter)
    return bound._q_from_factor(f_b, s.s_y, s.Kuu, s.sig2)


def _check_one_point(xstar, who: str) -> None:
    """Raise ``DimensionMismatch`` unless ``xstar`` is one point: a scalar,
    or an array shaped (D,) or (1, D)."""
    shape = np.shape(xstar)
    if len(shape) > 2 or len(shape) == 2 and shape[0] != 1:
        raise DimensionMismatch(f"{who} takes one point, got shape {shape}")


def _check_finite(X: np.ndarray, y: np.ndarray, who: str) -> None:
    """Raise ``ValueError`` naming a row of ``X`` (N x D) or ``y`` that
    holds an inf or NaN: a stream skips such a sample, but a fit or a cache
    rebuild over it cannot be factored."""
    for what, ok in (("input", np.isfinite(X).all(axis=1)),
                     ("target", np.isfinite(y))):
        if not ok.all():
            raise ValueError(f"{who}: row {int(ok.argmin())} has a non-finite "
                             f"{what}; only a streamed sample can be skipped")


def predict(model: VsgpModel, xstar) -> PredictiveDist:
    """Predictive mean/variance at a single query input (O(M^2)); a query
    of several rows raises ``DimensionMismatch`` before any kernel."""
    _check_one_point(xstar, "predict")
    ks = kernel_column(model.inducing, xstar, model.params)
    return _q_predict(ks, model.params.variance, model.kuu_inv,
                      model.q_mean, model.q_cov)


def _q_predict(ks, kss: float, kuu_inv, q_mean, q_cov) -> PredictiveDist:
    """Predictive mean/variance from an explicit q, given the query's row
    ``ks`` = k(U, x) and prior variance ``kss`` (O(M^2))."""
    a = kuu_inv @ ks
    mean = float(a @ q_mean)
    var = kss - float(ks @ a) + float(a @ q_cov @ a)
    return PredictiveDist(mean=mean, var=_clamp_var(var))


def init_hyperparams(X, y) -> tuple[KernelParams, float]:
    """Deterministic data-dependent starting point for batch training."""
    X = _as_inputs(X)
    y = np.asarray(y, dtype=float).ravel()
    y_var = max(float(np.var(y)), 1e-6)
    scale = float(np.mean(np.std(X, axis=0))) or 1.0
    params = KernelParams(log_variance=float(np.log(y_var)),
                          log_lengthscale=float(np.log(scale)))
    log_noise = float(np.log(0.1 * y_var))
    return params, log_noise


def fit_batch(X, y, M: int, iters: int, seed: int, lr: float = 0.05,
              jitter: float = DEFAULT_JITTER) -> VsgpModel:
    """Train a batch model: subset-of-data inducing initialization, ``iters``
    Adam ascent steps on the collapsed bound (``train``), then the optimal
    q and the cached Kuu inverse from one ``bound._factor``.  Before any
    fit, an ``X`` and ``y`` of different lengths raise
    ``DimensionMismatch``, naming both, and an inf or NaN input or target
    ``ValueError``, naming its row."""
    X = _as_inputs(X)
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    if y.shape[0] != n:
        raise DimensionMismatch(f"fit_batch: X has {n} rows but y has "
                                f"{y.shape[0]} targets")
    if not 1 <= M <= n:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={n}")
    _check_finite(X, y, "fit_batch")

    rng = np.random.default_rng(seed)
    U = X[rng.choice(n, size=M, replace=False)].copy()
    params, log_noise = init_hyperparams(X, y)

    U, params, log_noise = train(X, y, U, params, log_noise, Adam(lr=lr),
                                 iters, jitter)
    s, f_b = bound._factor(X, y, U, params, log_noise, np.ones(n), jitter)
    mu, A = bound._q_from_factor(f_b, s.s_y, s.Kuu, s.sig2)
    return VsgpModel(inducing=U, params=params, log_noise=log_noise,
                     q_mean=mu, q_cov=A, kuu_inv=linalg.inv_from_factor(s.f_k),
                     jitter=jitter)


def train(X, y, U, params: KernelParams, log_noise: float, opt: Adam,
          iters: int, jitter: float):
    """``iters`` Adam ascent steps on the collapsed bound over all of
    (U, kernel, noise); returns ``(U, params, log_noise)``.

    ``X`` is N x D and ``y`` has N entries; ``opt`` keeps its moments, so a
    warm-started caller passes the same optimizer every time."""
    ones = np.ones(y.shape[0])
    for _ in range(iters):
        g = bound.weighted_bound_gradients(X, y, U, params, log_noise, ones,
                                           jitter)
        U, params, log_noise = ascent_step(opt, g, U, params, log_noise)
    return U, params, log_noise
