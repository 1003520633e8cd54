"""Weighted collapsed variational bound and its analytic gradients.

This is the numerical core shared by the batch model (unit weights) and the
adaptive model (geometric forgetting weights).  The bound is

    F = log N(y | 0, sigma^2 W^-1 + Kxu Kuu^-1 Kux)
        - 1/2 sum_i (w_i - 1) log(2 pi sigma^2)
        - 1/(2 sigma^2) sum_i w_i (k_ii - k_ui^T Kuu^-1 k_ui)

evaluated through the Woodbury identity on the M x M matrix
Binv = Kuu + sigma^-2 Kux W Kxu, so the cost is O(N M^2) and the N x N
covariance is never materialized.  ``_window_setup`` turns a window into
kernel matrices, weighted cross-moments and the factor of Kuu for the
bound (``_factor`` adds the factor of Binv), the explicit-q ELBO,
``vsgp.optimal_q`` and ``adaptive.rebuild_caches``; ``_q_from_factor`` is
the one optimal q.  Gradients are hand-derived via the chain rule through
the same form and validated against finite differences in the test suite.
Beside the set-up the gradient makes two N x M x M products and two N x M
arrays, W Kxu and dF/dKxu.
"""

from collections import namedtuple

import numpy as np

from . import linalg
from .kernel import KernelParams, _as_inputs, _from_sq_dists, sq_dists

_WindowSetup = namedtuple("_WindowSetup", "X y U w sig2 d2_uu d2_xu Kuu_raw "
                          "Kuu Kxu WKxu Wy S_k s_y f_k")


def _window_setup(X, y, U, params: KernelParams, log_noise: float, weights,
                  jitter: float) -> _WindowSetup:
    """Inputs read by ``_as_inputs``, the noise variance, the squared
    distances U-U and X-U and the kernel matrices built from them (``Kuu``
    with ``jitter`` on its diagonal, ``Kuu_raw`` without it), W Kxu, W y,
    the weighted cross-moments S_k = Kux W Kxu and s_y = Kux W y, and the
    factor of Kuu."""
    X, U = _as_inputs(X), _as_inputs(U)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    d2_uu, d2_xu = sq_dists(U, U), sq_dists(X, U)
    Kuu_raw = _from_sq_dists(d2_uu, params)
    Kuu = Kuu_raw + jitter * np.eye(U.shape[0])
    Kxu = _from_sq_dists(d2_xu, params)
    WKxu = w[:, None] * Kxu
    Wy = w * y
    return _WindowSetup(X, y, U, w, float(np.exp(log_noise)), d2_uu, d2_xu,
                        Kuu_raw, Kuu, Kxu, WKxu, Wy, Kxu.T @ WKxu, Kxu.T @ Wy,
                        linalg.cholesky_psd(Kuu, 0.0))


def _factor(X, y, U, params: KernelParams, log_noise: float, weights,
            jitter: float):
    """``_window_setup`` and the factor of Binv = Kuu + S_k / sig2."""
    s = _window_setup(X, y, U, params, log_noise, weights, jitter)
    return s, linalg.cholesky_psd(s.Kuu + s.S_k / s.sig2, 0.0)


def _q_from_factor(f_b: linalg.CholFactor, s_y, Kuu, sig2: float):
    """Optimal variational mean and covariance from L = chol(Binv):
    mu = V^T L^-1 s_y / sig2 and A = V^T V, with V = L^-1 Kuu."""
    V = linalg.solve_lower(f_b, Kuu)
    return V.T @ linalg.solve_lower(f_b, s_y) / sig2, V.T @ V


def _value(s: _WindowSetup, f_b, params: KernelParams) -> float:
    y, w, sig2, s_y = s.y, s.w, s.sig2, s.s_y
    n = y.shape[0]
    quad = np.dot(s.Wy, y) / sig2 - (s_y @ linalg.solve_psd(f_b, s_y)) / sig2**2
    logdet_cov = (
        n * np.log(sig2) - float(np.sum(np.log(w)))
        + linalg.logdet(f_b) - linalg.logdet(s.f_k)
    )
    gauss = -0.5 * (n * np.log(2.0 * np.pi) + logdet_cov + quad)

    w_ksum = params.variance * float(np.sum(w))
    trc = w_ksum - float(np.trace(linalg.solve_psd(s.f_k, s.S_k)))
    extra = -0.5 * (float(np.sum(w)) - n) * np.log(2.0 * np.pi * sig2)
    return float(gauss + extra - trc / (2.0 * sig2))


def weighted_bound(X, y, U, params: KernelParams, log_noise: float,
                   weights, jitter: float = 0.0) -> float:
    """Value of the weighted collapsed bound."""
    s, f_b = _factor(X, y, U, params, log_noise, weights, jitter)
    return _value(s, f_b, params)


def _chain_to_params(G_uu, G_xu, X, U, Kuu_raw, Kxu, d2_uu, d2_xu,
                     params: KernelParams):
    """Contract coefficient matrices dF/dKuu, dF/dKxu with the kernel's
    partials to get gradients w.r.t. the log-hyperparameters and U.

    ``Kuu_raw`` must be the unjittered inducing kernel matrix, and
    ``d2_uu``, ``d2_xu`` the squared distances U-U and X-U it and ``Kxu``
    were built from.  ``G_xu`` is overwritten by ``G_xu * Kxu``, so the
    contraction makes no N x M temporary.
    """
    ell2 = params.lengthscale**2

    Cuu = G_uu * Kuu_raw
    Cxu = np.multiply(G_xu, Kxu, out=G_xu)
    col = Cxu.sum(axis=0)
    g_lv = float(Cuu.sum() + col.sum())
    g_ll = float((Cuu * d2_uu).sum() + Cxu.ravel() @ d2_xu.ravel()) / ell2

    H = (G_uu + G_uu.T) * Kuu_raw
    gU = (H @ U - H.sum(axis=1)[:, None] * U) / ell2
    gU += (Cxu.T @ X - col[:, None] * U) / ell2
    return g_lv, g_ll, gU


def weighted_bound_gradients(X, y, U, params: KernelParams, log_noise: float,
                             weights, jitter: float = 0.0) -> dict:
    """Analytic gradient of :func:`weighted_bound`.

    Returns a dict with keys ``log_variance``, ``log_lengthscale``,
    ``log_noise`` and ``inducing`` (shaped like U).
    """
    s, f_b = _factor(X, y, U, params, log_noise, weights, jitter)
    sig2, S_k = s.sig2, s.S_k
    n = s.y.shape[0]
    B = linalg.inv_from_factor(f_b)
    Q = linalg.inv_from_factor(s.f_k)
    c = B @ s.s_y
    QS_k = Q @ S_k
    QmB = Q - B

    # dF/dKuu entrywise; dF/dKxu = WKxu (Q - B) / sig2 + r c^T.
    G_uu = (
        0.5 * QmB
        - 0.5 * (c[:, None] * c) / sig2**2
        - 0.5 * (QS_k @ Q) / sig2
    )
    r = (s.Wy - s.WKxu @ c / sig2) / sig2**2
    G_xu = linalg.add_outer(s.WKxu @ (QmB / sig2), r, c)
    g_lv, g_ll, gU = _chain_to_params(G_uu, G_xu, s.X, s.U, s.Kuu_raw, s.Kxu,
                                      s.d2_uu, s.d2_xu, params)

    sum_w = float(s.w.sum())
    w_ksum = params.variance * sum_w
    # The lambda-weighted diagonal term sum_i w_i k_ii depends on the signal
    # variance directly.
    g_lv += -w_ksum / (2.0 * sig2)

    trc = w_ksum - float(QS_k.trace())
    g_ln = (
        -0.5 * (n - (B * S_k).sum() / sig2)
        + 0.5 * np.dot(s.Wy, s.y) / sig2
        - (s.s_y @ c) / sig2**2
        + 0.5 * (c @ S_k @ c) / sig2**3
        - 0.5 * (sum_w - n)
        + trc / (2.0 * sig2)
    )

    return {
        "log_variance": float(g_lv),
        "log_lengthscale": float(g_ll),
        "log_noise": float(g_ln),
        "inducing": gU,
    }
