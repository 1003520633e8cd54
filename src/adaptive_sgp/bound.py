"""Weighted collapsed variational bound and its analytic gradients.

This is the numerical core shared by the batch model (unit weights) and the
adaptive model (geometric forgetting weights).  The bound is

    F = log N(y | 0, sigma^2 W^-1 + Kxu Kuu^-1 Kux)
        - 1/2 sum_i (w_i - 1) log(2 pi sigma^2)
        - 1/(2 sigma^2) sum_i w_i (k_ii - k_ui^T Kuu^-1 k_ui)

evaluated through the Woodbury identity on the M x M matrix
Binv = Kuu + sigma^-2 Kux W Kxu, so the cost is O(N M^2) and the N x N
covariance is never materialized.  ``weighted_bound`` and
``weighted_bound_gradients`` share one set-up (``_factor``), which builds
its kernel matrices through ``kernel._inducing_kernels`` like the
explicit-q ELBO and ``vsgp.optimal_q``.  Gradients are hand-derived via
the chain rule through the same form and validated against finite
differences in the test suite.  Beside the kernel set-up the gradient
makes two N x M x M products and two N x M arrays, W Kxu and dF/dKxu.
"""

import numpy as np

from . import linalg
from .kernel import KernelParams, _inducing_kernels


def _factor(X, y, U, params: KernelParams, log_noise: float, weights, jitter: float):
    """Inputs as arrays, the squared distances U-U and X-U and the kernel
    matrices built from them (``kernel._inducing_kernels``; ``Kuu_raw``
    without jitter), W Kxu, W y, the weighted cross-moments
    S_k = Kux W Kxu and s_y = Kux W y, and the factors of Kuu and Binv."""
    X, U, d2_uu, d2_xu, Kuu_raw, Kuu, Kxu = _inducing_kernels(X, U, params,
                                                              jitter)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    sig2 = float(np.exp(log_noise))
    WKxu = w[:, None] * Kxu
    Wy = w * y
    S_k = Kxu.T @ WKxu
    s_y = Kxu.T @ Wy
    f_k = linalg.cholesky_psd(Kuu, 0.0)
    f_b = linalg.cholesky_psd(Kuu + S_k / sig2, 0.0)
    return (X, y, U, w, sig2, d2_uu, d2_xu, Kuu_raw, Kxu, WKxu, Wy, S_k, s_y,
            f_k, f_b)


def _value(y, w, Wy, sig2, params: KernelParams, S_k, s_y, f_k, f_b) -> float:
    n = y.shape[0]
    Bs_y = linalg.solve_psd(f_b, s_y)
    quad = np.dot(Wy, y) / sig2 - (s_y @ Bs_y) / sig2**2
    logdet_cov = (
        n * np.log(sig2) - float(np.sum(np.log(w)))
        + linalg.logdet(f_b) - linalg.logdet(f_k)
    )
    gauss = -0.5 * (n * np.log(2.0 * np.pi) + logdet_cov + quad)

    w_ksum = params.variance * float(np.sum(w))
    trc = w_ksum - float(np.trace(linalg.solve_psd(f_k, S_k)))
    extra = -0.5 * (float(np.sum(w)) - n) * np.log(2.0 * np.pi * sig2)
    return float(gauss + extra - trc / (2.0 * sig2))


def weighted_bound(X, y, U, params: KernelParams, log_noise: float,
                   weights, jitter: float = 0.0) -> float:
    """Value of the weighted collapsed bound."""
    _, y, _, w, sig2, _, _, _, _, _, Wy, S_k, s_y, f_k, f_b = _factor(
        X, y, U, params, log_noise, weights, jitter)
    return _value(y, w, Wy, sig2, params, S_k, s_y, f_k, f_b)


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
    (X, y, U, w, sig2, d2_uu, d2_xu, Kuu_raw, Kxu, WKxu, Wy, S_k, s_y, f_k,
     f_b) = _factor(X, y, U, params, log_noise, weights, jitter)
    n = y.shape[0]
    B = linalg.inv_from_factor(f_b)
    Q = linalg.inv_from_factor(f_k)
    c = B @ s_y
    QS_k = Q @ S_k
    QmB = Q - B

    # dF/dKuu entrywise; dF/dKxu = WKxu (Q - B) / sig2 + r c^T.
    G_uu = (
        0.5 * QmB
        - 0.5 * (c[:, None] * c) / sig2**2
        - 0.5 * (QS_k @ Q) / sig2
    )
    r = (Wy - WKxu @ c / sig2) / sig2**2
    G_xu = linalg.add_outer(WKxu @ (QmB / sig2), r, c)
    g_lv, g_ll, gU = _chain_to_params(G_uu, G_xu, X, U, Kuu_raw, Kxu,
                                      d2_uu, d2_xu, params)

    sum_w = float(w.sum())
    w_ksum = params.variance * sum_w
    # The lambda-weighted diagonal term sum_i w_i k_ii depends on the signal
    # variance directly.
    g_lv += -w_ksum / (2.0 * sig2)

    trc = w_ksum - float(QS_k.trace())
    g_ln = (
        -0.5 * (n - (B * S_k).sum() / sig2)
        + 0.5 * np.dot(Wy, y) / sig2
        - (s_y @ c) / sig2**2
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
