"""Variationally explicit streaming baseline: the forgetting-weighted ELBO
with a free-form Gaussian q(f_u), optimized for several Adam iterations per
incoming sample over q, all inducing points, kernel, and noise.

The per-sample likelihood expectations are Gaussian and therefore evaluated
in closed form; no sampling is involved.  Only the ELBO is this module's
own: it sets up through ``bound._window_setup``, whose one factor of Kuu
gives both Kuu^-1 and the KL's log-determinant.  A step opens like every
other (``fast_agp._predict_and_slide``), predicting from the one row
k(U, x_new) with the q-form ``vsgp.predict`` uses.  Its updates have no
failure handling of their own: a failed factorization in any iteration or
in the rebuild restores the whole step (``adaptive._update_or_restore``),
and the step puts q back.
"""

from dataclasses import dataclass

import numpy as np

from . import bound, linalg
from .adaptive import AdaptiveState, _update_or_restore, lambda_weights
from .fast_agp import _predict_and_slide
from .kernel import KernelParams
from .optim import Adam, ascent_step
from .vsgp import _q_predict


@dataclass
class VariationalQ:
    """Free-form Gaussian over the inducing outputs, covariance kept as its
    lower Cholesky factor so it stays PSD under unconstrained updates."""

    mean: np.ndarray        # k
    cov_chol: np.ndarray    # k x k lower triangular, positive diagonal

    @property
    def cov(self) -> np.ndarray:
        return self.cov_chol @ self.cov_chol.T


def q_from_moments(mean: np.ndarray, cov: np.ndarray,
                   jitter: float = 1e-10) -> VariationalQ:
    f = linalg.cholesky_psd(cov, jitter)
    return VariationalQ(mean=np.asarray(mean, dtype=float).copy(), cov_chol=f.lower)


def _setup(window_x, window_y, inducing, params, log_noise, q, lam, jitter):
    """The ELBO's shared set-up: ``bound._window_setup`` under the
    forgetting weights, Q = Kuu^-1 from its factor, q's covariance A, the
    rows a_i = Kuu^-1 k_i of ``Amat``, the residuals e, and the per-sample
    a_i^T A a_i and k_i^T a_i."""
    s = bound._window_setup(window_x, window_y, inducing, params, log_noise,
                            lambda_weights(np.size(window_y), lam), jitter)
    Q = linalg.inv_from_factor(s.f_k)
    Amat = s.Kxu @ Q
    e = s.y - Amat @ q.mean
    A = q.cov
    u_quad = np.einsum("ij,ij->i", Amat @ A, Amat)
    q_ii = np.einsum("ij,ij->i", s.Kxu, Amat)
    return s, Q, A, Amat, e, u_quad, q_ii


def elbo_lambda(window_x, window_y, inducing, params: KernelParams,
                log_noise: float, q: VariationalQ, lam: float,
                jitter: float = 1e-6) -> float:
    """Forgetting-weighted ELBO: weighted expected log-likelihood terms
    (closed form) minus the unweighted KL(q || p(f_u))."""
    s, Q, A, _, e, u_quad, q_ii = _setup(
        window_x, window_y, inducing, params, log_noise, q, lam, jitter)
    w, sig2 = s.w, s.sig2
    k_ii = params.variance

    lik = float(np.sum(w * (
        -0.5 * np.log(2.0 * np.pi * sig2)
        - e**2 / (2.0 * sig2)
        - u_quad / (2.0 * sig2)
        - (k_ii - q_ii) / (2.0 * sig2)
    )))

    logdet_A = 2.0 * float(np.sum(np.log(np.diag(q.cov_chol))))
    g = Q @ q.mean
    kl = 0.5 * (float(np.sum(Q * A)) + float(q.mean @ g) - s.U.shape[0]
                + linalg.logdet(s.f_k) - logdet_A)
    return lik - kl


def elbo_gradients(window_x, window_y, inducing, params: KernelParams,
                   log_noise: float, q: VariationalQ, lam: float,
                   jitter: float = 1e-6) -> dict:
    """Analytic gradient of :func:`elbo_lambda` w.r.t. every free parameter.

    The ``q_chol`` entry is expressed in the optimization parametrization:
    strict lower triangle as-is, diagonal in log-space.
    """
    s, Q, A, Amat, e, u_quad, q_ii = _setup(
        window_x, window_y, inducing, params, log_noise, q, lam, jitter)
    w, sig2, Kxu, S_k = s.w, s.sig2, s.Kxu, s.S_k
    L = q.cov_chol
    we = w * e
    k_ii = params.variance

    g = Q @ q.mean
    g_mean = Amat.T @ we / sig2 - g

    # dF/dA (symmetric), excluding the logdet A part which is taken directly
    # in the Cholesky parametrization.
    G_A = -Amat.T @ (w[:, None] * Amat) / (2.0 * sig2) - 0.5 * Q
    g_chol = 2.0 * G_A @ L
    g_chol += np.diag(1.0 / np.diag(L))          # d(0.5 logdet A)/dL
    g_chol = np.tril(g_chol)
    # log-space diagonal: chain through L_jj = exp(rho_jj)
    diag = np.diag(g_chol) * np.diag(L)
    g_chol[np.diag_indices_from(g_chol)] = diag

    g_ln = float(np.sum(w * (-0.5 + (e**2 + u_quad + (k_ii - q_ii)) / (2.0 * sig2))))

    s_e = Kxu.T @ we
    QSkQ = Q @ S_k @ Q
    QAQ = Q @ A @ Q

    G_uu = (
        -np.outer(g, Q @ s_e) / sig2
        + QAQ @ S_k @ Q / sig2
        - 0.5 * QSkQ / sig2
        + 0.5 * (QAQ + np.outer(g, g) - Q)
    )
    G_xu = linalg.add_outer(s.WKxu @ ((Q - QAQ) / sig2), we / sig2, g)

    g_lv, g_ll, gU = bound._chain_to_params(G_uu, G_xu, s.X, s.U, s.Kuu_raw,
                                            Kxu, s.d2_uu, s.d2_xu, params)
    g_lv += -params.variance * float(np.sum(w)) / (2.0 * sig2)

    return {
        "q_mean": g_mean,
        "q_chol": g_chol,
        "inducing": gU,
        "log_variance": float(g_lv),
        "log_lengthscale": float(g_ll),
        "log_noise": float(g_ln),
    }


def _apply_chol_update(L: np.ndarray, upd: np.ndarray) -> np.ndarray:
    out = L + np.tril(upd, -1)
    out[np.diag_indices_from(out)] = np.diag(L) * np.exp(np.diag(upd))
    return np.tril(out)


def agp_vsi_step(state: AdaptiveState, q: VariationalQ, opt: Adam,
                 x_new, y_new: float, inner_iters: int = 50):
    """One prequential step: predict with the current q, slide the window,
    then run ``inner_iters`` Adam ascent iterations on the weighted ELBO
    jointly over q, all inducing points, kernel, and noise.  The prediction
    reads q, never B_lambda, so the step never factors it; it opens like
    every step (``fast_agp._predict_and_slide``), which skips a sample with
    an inf or NaN.

    The loop and the rebuild after it run under ``_update_or_restore``, the
    stream's one failure policy: a factorization that fails in any
    iteration or in the rebuild restores the step's inducing points,
    kernel and noise, and the step puts q back as well."""
    pred, k_new = _predict_and_slide(
        state, x_new, y_new, lambda k: _q_predict(
            k, state.params.variance, state.kuu_inv, q.mean, q.cov))
    if k_new is None:
        return state, q, opt, pred

    before = q.mean, q.cov_chol

    def move():
        for _ in range(inner_iters):
            grads = elbo_gradients(state.window_x, state.window_y,
                                   state.inducing, state.params,
                                   state.log_noise, q, state.lam, state.jitter)
            q.mean = q.mean + opt.step("q_mean", grads["q_mean"])
            q.cov_chol = _apply_chol_update(
                q.cov_chol, opt.step("q_chol", grads["q_chol"]))
            state.inducing, state.params, state.log_noise = ascent_step(
                opt, grads, state.inducing, state.params, state.log_noise)

    if not _update_or_restore(state, move):
        # Every update above builds new arrays, so these are untouched.
        q.mean, q.cov_chol = before
    return state, q, opt, pred
