"""Inference-free streaming updates (the fast algorithm): one ingest path
(rank-one data addition and windowed removal), relevance-gated
inducing-point addition by block extension of the cached inverses, and
pruning by block shrink of the same inverses.  Kernel and noise parameters
are never touched here, so no step rebuilds the caches from the window
except the Schur-complement fallback of ``maybe_add_inducing``.
"""

import logging

import numpy as np

from . import linalg
from .adaptive import (AdaptiveState, adaptive_predict, rebuild_caches,
                       refresh_b_lam, relevance_total, removal_scores,
                       skip_nonfinite)
from .errors import SchurNotPositive
from .kernel import kernel_matrix
from .vsgp import PredictiveDist

log = logging.getLogger(__name__)


def _kvec(state: AdaptiveState, x) -> np.ndarray:
    """Kernel products between the inducing set and one input."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return kernel_matrix(state.inducing, x, state.params).ravel()


def windowed_add(state: AdaptiveState, x_new, y_new: float) -> AdaptiveState:
    """Append one sample, evicting the oldest once the window holds T, and
    update s_y, s_k and w_ksum by rank-one terms (O(M^2)); then refactor
    B_lambda from the cached s_k (O(M^3)).

    s_y <- lam*s_y + k_new*y,  s_k <- lam*s_k + k_new k_new^T.  A departing
    sample carries weight lam^T after the new sample's geometric discount,
    so its contribution is removed with that coefficient from every cache."""
    x_row = np.atleast_2d(np.asarray(x_new, dtype=float))
    y_new = float(y_new)
    lam, var = state.lam, state.params.variance
    evict = state.window_y.shape[0] == state.window_t
    # one kernel call for the arriving and the departing input
    K = kernel_matrix(state.inducing,
                      np.vstack([x_row, state.window_x[:1]]) if evict else x_row,
                      state.params)
    k_new = K[:, 0]
    s_y = lam * state.s_y + k_new * y_new
    s_k = lam * state.s_k + np.outer(k_new, k_new)
    w_ksum = lam * state.w_ksum + var
    window_x = np.vstack([state.window_x, x_row])
    window_y = np.append(state.window_y, y_new)
    if evict:
        k_old = K[:, 1]
        wT = lam ** state.window_t
        s_y = s_y - wT * k_old * float(state.window_y[0])
        s_k = s_k - wT * np.outer(k_old, k_old)
        w_ksum = w_ksum - wT * var
        window_x, window_y = window_x[1:], window_y[1:]
    state.s_y, state.s_k, state.w_ksum = s_y, s_k, w_ksum
    state.window_x, state.window_y = window_x, window_y
    refresh_b_lam(state)
    return state


def maybe_add_inducing(state: AdaptiveState, x_new, r_th_tot: float):
    """Adopt the newest input as an inducing point when the weighted
    Nystrom residual exceeds the threshold.

    Both cached inverses are grown by bordered block extension (O(M^2));
    a non-positive Schur complement (e.g. a duplicated inducing point)
    falls back to a from-scratch rebuild.
    """
    if relevance_total(state) <= r_th_tot:
        return state, False

    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    w = state.weights()
    sig2 = state.noise_var
    var = state.params.variance

    b_kuu = _kvec(state, x_new)                     # k(U, x_new)
    k_x = kernel_matrix(state.window_x, x_new, state.params).ravel()
    Kux = kernel_matrix(state.inducing, state.window_x, state.params)

    b_col = b_kuu + (Kux @ (w * k_x)) / sig2
    b0 = var + state.jitter + float(np.dot(w * k_x, k_x)) / sig2

    try:
        kuu_inv_ext = linalg.inv_extend(state.kuu_inv, b_kuu, var + state.jitter)
        b_lam_ext = linalg.inv_extend(state.b_lam, b_col, b0)
    except SchurNotPositive:
        log.info("block extension rejected; rebuilding inverses from scratch")
        state.inducing = np.vstack([state.inducing, x_new])
        rebuild_caches(state)
        return state, True

    state.kuu_inv = kuu_inv_ext
    state.b_lam = b_lam_ext
    s_y_new = float(np.dot(w * k_x, state.window_y))
    s_k_row = Kux @ (w * k_x)
    s_k_diag = float(np.dot(w * k_x, k_x))
    k = state.k_inducing
    s_k = np.empty((k + 1, k + 1))
    s_k[:k, :k] = state.s_k
    s_k[:k, k] = s_k_row
    s_k[k, :k] = s_k_row
    s_k[k, k] = s_k_diag
    state.s_k = s_k
    state.s_y = np.append(state.s_y, s_y_new)
    state.inducing = np.vstack([state.inducing, x_new])
    return state, True


def prune_inducing(state: AdaptiveState, r_th: float, max_k: int) -> AdaptiveState:
    """Remove inducing points one at a time, always the one whose removal
    raises the weighted Nystrom residual least (``removal_scores``), while
    that increase is below ``r_th`` times the largest or more than ``max_k``
    points remain; never below one.

    Scores come from the cached s_k and kuu_inv, which, like b_lam, must
    match the current window, inducing set and kernel.  Each removal shrinks kuu_inv
    and b_lam by ``inv_shrink`` (O(M^2), no refactorisation) and restricts
    s_k, s_y and the inducing set, so every round scores the remaining set
    exactly and the caches stay exact afterwards."""
    while state.k_inducing > 1:
        r = removal_scores(state.kuu_inv, state.s_k)
        m = int(np.argmin(r))
        if state.k_inducing <= max_k and r[m] >= r_th * float(np.max(r)):
            break
        keep = np.arange(state.k_inducing) != m
        state.kuu_inv = linalg.inv_shrink(state.kuu_inv, m)
        state.b_lam = linalg.inv_shrink(state.b_lam, m)
        state.s_k = state.s_k[np.ix_(keep, keep)]
        state.s_y = state.s_y[keep]
        state.inducing = state.inducing[keep]
    return state


def fast_agp_step(state: AdaptiveState, x_new, y_new: float,
                  r_th: float = 1e-4):
    """One prequential step: predict, ingest, grow/shrink the inducing set.

    Returns ``(state, pred_before)`` where the prediction is made before the
    new target is used for any update.  A sample with an inf or NaN is
    counted and skipped (``skip_nonfinite``)."""
    pred: PredictiveDist = adaptive_predict(state, x_new)
    if skip_nonfinite(state, x_new, y_new):
        return state, pred
    windowed_add(state, x_new, y_new)
    r_th_tot = state.w_ksum / state.window_t
    maybe_add_inducing(state, x_new, r_th_tot)
    prune_inducing(state, r_th, state.capacity_m)
    return state, pred
