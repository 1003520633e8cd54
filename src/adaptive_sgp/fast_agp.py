"""Inference-free streaming updates (the fast algorithm): one ingest path
(rank-one data addition and windowed removal), relevance-gated
inducing-point addition, scored before it is committed, by block extension
of the cached inverses, and pruning by block shrink of the same inverses.
Kernel and noise parameters are never touched here, so no step rebuilds
the caches from the window except the Schur-complement fallback of
``maybe_add_inducing``.

A step builds one kernel row per sample: ``fast_agp_step`` computes
k(U, x_new) once and passes it as ``k_new`` to the prediction, the slide
and the admission, each of which builds the same row itself when it is
omitted.  While ``kxu`` is carried the slide reads the departing row from
it, and the admission builds only the candidate's column k(X, x_new).
``b_lam`` is refreshed, extended and shrunk only while it is carried, so
full mode (``agp_step``), which drops it until its rebuild, pays for none
of those moves.
"""

import logging
import math

import numpy as np

from . import linalg
from .adaptive import (AdaptiveState, adaptive_predict, kernel_row,
                       rebuild_caches, refresh_b_lam, relevance_total,
                       removal_scores, skip_nonfinite, skipped_prediction)
from .errors import SchurNotPositive
from .kernel import kernel_matrix
from .vsgp import PredictiveDist

log = logging.getLogger(__name__)


def windowed_add(state: AdaptiveState, x_new, y_new: float, *,
                 k_new: np.ndarray | None = None) -> AdaptiveState:
    """Append one sample, evicting the oldest once the window holds T, and
    update s_y, s_k and w_ksum by rank-one terms (O(M^2)) and kxu, when
    carried, by one row; then, when b_lam is carried, refactor B_lambda
    from the cached s_k (O(M^3)).

    s_y <- lam*s_y + k_new*y,  s_k <- lam*s_k + k_new k_new^T.  A departing
    sample carries weight lam^T after the new sample's geometric discount,
    so its contribution is removed with that coefficient from every cache.

    ``k_new`` is ``kernel_row(state, x_new)`` when the caller has it.  The
    departing sample's row is ``kxu[0]`` while kxu is carried, else one
    kernel call."""
    x_row = np.atleast_2d(np.asarray(x_new, dtype=float))
    y_new = float(y_new)
    lam, var = state.lam, state.params.variance
    evict = state.window_y.shape[0] == state.window_t
    if k_new is None:
        k_new = kernel_row(state, x_row)
    s_y = lam * state.s_y + k_new * y_new
    s_k = lam * state.s_k + k_new[:, None] * k_new
    w_ksum = lam * state.w_ksum + var
    if evict:
        k_old = (kernel_row(state, state.window_x[0]) if state.kxu is None
                 else state.kxu[0])
        wT = lam ** state.window_t
        s_y = s_y - wT * k_old * float(state.window_y[0])
        s_k = s_k - wT * (k_old[:, None] * k_old)
        w_ksum = w_ksum - wT * var
    first = int(evict)
    state.s_y, state.s_k, state.w_ksum = s_y, s_k, w_ksum
    state.window_x = np.concatenate((state.window_x, x_row))[first:]
    state.window_y = np.concatenate((state.window_y, [y_new]))[first:]
    if state.kxu is not None:
        state.kxu = np.concatenate((state.kxu, k_new[None]))[first:]
    if state.b_lam is not None:
        refresh_b_lam(state)
    return state


def _border(A: np.ndarray, b: np.ndarray, b0: float) -> np.ndarray:
    """The symmetric bordered matrix [[A, b], [b^T, b0]]."""
    k = A.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = A
    out[:k, k] = b
    out[k, :k] = b
    out[k, k] = b0
    return out


def _prune_target(kuu_inv: np.ndarray, s_k: np.ndarray, r_th: float,
                  max_k: float):
    """The inducing point one round of the greedy prune removes, or None
    when the prune stops: the lowest ``removal_scores`` entry goes while it
    is below ``r_th`` times the largest or more than ``max_k`` points
    remain."""
    r = removal_scores(kuu_inv, s_k)
    m = int(r.argmin())
    if r.shape[0] <= max_k and r[m] >= r_th * float(r.max()):
        return None
    return m


def maybe_add_inducing(state: AdaptiveState, x_new, r_th_tot: float, *,
                       r_th: float | None = None, max_k: float = math.inf,
                       k_new: np.ndarray | None = None):
    """Adopt ``x_new`` as an inducing point when the weighted Nystrom
    residual exceeds ``r_th_tot``; returns ``(state, added)``.

    With ``r_th`` given, the candidate is scored before it is committed (the
    basis-vector scoring of Csato & Opper 2002): the prune's first round
    (``prune_inducing`` with ``r_th`` and ``max_k``) is applied to the
    bordered ``kuu_inv`` and ``s_k``.  When that round would remove the
    candidate, adding it and then pruning equals not adding it, so every
    cache is left as it was and the candidate is counted in
    ``state.rejected_candidates``.  The defaults never reject.

    An admitted candidate borders kuu, s_k and kxu (built here on first
    need), and kuu_inv and, when carried, b_lam are grown by bordered block
    extension (O(M^2) besides kxu's column); a non-positive Schur
    complement (e.g. a duplicated inducing point) falls back to a
    from-scratch rebuild.  ``k_new`` is ``kernel_row(state, x_new)`` when
    the caller has it.
    """
    if relevance_total(state) <= r_th_tot:
        return state, False

    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    w = state.weights()
    sig2 = state.noise_var
    kuu_diag = state.params.variance + state.jitter
    if state.kxu is None:
        state.kxu = kernel_matrix(state.window_x, state.inducing, state.params)

    b_kuu = kernel_row(state, x_new) if k_new is None else k_new
    k_x = kernel_matrix(state.window_x, x_new, state.params).ravel()
    wk_x = w * k_x
    s_k_row = state.kxu.T @ wk_x
    s_k_diag = float(np.dot(wk_x, k_x))
    s_k = _border(state.s_k, s_k_row, s_k_diag)
    try:
        kuu_inv = linalg.inv_extend(state.kuu_inv, b_kuu, kuu_diag)
        if (r_th is not None
                and _prune_target(kuu_inv, s_k, r_th, max_k) == state.k_inducing):
            state.rejected_candidates += 1
            return state, False
        b_lam = state.b_lam
        if b_lam is not None:
            b_lam = linalg.inv_extend(b_lam, b_kuu + s_k_row / sig2,
                                      kuu_diag + s_k_diag / sig2)
    except SchurNotPositive:
        log.info("block extension rejected; rebuilding inverses from scratch")
        state.inducing = np.concatenate((state.inducing, x_new))
        rebuild_caches(state)
        return state, True

    state.kuu_inv, state.b_lam, state.s_k = kuu_inv, b_lam, s_k
    state.kuu = _border(state.kuu, b_kuu, kuu_diag)
    state.kxu = np.concatenate((state.kxu, k_x[:, None]), axis=1)
    state.s_y = np.append(state.s_y, float(np.dot(wk_x, state.window_y)))
    state.inducing = np.concatenate((state.inducing, x_new))
    return state, True


def prune_inducing(state: AdaptiveState, r_th: float, max_k: int) -> AdaptiveState:
    """Remove inducing points one at a time, always the one whose removal
    raises the weighted Nystrom residual least (``removal_scores``), while
    that increase is below ``r_th`` times the largest or more than ``max_k``
    points remain; never below one.

    Scores come from the cached s_k and kuu_inv, which, like b_lam, must
    match the current window, inducing set and kernel.  Each removal shrinks
    kuu_inv and b_lam (when carried) by ``inv_shrink`` (O(M^2), no
    refactorisation) and restricts kuu, s_k, s_y, kxu (when carried) and the
    inducing set, so every round scores the remaining set exactly and the
    caches stay exact afterwards."""
    while state.k_inducing > 1:
        m = _prune_target(state.kuu_inv, state.s_k, r_th, max_k)
        if m is None:
            break
        keep = np.arange(state.k_inducing) != m
        state.kuu_inv = linalg.inv_shrink(state.kuu_inv, m)
        if state.b_lam is not None:
            state.b_lam = linalg.inv_shrink(state.b_lam, m)
        state.kuu = state.kuu[keep][:, keep]
        state.s_k = state.s_k[keep][:, keep]
        state.s_y = state.s_y[keep]
        state.inducing = state.inducing[keep]
        if state.kxu is not None:
            state.kxu = state.kxu[:, keep]
    return state


def fast_agp_step(state: AdaptiveState, x_new, y_new: float,
                  r_th: float = 1e-4):
    """One prequential step: predict, ingest, offer the sample as an
    inducing point (scored against the same prune rule), then prune.

    Returns ``(state, pred_before)`` where the prediction is made before the
    new target is used for any update.  A sample with an inf or NaN is
    counted and skipped (``skip_nonfinite``); at an inf or NaN input the
    prediction is NaN (``skipped_prediction``).  The inducing set is the same
    from the prediction to the admission, so all three share one kernel
    row k(U, x_new)."""
    if skip_nonfinite(state, x_new, y_new):
        return state, skipped_prediction(
            x_new, lambda: adaptive_predict(state, x_new))
    k_new = kernel_row(state, x_new)
    pred: PredictiveDist = adaptive_predict(state, x_new, k_new=k_new)
    windowed_add(state, x_new, y_new, k_new=k_new)
    r_th_tot = state.w_ksum / state.window_t
    maybe_add_inducing(state, x_new, r_th_tot, r_th=r_th,
                       max_k=state.capacity_m, k_new=k_new)
    prune_inducing(state, r_th, state.capacity_m)
    return state, pred
