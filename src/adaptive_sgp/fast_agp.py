"""Inference-free streaming updates (the fast algorithm): one ingest path
(rank-one data addition and windowed removal), relevance-gated
inducing-point addition, scored before it is committed, by block extension
of the cached kernel matrices and ``kuu_inv``, and pruning by block shrink
of the same caches.  Kernel and noise parameters are never touched here, so
no step rebuilds the caches from the window.

A step of every model kind builds one kernel row per sample, k(U, x_new),
in the opening all four kinds share (``_predict_and_slide``), and passes it
to the prediction (the caches', or agp_vsi's explicit q), the slide and
fast mode's admission, each of which builds it itself when it is omitted.
Fast mode carries ``kxu`` from ``from_batch`` on (``adaptive``'s rule: a
rebuild keeps it, only a parameter update drops it), so its slide reads
the departing row from ``kxu[0]`` and its admission builds only the
candidate's column k(X, x_new); the other kinds' slide builds the departing
row as one more ``kernel_row``.  Every one-point kernel is a
``kernel_column`` vector, and each change of s_k or ``kuu_inv`` by one
sample or one point is one BLAS rank-one update (``linalg.add_outer``) of a
new array.  Every cache move marks ``b_lam`` stale; the cache prediction
factors B_lambda first (``refresh_b_lam``) unless a skip left it current.
"""

import math

import numpy as np

from . import linalg
from .adaptive import (AdaptiveState, adaptive_predict, kernel_row,
                       refresh_b_lam, relevance_total, removal_scores,
                       skip_nonfinite)
from .errors import SchurNotPositive
# kernel_matrix is not called here; perfbench's tracer test pins its binding.
from .kernel import kernel_column, kernel_matrix
from .vsgp import PredictiveDist


def windowed_add(state: AdaptiveState, x_new, y_new: float, *,
                 k_new: np.ndarray | None = None) -> AdaptiveState:
    """Append one sample, evicting the oldest once the window holds T, and
    update s_y, s_k and w_ksum by rank-one terms (O(M^2)) and kxu, when
    carried, by one row; b_lam is marked stale.

    s_y <- lam*s_y + k_new*y,  s_k <- lam*s_k + k_new k_new^T.  A departing
    sample carries weight lam^T after the new sample's geometric discount,
    so its contribution is removed with that coefficient from every cache.

    ``k_new`` is ``kernel_row(state, x_new)`` when the caller has it.  The
    departing sample's row is ``kxu[0]`` while kxu is carried, else one
    ``kernel_row``."""
    x_row = np.atleast_2d(np.asarray(x_new, dtype=float))
    y_new = float(y_new)
    lam, var = state.lam, state.params.variance
    evict = state.window_y.shape[0] == state.window_t
    if k_new is None:
        k_new = kernel_row(state, x_row)
    s_y = lam * state.s_y + k_new * y_new
    s_k = linalg.add_outer(lam * state.s_k, k_new, k_new)
    w_ksum = lam * state.w_ksum + var
    if evict:
        k_old = (kernel_row(state, state.window_x[0]) if state.kxu is None
                 else state.kxu[0])
        wT = lam ** state.window_t
        s_y = s_y - wT * k_old * float(state.window_y[0])
        s_k = linalg.add_outer(s_k, -wT * k_old, k_old)
        w_ksum = w_ksum - wT * var
    first = int(evict)
    state.s_y, state.s_k, state.w_ksum = s_y, s_k, w_ksum
    state.window_x = np.concatenate((state.window_x, x_row))[first:]
    state.window_y = np.concatenate((state.window_y, [y_new]))[first:]
    if state.kxu is not None:
        state.kxu = np.concatenate((state.kxu, k_new[None]))[first:]
    state.b_lam = None
    return state


def _predict_and_slide(state: AdaptiveState, x_new, y_new: float,
                       predict=None):
    """The opening of every step: skip an inf or NaN sample
    (``skip_nonfinite``; ``k_new`` is then None and nothing moves), build
    k(U, x_new) once (``kernel_row``), predict from it with
    ``predict(k_new)`` (by default the caches': factor a stale B_lambda,
    then ``adaptive_predict``), then slide (``windowed_add``).  Returns
    ``(pred, k_new)``; the prediction at an inf or NaN input is NaN,
    without evaluating the kernel there."""
    skipped = skip_nonfinite(state, x_new, y_new)
    if skipped and not np.isfinite(x_new).all():
        return PredictiveDist(mean=math.nan, var=math.nan), None
    k_new = kernel_row(state, x_new)
    if predict is None:
        if state.b_lam is None:
            refresh_b_lam(state)
        pred = adaptive_predict(state, x_new, k_new=k_new)
    else:
        pred = predict(k_new)
    if skipped:
        return pred, None
    windowed_add(state, x_new, y_new, k_new=k_new)
    return pred, k_new


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

    The state must carry kxu, as fast mode's does from ``from_batch`` on:
    the candidate's s_k row is ``kxu^T W k(X, x_new)``, so the only kernel
    built here is the column k(X, x_new).  An admitted candidate borders
    kuu, s_k and kxu, grows kuu_inv by bordered block extension (O(M^2)
    besides kxu's column) and marks b_lam stale; one that cannot be
    bordered (e.g. a duplicated inducing point at zero jitter) is rejected
    and counted.  ``k_new`` is ``kernel_row(state, x_new)`` when the caller
    has it.
    """
    if relevance_total(state) <= r_th_tot:
        return state, False

    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    w = state.weights()
    kuu_diag = state.params.variance + state.jitter

    b_kuu = kernel_row(state, x_new) if k_new is None else k_new
    k_x = kernel_column(state.window_x, x_new, state.params)
    wk_x = w * k_x
    s_k_row = state.kxu.T @ wk_x
    s_k_diag = float(np.dot(wk_x, k_x))
    s_k = _border(state.s_k, s_k_row, s_k_diag)
    try:
        kuu_inv = linalg.inv_extend(state.kuu_inv, b_kuu, kuu_diag)
    except SchurNotPositive:        # x_new is in the span of the inducing set
        kuu_inv = None
    if kuu_inv is None or (
            r_th is not None
            and _prune_target(kuu_inv, s_k, r_th, max_k) == state.k_inducing):
        state.rejected_candidates += 1
        return state, False

    state.kuu_inv, state.b_lam, state.s_k = kuu_inv, None, s_k
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

    Scores come from the cached s_k and kuu_inv, which must match the
    current window, inducing set and kernel.  Each removal builds one index
    array of the points kept, shrinks kuu_inv by ``inv_shrink`` (O(M^2), no
    refactorisation) and restricts kuu, s_k, s_y, kxu (when carried) and
    the inducing set by that array, and marks b_lam stale, so every round
    scores the remaining set exactly and the caches stay exact afterwards."""
    while state.k_inducing > 1:
        m = _prune_target(state.kuu_inv, state.s_k, r_th, max_k)
        if m is None:
            break
        keep = np.arange(state.k_inducing - 1)     # every index but m
        keep[m:] += 1
        state.kuu_inv = linalg.inv_shrink(state.kuu_inv, m, keep)
        state.b_lam = None
        state.kuu = state.kuu.take(keep, 0).take(keep, 1)
        state.s_k = state.s_k.take(keep, 0).take(keep, 1)
        state.s_y = state.s_y.take(keep)
        state.inducing = state.inducing.take(keep, 0)
        if state.kxu is not None:
            state.kxu = state.kxu.take(keep, 1)
    return state


def fast_agp_step(state: AdaptiveState, x_new, y_new: float,
                  r_th: float = 1e-4):
    """One prequential step: predict and slide (``_predict_and_slide``),
    offer the sample as an inducing point (scored against the same prune
    rule), then prune.  Returns ``(state, pred_before)``, the prediction
    made before the new target is used; a skipped sample moves nothing.
    The inducing set is the same from the prediction to the admission, so
    all three share one kernel row k(U, x_new)."""
    pred, k_new = _predict_and_slide(state, x_new, y_new)
    if k_new is None:
        return state, pred
    r_th_tot = state.w_ksum / state.window_t
    maybe_add_inducing(state, x_new, r_th_tot, r_th=r_th,
                       max_k=state.capacity_m, k_new=k_new)
    prune_inducing(state, r_th, state.capacity_m)
    return state, pred
