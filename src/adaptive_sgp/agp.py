"""Full adaptive streaming model: every step slides the window, prunes the
inducing set to M-1, adopts the new sample as an inducing point, and runs a
single Adam ascent step on the noise, kernel hyperparameters, and the newest
inducing point's coordinates.
"""

import logging

import numpy as np

from .adaptive import (AdaptiveState, adaptive_bound_gradients,
                       adaptive_predict, kernel_row, rebuild_caches,
                       skip_nonfinite, skipped_prediction)
from .errors import NotPsd
from .fast_agp import prune_inducing, windowed_add
from .optim import Adam, ascent_step

log = logging.getLogger(__name__)


def adam_params(lr: float = 0.05) -> Adam:
    """Fresh optimizer state for streaming inference."""
    return Adam(lr=lr)


def agp_step(state: AdaptiveState, opt: Adam, x_new, y_new: float,
             r_th: float = 1e-4):
    """One prequential step with a single inference iteration.

    Order: predict, ingest x_new through ``windowed_add``, prune to M-1
    (the caches shrink with the inducing set), adopt x_new as the newest
    inducing point, one Adam step on {noise, kernel, newest point}, then
    rebuild the caches from scratch once, since the kernel and noise have
    moved.  The prediction and the ingest share one kernel row k(U, x_new).
    ``b_lam`` is dropped after the prediction, so the ingest and the prune
    neither refactor nor shrink it: the rebuild replaces it.

    A factorization failure in the gradient or in the rebuild after the
    Adam step skips the update: the newest inducing point, the kernel and
    the noise go back to their values before the Adam step, where the
    caches are rebuilt, and the step counts in ``state.skipped_updates``.
    A sample with an inf or NaN is counted and skipped whole
    (``skip_nonfinite``), leaving state and optimizer untouched; at an inf
    or NaN input the prediction is NaN (``skipped_prediction``).  The
    stream never aborts.
    """
    if skip_nonfinite(state, x_new, y_new):
        return state, opt, skipped_prediction(
            x_new, lambda: adaptive_predict(state, x_new))
    k_new = kernel_row(state, x_new)
    pred = adaptive_predict(state, x_new, k_new=k_new)

    state.b_lam = None
    windowed_add(state, x_new, y_new, k_new=k_new)
    prune_inducing(state, r_th, max_k=state.capacity_m - 1)
    state.inducing = np.concatenate((state.inducing, state.window_x[-1:]))

    # The newest inducing point is a brand-new parameter every step, so its
    # Adam moments restart; the hyperparameters keep theirs.
    opt.reset("inducing")
    before = state.inducing[-1:].copy(), state.params, state.log_noise
    try:
        g = adaptive_bound_gradients(state)
        g["inducing"] = g["inducing"][-1:]
        state.inducing[-1:], state.params, state.log_noise = ascent_step(
            opt, g, state.inducing[-1:], state.params, state.log_noise)
        rebuild_caches(state)
        return state, opt, pred
    except NotPsd:
        state.skipped_updates += 1
        log.warning("inference step skipped: factorization failed")
    # After a failed rebuild this is where the gradient has just factored
    # the same matrices; after a failed gradient nothing has moved.
    state.inducing[-1:], state.params, state.log_noise = before
    rebuild_caches(state)
    return state, opt, pred
