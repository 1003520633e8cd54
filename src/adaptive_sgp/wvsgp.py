"""Sliding-window batch baseline: at every step the batch model is retrained
on the current window for a fixed number of Adam iterations, warm-started
from the previous step's parameters.  No forgetting inside the window: it
streams on an ``AdaptiveState`` at lambda = 1.
"""

from . import vsgp
from .adaptive import (AdaptiveState, _update_or_restore, adaptive_predict,
                       kernel_row, skip_nonfinite, skipped_prediction)
from .fast_agp import windowed_add
from .optim import Adam


def wvsgp_step(state: AdaptiveState, opt: Adam, x_new, y_new: float,
               inner_iters: int = 50):
    """One prequential step: predict, slide (``windowed_add``), then
    ``vsgp.train`` on the window under ``_update_or_restore``; returns
    ``(state, opt, pred_before)``.  A sample with an inf or NaN is counted
    and skipped (``skip_nonfinite``); at an inf or NaN input the prediction
    is NaN (``skipped_prediction``)."""
    if skip_nonfinite(state, x_new, y_new):
        return state, opt, skipped_prediction(
            x_new, lambda: adaptive_predict(state, x_new))
    k_new = kernel_row(state, x_new)
    pred = adaptive_predict(state, x_new, k_new=k_new)
    windowed_add(state, x_new, y_new, k_new=k_new)

    def move():
        state.inducing, state.params, state.log_noise = vsgp.train(
            state.window_x, state.window_y, state.inducing, state.params,
            state.log_noise, opt, inner_iters, state.jitter)

    _update_or_restore(state, move)
    return state, opt, pred
