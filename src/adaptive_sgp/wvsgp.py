"""Sliding-window batch baseline: at every step the batch model is retrained
on the current window for a fixed number of Adam iterations, warm-started
from the previous step's parameters.  No forgetting inside the window: it
streams on an ``AdaptiveState`` at lambda = 1.
"""

from . import vsgp
from .adaptive import AdaptiveState, _update_or_restore
from .fast_agp import _predict_and_slide
from .optim import Adam


def wvsgp_step(state: AdaptiveState, opt: Adam, x_new, y_new: float,
               inner_iters: int = 50):
    """One prequential step: predict and slide (``_predict_and_slide``),
    then ``vsgp.train`` on the window under ``_update_or_restore``; returns
    ``(state, opt, pred_before)``.  A skipped sample (an inf or NaN) leaves
    state and optimizer untouched."""
    pred, k_new = _predict_and_slide(state, x_new, y_new)
    if k_new is None:
        return state, opt, pred

    def move():
        state.inducing, state.params, state.log_noise = vsgp.train(
            state.window_x, state.window_y, state.inducing, state.params,
            state.log_noise, opt, inner_iters, state.jitter)

    _update_or_restore(state, move)
    return state, opt, pred
