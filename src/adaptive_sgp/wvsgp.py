"""Sliding-window batch baseline: at every step the batch model is retrained
on the current window for a fixed number of Adam iterations, warm-started
from the previous step's parameters.  No forgetting inside the window.
"""

from dataclasses import replace

import numpy as np

from . import vsgp
from .adaptive import skip_nonfinite, skipped_prediction
from .optim import Adam


def wvsgp_step(model: vsgp.VsgpModel, opt: Adam, window_x, window_y,
               x_new, y_new: float, inner_iters: int = 50):
    """One prequential step.

    Returns ``(model, opt, window_x, window_y, pred_before)``; the window is
    slid after prediction and the model retrained in place.  A sample with
    an inf or NaN is counted in ``model.skipped_samples`` and skipped
    (``skip_nonfinite``); at an inf or NaN input the prediction is NaN
    (``skipped_prediction``)."""
    if skip_nonfinite(model, x_new, y_new):
        return model, opt, window_x, window_y, skipped_prediction(
            x_new, lambda: vsgp.predict(model, x_new))
    pred = vsgp.predict(model, x_new)

    window_x = np.vstack([np.asarray(window_x, dtype=float),
                          np.atleast_2d(np.asarray(x_new, dtype=float))])[1:]
    window_y = np.append(np.asarray(window_y, dtype=float), float(y_new))[1:]

    model = replace(vsgp.train(window_x, window_y, model.inducing, model.params,
                               model.log_noise, opt, inner_iters, model.jitter),
                    skipped_samples=model.skipped_samples)
    return model, opt, window_x, window_y, pred
