"""Full adaptive streaming model: every step slides the window, prunes the
inducing set to M-1, adopts the new sample as an inducing point, and runs a
single Adam ascent step on the noise, kernel hyperparameters, and the newest
inducing point's coordinates, all as Python floats.  It needs a capacity of
at least 2.  The prune and the adoption are the state's edits, so
``adaptive``'s ledger counts them.
"""

from .adaptive import (AdaptiveState, _update_or_restore,
                       adaptive_bound_gradients)
from .fast_agp import _predict_and_slide, prune_inducing
from .optim import Adam, hyper_step


def adam_params(lr: float = 0.05) -> Adam:
    """Fresh optimizer state for streaming inference."""
    return Adam(lr=lr)


def agp_step(state: AdaptiveState, opt: Adam, x_new, y_new: float,
             r_th: float = 1e-4):
    """One prequential step with a single inference iteration.

    Order: predict and ingest x_new (``_predict_and_slide``), prune to M-1
    (the caches shrink with the inducing set), adopt x_new as the newest
    inducing point, in the last slot (``add_inducing``, with no kxu
    column, so the state's ledger counts it and any kxu carry ends), one
    Adam step on {noise, kernel, newest point}, then rebuild the caches
    from scratch once, since the kernel and noise have moved.  B_lambda
    is factored only for the prediction: the ingest, the prune and the
    rebuild mark it stale.

    The Adam step and the rebuild run under ``_update_or_restore``, which
    undoes a step whose gradient or rebuild fails to factor.  A sample the
    opening skips (an inf or NaN) leaves state and optimizer untouched.
    The stream never aborts.  A state with ``capacity_m < 2`` raises
    ``ValueError`` before anything moves: the prune stops at one point, so
    the newest would make two.
    """
    if state.capacity_m < 2:
        raise ValueError(f"agp_step: capacity_m {state.capacity_m} < 2")
    pred, k_new, _ = _predict_and_slide(state, x_new, y_new)
    if k_new is None:
        return state, opt, pred
    prune_inducing(state, r_th, max_k=state.capacity_m - 1)
    state.add_inducing(state.window_x[-1:], None)

    # The newest inducing point is a brand-new parameter every step, so its
    # Adam moments restart; the hyperparameters keep theirs.  Both steps run
    # over Python floats (``Adam.step_scalars``), equal to ``Adam.step`` bit
    # for bit.
    opt.reset("inducing")

    def move():
        g = adaptive_bound_gradients(state)
        state.inducing[-1] += opt.step_scalars("inducing",
                                               g["inducing"][-1].tolist())
        state.params, state.log_noise = hyper_step(opt, g, state.params,
                                                   state.log_noise)

    _update_or_restore(state, move)
    return state, opt, pred
