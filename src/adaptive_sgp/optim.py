"""Adam optimizer (Kingma & Ba 2015) with named parameter slots, and the
parameter updates the trainers use.

A slot keeps one parameter's moments until it is reset.  ``"hyper"`` holds
the three scalars [log_variance, log_lengthscale, log_noise], stepped as
Python floats (``Adam.step_scalars``, through ``hyper_step``); no trainer
resets it, so they keep their moments across iterations and streaming
steps.  ``"inducing"`` holds the inducing coordinates: ``vsgp.train`` (so
``fit_batch`` and w_vsgp) and ``agp_vsi_step`` step all rows as one array
through ``ascent_step`` and never reset it, while ``agp.agp_step`` resets it
every step, since its newest inducing point is a new parameter each time,
and steps that one row as Python floats, which equals a fresh
``Adam.step`` bit for bit.  ``agp_vsi_step`` also keeps ``"q_mean"`` and
``"q_chol"`` for its explicit q.
"""

import math

import numpy as np

from .kernel import KernelParams


class Adam:
    """Adam with the usual moment decays and epsilon; only ``lr`` is set."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float = 0.05):
        self.lr = lr
        self._slots: dict = {}

    def reset(self, name: str) -> None:
        self._slots.pop(name, None)

    def step(self, name: str, grad):
        """Return the ascent update for ``grad`` (add it to the parameter).

        For descent, pass the negated gradient.
        """
        grad = np.asarray(grad, dtype=float)
        # A new slot starts from zero moments; 0.0 broadcasts like zeros.
        m, v, t = self._slots.get(name, (0.0, 0.0, 0))
        t += 1
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        self._slots[name] = (m, v, t)
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return float(update) if update.ndim == 0 else update

    def step_scalars(self, name: str, grads) -> list:
        """``step(name, grads)`` for a few scalars, as Python floats: each
        element's moments and update are those of its own scalar slot, bit
        for bit, in ``step``'s order of operations, with no numpy call."""
        b1, b2 = self.beta1, self.beta2
        ms, vs, t = self._slots.get(name, ((0.0,) * len(grads),) * 2 + (0,))
        t += 1
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        ms = [b1 * m + (1.0 - b1) * g for m, g in zip(ms, grads)]
        vs = [b2 * v + (1.0 - b2) * (g * g) for v, g in zip(vs, grads)]
        self._slots[name] = (ms, vs, t)
        return [self.lr * (m / c1) / (math.sqrt(v / c2) + self.eps)
                for m, v in zip(ms, vs)]


def hyper_step(opt: Adam, grads: dict, params: KernelParams,
               log_noise: float):
    """One Adam ascent step on the three scalar gradients of ``grads`` in
    the ``"hyper"`` slot (``Adam.step_scalars``), whose elementwise
    moments are those of three scalar slots.  Returns
    ``(params, log_noise)``."""
    d_var, d_len, d_noise = opt.step_scalars("hyper", (
        grads["log_variance"], grads["log_lengthscale"], grads["log_noise"]))
    return KernelParams(params.log_variance + d_var,
                        params.log_lengthscale + d_len), log_noise + d_noise


def ascent_step(opt: Adam, grads: dict, inducing: np.ndarray,
                params: KernelParams, log_noise: float):
    """One Adam ascent step on the inducing rows and the hyperparameters.

    ``grads`` holds an ``inducing`` gradient shaped like ``inducing`` and
    the three scalar gradients.  The rows use the ``"inducing"`` slot
    (``Adam.step``), the scalars ``hyper_step``.  Returns
    ``(inducing, params, log_noise)``.
    """
    inducing = inducing + opt.step("inducing", grads["inducing"])
    return (inducing,) + hyper_step(opt, grads, params, log_noise)
