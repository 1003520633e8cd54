"""Adam optimizer with named parameter slots, and the one parameter update
every trainer uses.

Slots are keyed per parameter name so that long-lived parameters (noise,
kernel hyperparameters) keep their moment estimates across streaming steps
while transient slots (the newest inducing point, which is a new parameter
every step) can be reset individually.
"""

import math

import numpy as np

from .kernel import KernelParams


class Adam:
    def __init__(self, lr: float = 0.05, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        """``step(name, grads)`` for a few scalars, as Python floats in one
        pass: each element's moments and update are those of its own scalar
        slot, bit for bit, in ``step``'s order of operations, with no numpy
        call."""
        b1, b2 = self.beta1, self.beta2
        ms, vs, t = self._slots.get(name, ((0.0,) * len(grads),) * 2 + (0,))
        t += 1
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        ms_new, vs_new, updates = [], [], []
        for m, v, g in zip(ms, vs, grads):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            ms_new.append(m)
            vs_new.append(v)
            updates.append(self.lr * (m / c1) / (math.sqrt(v / c2) + self.eps))
        self._slots[name] = (ms_new, vs_new, t)
        return updates


def ascent_step(opt: Adam, grads: dict, inducing: np.ndarray,
                params: KernelParams, log_noise: float):
    """One Adam ascent step on the inducing rows and the hyperparameters.

    ``grads`` holds an ``inducing`` gradient shaped like ``inducing`` and
    the three scalar gradients.  The rows use the ``"inducing"`` slot; the
    three scalars [log_variance, log_lengthscale, log_noise] use the
    ``"hyper"`` slot (``Adam.step_scalars``), whose elementwise moments are
    those of three scalar slots.  Returns ``(inducing, params, log_noise)``.
    """
    inducing = inducing + opt.step("inducing", grads["inducing"])
    d_var, d_len, d_noise = opt.step_scalars("hyper", (
        grads["log_variance"], grads["log_lengthscale"], grads["log_noise"]))
    params = KernelParams(log_variance=params.log_variance + d_var,
                          log_lengthscale=params.log_lengthscale + d_len)
    return inducing, params, log_noise + d_noise
