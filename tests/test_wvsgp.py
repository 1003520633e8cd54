import copy

import numpy as np
import pytest

from adaptive_sgp import adaptive, vsgp, wvsgp
from adaptive_sgp.errors import NotPsd
from adaptive_sgp.optim import Adam

from helpers import b_lam_inv


def _setup(rng, n_init=30, m=5):
    x = rng.uniform(-2, 2, 200)
    y = np.sin(2 * x) + 0.15 * rng.normal(size=200)
    model = vsgp.fit_batch(x[:n_init, None], y[:n_init], M=m, iters=100, seed=0)
    return x, y, model


def _window_state(model, x, y, t=30, m=5):
    """The sliding-window baseline's streaming state: lambda = 1."""
    return adaptive.from_batch(model, x[:t, None], y[:t], lam=1.0,
                               window_t=t, capacity_m=m)


def test_zero_inner_iterations_is_static_slide():
    rng = np.random.default_rng(0)
    x, y, model = _setup(rng)
    opt = Adam(lr=0.05)
    st = _window_state(model, x, y)
    st, opt, pred = wvsgp.wvsgp_step(st, opt, x[30], y[30], inner_iters=0)
    assert st.params == model.params
    assert st.log_noise == model.log_noise
    assert np.array_equal(st.inducing, model.inducing)
    assert st.window_y[-1] == y[30] and st.window_y.shape[0] == 30
    assert np.isfinite(pred.mean) and pred.var >= 0


def test_warm_started_block_is_near_monotone():
    rng = np.random.default_rng(1)
    x, y, model = _setup(rng)
    opt = Adam(lr=0.05)
    st = _window_state(model, x, y)
    improved = total = 0
    for i in range(30, 110):
        before = vsgp.collapsed_bound(
            np.vstack([st.window_x[1:], [[x[i]]]]),
            np.append(st.window_y[1:], y[i]),
            st.inducing, st.params, st.log_noise)
        wvsgp.wvsgp_step(st, opt, x[i], y[i], inner_iters=50)
        after = vsgp.collapsed_bound(st.window_x, st.window_y, st.inducing,
                                     st.params, st.log_noise)
        total += 1
        improved += after >= before
    assert improved / total >= 0.9


def test_failed_retrain_restores_the_step_and_continues(monkeypatch):
    # The retraining fails once: the step puts back the inducing points, the
    # kernel and the noise as they were before it, rebuilds the caches
    # there on the slid window, counts the lost update, and the stream goes
    # on.
    rng = np.random.default_rng(2)
    x, y, model = _setup(rng)
    st = _window_state(model, x, y)
    train = vsgp.train
    calls = [0]

    def fails_once(*args):
        calls[0] += 1
        if calls[0] == 6:
            raise NotPsd("injected")
        return train(*args)

    monkeypatch.setattr(vsgp, "train", fails_once)
    opt = Adam(lr=0.05)
    for i in range(30, 45):
        before = st.inducing.copy(), st.params, st.log_noise
        _, _, pred = wvsgp.wvsgp_step(st, opt, x[i], y[i], inner_iters=3)
        assert np.isfinite(pred.mean) and pred.var >= 0
        same = [np.array_equal(a, b) for a, b in zip(
            (st.inducing, st.params, st.log_noise), before)]
        if i == 35:
            assert all(same)
            assert st.window_x[-1, 0] == x[i]
            fresh = copy.deepcopy(st)
            adaptive.rebuild_caches(fresh)
            for name in ("s_y", "s_k", "kuu_inv", "kuu"):
                assert np.array_equal(getattr(st, name), getattr(fresh, name)), name
            assert np.array_equal(b_lam_inv(st), b_lam_inv(fresh))
        else:
            assert not any(same)
    assert calls[0] == 15
    assert st.skipped_updates == 1
    assert st.skipped_samples == 0


def test_stationary_mse_comparable_to_single_step_method():
    # Aggregate over several streams: a single stream's ratio is too noisy
    # to test a comparability claim against.
    from adaptive_sgp import agp
    m, t, n = 10, 50, 220
    sq_w, sq_a = [], []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, n)
        y = np.sin(2 * x) + 0.15 * rng.normal(size=n)
        model = vsgp.fit_batch(x[:t, None], y[:t], M=m, iters=100, seed=0)

        opt_w = Adam(lr=0.05)
        st_w = _window_state(model, x, y, t, m)
        for i in range(t, n):
            _, opt_w, pred = wvsgp.wvsgp_step(st_w, opt_w, x[i], y[i],
                                              inner_iters=50)
            if i >= t + 40:
                sq_w.append((pred.mean - y[i]) ** 2)

        st = adaptive.from_batch(model, x[:t, None], y[:t],
                                 lam=0.99, window_t=t, capacity_m=m)
        opt_a = agp.adam_params()
        for i in range(t, n):
            _, _, pred = agp.agp_step(st, opt_a, x[i], y[i])
            if i >= t + 40:
                sq_a.append((pred.mean - y[i]) ** 2)

    mse_w = np.mean(sq_w)
    mse_a = np.mean(sq_a)
    assert mse_w <= 2.0 * mse_a and mse_a <= 2.0 * mse_w
