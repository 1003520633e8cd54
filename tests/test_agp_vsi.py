import copy
import logging

import numpy as np
import pytest

from adaptive_sgp import adaptive, agp_vsi, linalg, vsgp
from adaptive_sgp.errors import NotPsd
from adaptive_sgp.optim import Adam
from adaptive_sgp.agp_vsi import VariationalQ, elbo_lambda, q_from_moments
from adaptive_sgp.kernel import KernelParams

from helpers import (b_lam_inv, count_calls, fd_gradient, grad_close,
                     make_state, piecewise_sinusoid)


def _optimal_q(st):
    mu, A = adaptive.adaptive_q(st)
    return q_from_moments(mu, A)


def test_elbo_maximized_at_closed_form_q():
    rng = np.random.default_rng(0)
    st = make_state(rng, t_cur=12, k=3, d=2, lam=0.85)
    q_star = _optimal_q(st)
    best = elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                       st.log_noise, q_star, st.lam)
    for _ in range(20):
        q_pert = VariationalQ(
            mean=q_star.mean + 0.3 * rng.normal(size=q_star.mean.shape),
            cov_chol=q_star.cov_chol + 0.1 * np.tril(rng.normal(size=q_star.cov_chol.shape)))
        if np.any(np.diag(q_pert.cov_chol) <= 0):
            continue
        other = elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                            st.log_noise, q_pert, st.lam)
        assert other <= best + 1e-8


def test_elbo_collapse_identity_at_lambda_one():
    rng = np.random.default_rng(1)
    st = make_state(rng, t_cur=10, k=3, d=1, lam=1.0)
    q_star = _optimal_q(st)
    val = elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                      st.log_noise, q_star, 1.0)
    collapsed = vsgp.collapsed_bound(st.window_x, st.window_y, st.inducing,
                                     st.params, st.log_noise, jitter=st.jitter)
    assert val == pytest.approx(collapsed, abs=1e-6)


def test_degenerate_q_is_penalized():
    rng = np.random.default_rng(2)
    st = make_state(rng, t_cur=10, k=3, d=1, lam=0.9)
    q_star = _optimal_q(st)
    best = elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                       st.log_noise, q_star, st.lam)
    q_deg = VariationalQ(mean=q_star.mean,
                         cov_chol=np.exp(-20.0) * np.eye(3))
    low = elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                      st.log_noise, q_deg, st.lam)
    assert low < best


def test_elbo_factors_kuu_once(monkeypatch):
    # One factor of Kuu~ gives both Kuu^-1 and the KL's log-determinant.
    rng = np.random.default_rng(3)
    st = make_state(rng, t_cur=10, k=3, d=2, lam=0.9)
    q = _optimal_q(st)
    chol = count_calls(monkeypatch, linalg, "cholesky_psd")
    inverses = count_calls(monkeypatch, linalg, "inv_from_factor")
    elbo_lambda(st.window_x, st.window_y, st.inducing, st.params,
                st.log_noise, q, st.lam, st.jitter)
    assert chol[0] == 1
    assert inverses[0] == 1


def test_elbo_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    st = make_state(rng, t_cur=8, k=3, d=2, lam=0.8)
    mu0 = rng.normal(size=3)
    L0 = np.tril(0.3 * rng.normal(size=(3, 3)))
    np.fill_diagonal(L0, np.abs(np.diag(L0)) + 0.5)
    q0 = VariationalQ(mean=mu0, cov_chol=L0)

    g = agp_vsi.elbo_gradients(st.window_x, st.window_y, st.inducing,
                               st.params, st.log_noise, q0, st.lam,
                               jitter=st.jitter)

    k, d = 3, 2
    tril = np.tril_indices(k)

    def unpack(theta):
        i = 0
        mu = theta[i:i + k]; i += k
        Lp = np.zeros((k, k))
        Lp[tril] = theta[i:i + len(tril[0])]; i += len(tril[0])
        L = np.tril(Lp, -1)
        np.fill_diagonal(L, np.exp(np.diag(Lp)))
        U = theta[i:i + k * d].reshape(k, d); i += k * d
        p = KernelParams(theta[i], theta[i + 1]); i += 2
        ln = theta[i]
        return mu, L, U, p, ln

    def f(theta):
        mu, L, U, p, ln = unpack(theta)
        return elbo_lambda(st.window_x, st.window_y, U, p, ln,
                           VariationalQ(mean=mu, cov_chol=L), st.lam,
                           jitter=st.jitter)

    Lp0 = np.tril(L0, -1) + np.diag(np.log(np.diag(L0)))
    theta0 = np.concatenate([mu0, Lp0[tril], st.inducing.ravel(),
                             [st.params.log_variance,
                              st.params.log_lengthscale, st.log_noise]])
    numeric = fd_gradient(f, theta0)
    analytic = np.concatenate([
        g["q_mean"], g["q_chol"][tril], g["inducing"].ravel(),
        [g["log_variance"], g["log_lengthscale"], g["log_noise"]]])
    assert grad_close(analytic, numeric, tol=1e-4)


def test_step_zero_iterations_is_pure_slide():
    rng = np.random.default_rng(4)
    st = make_state(rng, t_cur=10, k=3, d=1, lam=0.9, window_t=10)
    q = _optimal_q(st)
    from adaptive_sgp.optim import Adam
    opt = Adam(lr=0.05)
    params_before = st.params
    ln_before = st.log_noise
    u_before = st.inducing.copy()
    st, q2, opt, pred = agp_vsi.agp_vsi_step(st, q, opt, np.array([0.2]), 0.5,
                                             inner_iters=0)
    assert st.params == params_before
    assert st.log_noise == ln_before
    assert np.array_equal(st.inducing, u_before)
    assert np.array_equal(q2.mean, q.mean)
    assert np.isfinite(pred.mean)


def test_step_never_factors_b_lam(monkeypatch):
    # The prediction reads q, never B_lambda, so a step factors only Kuu~:
    # once per inner iteration and once in the rebuild.
    X, y = piecewise_sinusoid(40, 3)
    model = vsgp.fit_batch(X[:30], y[:30], M=4, iters=20, seed=0)
    st = adaptive.from_batch(model, X[:30], y[:30],
                             lam=0.95, window_t=30, capacity_m=4)
    q = q_from_moments(model.q_mean, model.q_cov)
    refreshes = count_calls(monkeypatch, adaptive, "refresh_b_lam")
    chol = count_calls(monkeypatch, linalg, "cholesky_psd")
    opt = Adam(lr=0.05)
    for i in range(30, 40):
        st, q, opt, _ = agp_vsi.agp_vsi_step(st, q, opt, X[i], y[i],
                                             inner_iters=3)
        assert st.b_lam is None
    assert refreshes[0] == 0
    assert chol[0] == 10 * (3 + 1)
    assert st.skipped_updates == 0


def test_step_converges_toward_closed_form_q():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, 140)
    y = np.sin(2 * x) + 0.15 * rng.normal(size=140)
    model = vsgp.fit_batch(x[:30, None], y[:30], M=4, iters=100, seed=0)
    st = adaptive.from_batch(model, x[:30, None], y[:30],
                             lam=0.95, window_t=30, capacity_m=4)
    q = _optimal_q(st)
    from adaptive_sgp.optim import Adam
    opt = Adam(lr=0.05)
    for i in range(30, 130):
        st, q, opt, _ = agp_vsi.agp_vsi_step(st, q, opt, x[i], y[i],
                                             inner_iters=50)
    mu_star, _ = adaptive.adaptive_q(st)
    assert np.linalg.norm(q.mean - mu_star) / np.linalg.norm(mu_star) < 0.1


def test_failed_rebuild_restores_the_step_and_continues(monkeypatch):
    # The rebuild after the inner loop fails once: the step puts back the
    # inducing points, the kernel, the noise and q as they were before the
    # loop, rebuilds there, counts the lost update, and the stream goes on.
    X, y = piecewise_sinusoid(50, 2)
    model = vsgp.fit_batch(X[:30], y[:30], M=4, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:30], y[:30],
                             lam=0.95, window_t=30, capacity_m=4)
    q = _optimal_q(st)
    rebuild = adaptive.rebuild_caches
    calls = [0]

    def fails_once(state, **kwargs):
        calls[0] += 1
        if calls[0] == 6:
            raise NotPsd("injected")
        rebuild(state, **kwargs)

    monkeypatch.setattr(adaptive, "rebuild_caches", fails_once)
    opt = Adam(lr=0.05)
    for i in range(30, 45):
        before = (st.inducing.copy(), st.params, st.log_noise, q.mean.copy(),
                  q.cov_chol.copy())
        st, q, opt, _ = agp_vsi.agp_vsi_step(st, q, opt, X[i], y[i],
                                             inner_iters=3)
        same = [np.array_equal(a, b) for a, b in zip(
            (st.inducing, st.params, st.log_noise, q.mean, q.cov_chol),
            before)]
        if i == 35:
            assert all(same)
            assert np.array_equal(st.window_x[-1], X[i])
            fresh = copy.deepcopy(st)
            rebuild(fresh)
            for name in ("s_y", "s_k", "kuu_inv", "kuu"):
                assert np.array_equal(getattr(st, name), getattr(fresh, name)), name
            assert np.array_equal(b_lam_inv(st), b_lam_inv(fresh))
        else:
            assert not any(same)
    assert calls[0] == 16
    assert st.skipped_updates == 1
    assert st.skipped_samples == 0


def test_failed_iteration_restores_the_step_with_one_warning(monkeypatch,
                                                            caplog):
    # Kuu~ at the parameters of the second inner iteration of one step is
    # not PSD: its every factorization fails, the iteration's and the
    # rebuild's after it.  The one guard puts the step back, q with it, and
    # warns once; the window has slid and the next step runs.
    X, y = piecewise_sinusoid(50, 2)
    model = vsgp.fit_batch(X[:30], y[:30], M=4, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:30], y[:30],
                             lam=0.95, window_t=30, capacity_m=4)
    q = _optimal_q(st)
    gradients, cholesky = agp_vsi.elbo_gradients, linalg.cholesky_psd
    iteration, bad = [0], []

    def counted(*args):
        iteration[0] += 1
        return gradients(*args)

    def fails_on_bad(A, base_jitter=0.0):
        if iteration[0] == 2 and not bad:
            bad.append(np.array(A))
        if bad and np.array_equal(A, bad[0]):
            raise NotPsd("injected")
        return cholesky(A, base_jitter)

    monkeypatch.setattr(agp_vsi, "elbo_gradients", counted)
    monkeypatch.setattr(linalg, "cholesky_psd", fails_on_bad)
    opt = Adam(lr=0.05)
    before = (st.inducing.copy(), st.params, st.log_noise, q.mean.copy(),
              q.cov_chol.copy())
    st, q, opt, _ = agp_vsi.agp_vsi_step(st, q, opt, X[30], y[30],
                                         inner_iters=3)
    assert iteration[0] == 2 and len(bad) == 1
    for a, b in zip((st.inducing, st.params, st.log_noise, q.mean,
                     q.cov_chol), before):
        assert np.array_equal(a, b)
    assert np.array_equal(st.window_x[-1], X[30])
    assert st.skipped_updates == 1
    assert [(r.name, r.levelname) for r in caplog.records
            if r.levelno >= logging.WARNING] == [
                ("adaptive_sgp.adaptive", "WARNING")]

    params = st.params
    st, q, opt, pred = agp_vsi.agp_vsi_step(st, q, opt, X[31], y[31],
                                            inner_iters=3)
    assert np.isfinite(pred.mean) and st.params != params
    assert st.skipped_updates == 1
