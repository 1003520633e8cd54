import copy

import numpy as np
import pytest

from adaptive_sgp import adaptive, vsgp
from adaptive_sgp.errors import InvalidLambda
from adaptive_sgp.kernel import KernelParams, kernel_matrix

from helpers import (dense_weighted_bound, fd_gradient, flat_bound_gradients,
                     grad_close, make_state, rel)


def _kuu_jittered(st):
    # Kuu + jitter I from the kernel, not st.kuu, which also carries any
    # jitter escalation of its factor
    return (kernel_matrix(st.inducing, st.inducing, st.params)
            + st.jitter * np.eye(st.k_inducing))


def test_lambda_weights_values():
    assert np.allclose(adaptive.lambda_weights(4, 1.0), np.ones(4))
    assert np.allclose(adaptive.lambda_weights(3, 0.5), [0.25, 0.5, 1.0])
    w = adaptive.lambda_weights(100, 0.97724)
    # oldest entry is lambda^99; the configuration is chosen so that one
    # more step of discounting hits 0.1 exactly
    assert w[0] == pytest.approx(0.97724 ** 99)
    assert 0.97724 * w[0] == pytest.approx(0.1, rel=0.01)
    assert w[-1] == 1.0


def test_lambda_weights_rejects_bad_lambda():
    for bad in (0.0, -0.3, 1.2, float("nan")):
        for _ in range(3):          # a failed call is never memoized
            with pytest.raises(InvalidLambda):
                adaptive.lambda_weights(5, bad)


def test_lambda_weights_memoized_bit_for_bit_and_read_only():
    for t in (1, 2, 7, 100, 400):
        for lam in (1.0, 0.5, 0.97724, 0.1 ** (1.0 / 400)):
            expected = lam ** np.arange(t - 1, -1, -1.)
            for _ in range(2):
                w = adaptive.lambda_weights(t, lam)
                assert np.array_equal(w, expected)
                with pytest.raises(ValueError):
                    w[0] = 2.0
    assert adaptive.lambda_weights(0, 0.9).shape == (0,)


def test_bound_reduces_to_batch_at_lambda_one():
    rng = np.random.default_rng(0)
    st = make_state(rng, lam=1.0)
    batch = vsgp.collapsed_bound(st.window_x, st.window_y, st.inducing,
                                 st.params, st.log_noise, jitter=st.jitter)
    assert adaptive.adaptive_bound(st) == pytest.approx(batch, abs=1e-9 * max(1, abs(batch)))


def test_bound_single_sample_scalar_formula():
    rng = np.random.default_rng(1)
    st = make_state(rng, t_cur=1, k=2, d=1, lam=0.9)
    y = st.window_y[0]
    sig2 = st.noise_var
    kut = kernel_matrix(st.inducing, st.window_x, st.params).ravel()
    q_tt = kut @ np.linalg.solve(_kuu_jittered(st), kut)
    k_tt = st.params.variance
    var = sig2 + q_tt
    expected = (-0.5 * (np.log(2 * np.pi * var) + y ** 2 / var)
                - 0.5 / sig2 * (k_tt - q_tt))
    assert adaptive.adaptive_bound(st) == pytest.approx(expected, abs=1e-9)


def test_bound_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        st = make_state(rng)
        dense = dense_weighted_bound(st.window_x, st.window_y, st.inducing,
                                     st.params, st.log_noise, st.weights(),
                                     st.jitter)
        assert adaptive.adaptive_bound(st) == pytest.approx(
            dense, abs=1e-8 * max(1.0, abs(dense)))


def test_gradients_reduce_to_batch_at_lambda_one():
    rng = np.random.default_rng(3)
    st = make_state(rng, lam=1.0)
    g = adaptive.adaptive_bound_gradients(st)
    flat = np.concatenate([g["inducing"].ravel(),
                           [g["log_variance"], g["log_lengthscale"], g["log_noise"]]])
    batch = flat_bound_gradients(st.window_x, st.window_y, st.inducing,
                                 st.params, st.log_noise, jitter=st.jitter)
    assert rel(flat, batch) < 1e-8


def test_gradients_match_finite_differences():
    from adaptive_sgp.kernel import KernelParams
    rng = np.random.default_rng(4)
    st = make_state(rng, t_cur=15, k=4, d=2, lam=0.85)
    w = st.weights()

    def f(theta):
        U = theta[:8].reshape(4, 2)
        p = KernelParams(theta[8], theta[9])
        from adaptive_sgp import bound
        return bound.weighted_bound(st.window_x, st.window_y, U, p,
                                    theta[10], w, st.jitter)

    theta0 = np.concatenate([st.inducing.ravel(),
                             [st.params.log_variance,
                              st.params.log_lengthscale, st.log_noise]])
    g = adaptive.adaptive_bound_gradients(st)
    flat = np.concatenate([g["inducing"].ravel(),
                           [g["log_variance"], g["log_lengthscale"], g["log_noise"]]])
    assert grad_close(flat, fd_gradient(f, theta0), tol=1e-4)


def test_adaptive_q_reduces_and_matches_dense():
    rng = np.random.default_rng(6)
    st = make_state(rng, lam=1.0)
    mu, A = adaptive.adaptive_q(st)
    mu_b, A_b = vsgp.optimal_q(st.window_x, st.window_y, st.inducing,
                               st.params, st.log_noise, jitter=st.jitter)
    assert rel(mu, mu_b) < 1e-9 and rel(A, A_b) < 1e-9

    st2 = make_state(rng, lam=0.8)
    w = st2.weights()
    sig2 = st2.noise_var
    Kuu = _kuu_jittered(st2)
    Kxu = kernel_matrix(st2.window_x, st2.inducing, st2.params)
    B = np.linalg.inv(Kuu + Kxu.T @ (w[:, None] * Kxu) / sig2)
    mu_d = Kuu @ B @ Kxu.T @ (w * st2.window_y) / sig2
    A_d = Kuu @ B @ Kuu
    mu2, A2 = adaptive.adaptive_q(st2)
    assert rel(mu2, mu_d) < 1e-9 and rel(A2, A_d) < 1e-9


def test_adaptive_q_zero_targets():
    rng = np.random.default_rng(7)
    st = make_state(rng)
    st.window_y = np.zeros_like(st.window_y)
    adaptive.rebuild_caches(st)
    mu, _ = adaptive.adaptive_q(st)
    assert np.allclose(mu, 0.0)


def test_predict_prior_recovery():
    rng = np.random.default_rng(8)
    st = make_state(rng, d=1)
    pred = adaptive.adaptive_predict(st, np.array([1e4]))
    assert abs(pred.mean) < 1e-8
    assert pred.var == pytest.approx(st.params.variance, rel=1e-5)


def test_predict_reduces_to_batch():
    rng = np.random.default_rng(9)
    st = make_state(rng, lam=1.0, d=2)
    mu, A = vsgp.optimal_q(st.window_x, st.window_y, st.inducing,
                           st.params, st.log_noise, jitter=st.jitter)
    model = vsgp.VsgpModel(inducing=st.inducing, params=st.params,
                           log_noise=st.log_noise, q_mean=mu, q_cov=A,
                           kuu_inv=st.kuu_inv)
    xstar = np.array([0.3, -0.2])
    p_a = adaptive.adaptive_predict(st, xstar)
    p_b = vsgp.predict(model, xstar)
    assert p_a.mean == pytest.approx(p_b.mean, abs=1e-9)
    assert p_a.var == pytest.approx(p_b.var, abs=1e-9)


def test_predict_consistent_with_explicit_q_moments():
    rng = np.random.default_rng(10)
    st = make_state(rng, lam=0.75, d=2)
    mu, A = adaptive.adaptive_q(st)
    xstar = rng.normal(size=2)
    kstar = kernel_matrix(st.inducing, xstar[None, :], st.params).ravel()
    Kuu_inv = st.kuu_inv
    m8 = kstar @ Kuu_inv @ mu
    v8 = (st.params.variance - kstar @ Kuu_inv @ kstar
          + kstar @ Kuu_inv @ A @ Kuu_inv @ kstar)
    pred = adaptive.adaptive_predict(st, xstar)
    assert pred.mean == pytest.approx(m8, abs=1e-9)
    assert pred.var == pytest.approx(v8, abs=1e-9)


def test_relevance_total_zero_when_inducing_cover_window():
    rng = np.random.default_rng(11)
    st = make_state(rng, t_cur=5, k=1)
    st.inducing = st.window_x.copy()
    st.jitter = 1e-12  # the residual is zero only up to the jitter scale
    adaptive.rebuild_caches(st)
    assert adaptive.relevance_total(st) == pytest.approx(0.0, abs=1e-8)


def test_relevance_total_single_datum_bounds():
    rng = np.random.default_rng(12)
    st = make_state(rng, t_cur=1, k=1, d=1, lam=1.0)
    st.window_x = st.inducing + 1.0
    adaptive.rebuild_caches(st)
    r = adaptive.relevance_total(st)
    assert 0.0 < r < st.params.variance


def test_relevance_total_direct_sum_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        st = make_state(rng)
        w = st.weights()
        Kxu = kernel_matrix(st.window_x, st.inducing, st.params)
        Kuu = _kuu_jittered(st)
        direct = sum(
            w[i] * (st.params.variance - Kxu[i] @ np.linalg.solve(Kuu, Kxu[i]))
            for i in range(w.shape[0]))
        assert adaptive.relevance_total(st) == pytest.approx(
            max(direct, 0.0), abs=1e-10 * max(1, abs(direct)))


def test_removal_scores_remove_and_rebuild_oracle():
    rng = np.random.default_rng(18)
    for _ in range(20):
        st = make_state(rng, k=int(rng.integers(2, 7)))
        scores = adaptive.removal_scores(st.kuu_inv, st.s_k)
        for m in range(st.k_inducing):
            ref = copy.deepcopy(st)
            ref.inducing = np.delete(st.inducing, m, axis=0)
            adaptive.rebuild_caches(ref)
            direct = adaptive.relevance_total(ref) - adaptive.relevance_total(st)
            assert scores[m] == pytest.approx(
                direct, abs=1e-9 * max(1.0, st.w_ksum))


def test_reduction_law_property_suite():
    rng = np.random.default_rng(17)
    for _ in range(100):
        st = make_state(rng, lam=1.0)
        batch = vsgp.collapsed_bound(st.window_x, st.window_y, st.inducing,
                                     st.params, st.log_noise, jitter=st.jitter)
        assert adaptive.adaptive_bound(st) == pytest.approx(
            batch, rel=1e-8, abs=1e-8)
        pred = adaptive.adaptive_predict(st, st.window_x[0])
        assert pred.var >= 0.0


def test_rebuild_keeps_kuu_and_kuu_inv_one_matrix():
    # With no base jitter and unit signal variance, an inducing point
    # followed by its duplicate makes Kuu's second Cholesky pivot exactly
    # 1 - 1 = 0, so the factor escalates the jitter.  kuu must carry that
    # escalation, or kuu @ kuu_inv is off the identity by O(1) in the
    # duplicated direction.
    rng = np.random.default_rng(24)
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2)
        st.jitter = 0.0
        st.params = KernelParams(0.0, st.params.log_lengthscale)
        st.inducing = np.vstack([st.inducing[:1], st.inducing])
        adaptive.rebuild_caches(st)
        raw = kernel_matrix(st.inducing, st.inducing, st.params)
        assert np.max(np.abs(st.kuu - raw)) > 0.0      # the escalation
        assert np.max(np.abs(st.kuu @ st.kuu_inv - np.eye(4))) < 1e-6
