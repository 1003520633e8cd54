import copy

import numpy as np
import pytest

from adaptive_sgp import adaptive, agp, bound, fast_agp, vsgp
from adaptive_sgp.errors import DimensionMismatch, InvalidLambda, NotPsd
from adaptive_sgp.kernel import KernelParams, kernel_matrix

from helpers import (count_calls, dense_weighted_bound, fd_gradient,
                     flat_bound_gradients, grad_close, make_state,
                     random_instance, rel)
from test_fast_agp import KERNEL_CACHE_RTOL


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
    st.set_window(st.window_x, np.zeros_like(st.window_y))
    adaptive.rebuild_caches(st)
    mu, _ = adaptive.adaptive_q(st)
    assert np.allclose(mu, 0.0)


def test_predict_prior_recovery():
    rng = np.random.default_rng(8)
    st = make_state(rng, d=1)
    pred = adaptive.adaptive_predict(st, np.array([1e4]))
    assert abs(pred.mean) < 1e-8
    assert pred.var == pytest.approx(st.params.variance, rel=1e-5)


def test_predict_rejects_a_query_of_several_points_before_lapack(capfd):
    # A query of 2 rows used to reach dtrtrs with a matrix right-hand side
    # (LAPACK printed to stderr), and one of M rows failed converting the
    # mean to a float; both are refused up front, naming the shape.
    rng = np.random.default_rng(12)
    st = make_state(rng, k=4, d=1)
    st.b_lam = None
    for xstar in (np.zeros((2, 1)), np.zeros((st.k_inducing, 1)),
                  np.zeros((0, 1)), np.zeros((1, 1, 1))):
        with pytest.raises(DimensionMismatch, match=str(xstar.shape)):
            adaptive.adaptive_predict(st, xstar)
    assert st.b_lam is None          # nothing was factored
    out, err = capfd.readouterr()
    assert out == "" and err == ""
    one = adaptive.adaptive_predict(st, np.array([0.3]))
    assert adaptive.adaptive_predict(st, np.array([[0.3]])) == one


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
    st.set_window(st.inducing + 1.0, st.window_y)
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


def _with_duplicated_point(rng):
    """A state with no base jitter and unit signal variance whose first
    inducing point is duplicated, so Kuu's second Cholesky pivot is exactly
    1 - 1 = 0 and the factor escalates the jitter."""
    st = make_state(rng, t_cur=12, k=3, d=2)
    st.jitter = 0.0
    st.params = KernelParams(0.0, st.params.log_lengthscale)
    st.inducing = np.vstack([st.inducing[:1], st.inducing])
    return st


def test_rebuild_keeps_kuu_and_kuu_inv_one_matrix():
    # kuu must carry the jitter escalation, or kuu @ kuu_inv is off the
    # identity by O(1) in the duplicated direction.
    rng = np.random.default_rng(24)
    for _ in range(10):
        st = _with_duplicated_point(rng)
        adaptive.rebuild_caches(st)
        raw = kernel_matrix(st.inducing, st.inducing, st.params)
        assert np.max(np.abs(st.kuu - raw)) > 0.0      # the escalation
        assert np.max(np.abs(st.kuu @ st.kuu_inv - np.eye(4))) < 1e-6


def test_window_setup_kuu_is_the_matrix_its_factor_describes():
    # Binv = Kuu~ + S_k/sig2 must be formed from the escalated Kuu~, so
    # that the bound, q and the caches read one matrix; an unescalated Binv
    # would escalate its own factor separately.
    rng = np.random.default_rng(24)
    for _ in range(10):
        st = _with_duplicated_point(rng)
        s, f_b = bound._factor(st.window_x, st.window_y, st.inducing,
                               st.params, st.log_noise, st.weights(), 0.0)
        assert s.f_k.jitter_used > 0.0
        kuu = s.f_k.lower @ s.f_k.lower.T
        binv = f_b.lower @ f_b.lower.T
        assert rel(binv - s.S_k / s.sig2, kuu) < 1e-12
        assert rel(s.Kuu, kuu) < 1e-12
        adaptive.rebuild_caches(st)
        assert np.array_equal(st.kuu, s.Kuu)


# kxu's one rule: every rebuild keeps the set-up's Kxu block, except a
# parameter update's, which drops it.


def test_rebuild_keeps_kxu_as_the_window_kernel():
    rng = np.random.default_rng(26)
    for _ in range(20):
        st = make_state(rng)
        st.kxu = None
        adaptive.rebuild_caches(st)
        kxu = kernel_matrix(st.window_x, st.inducing, st.params)
        assert st.kxu.shape == kxu.shape
        assert rel(st.kxu, kxu) <= KERNEL_CACHE_RTOL


@pytest.mark.parametrize("fails", [False, True], ids=["update", "restore"])
def test_update_or_restore_drops_kxu(fails):
    rng = np.random.default_rng(27)
    st = make_state(rng, t_cur=12, k=3, d=2)
    before = st.params

    def move():
        st.params = KernelParams(st.params.log_variance + 0.1,
                                 st.params.log_lengthscale)
        if fails:
            raise NotPsd("forced")

    assert st.kxu is not None
    assert adaptive._update_or_restore(st, move) is not fails
    assert st.kxu is None
    assert (st.params == before) is fails
    assert st.skipped_updates == fails


def test_full_mode_step_skipped_after_from_batch_keeps_kxu():
    # A skipped sample moves nothing, so the kxu from_batch's rebuild kept
    # is still the window's kernel; the first update drops it.
    X, y, _, _, _ = random_instance(np.random.default_rng(28), n=40, m=5, d=1)
    model = vsgp.fit_batch(X[:30], y[:30], 5, 5, seed=0)
    st = adaptive.from_batch(model, X[:30], y[:30], 0.9, 30, 5)
    opt = agp.adam_params()
    agp.agp_step(st, opt, X[30], np.nan)
    assert st.skipped_samples == 1
    kxu = kernel_matrix(st.window_x, st.inducing, st.params)
    assert rel(st.kxu, kxu) <= KERNEL_CACHE_RTOL
    agp.agp_step(st, opt, X[31], y[31])
    assert st.kxu is None


def test_from_batch_names_a_non_finite_row_before_any_rebuild(monkeypatch):
    X, y, _, _, _ = random_instance(np.random.default_rng(26), n=40, m=5, d=2)
    model = vsgp.fit_batch(X, y, 5, 5, seed=0)
    rebuilds = count_calls(monkeypatch, adaptive, "rebuild_caches")
    X[7, 1] = np.nan
    with pytest.raises(ValueError, match="from_batch: row 7 .* input"):
        adaptive.from_batch(model, X, y, 0.9, 40, 5)
    X[7, 1], y[3] = 0.0, -np.inf
    with pytest.raises(ValueError, match="from_batch: row 3 .* target"):
        adaptive.from_batch(model, X, y, 0.9, 40, 5)
    assert rebuilds[0] == 0


def test_from_batch_rejects_a_window_it_could_never_slide():
    # windowed_add evicts only from a full window, so a window longer than
    # window_t would never slide and each step would cost more; a shorter
    # one grows to window_t and then slides.
    X, y, _, _, _ = random_instance(np.random.default_rng(25), n=80, m=5, d=1)
    model = vsgp.fit_batch(X, y, 5, 5, seed=0)
    with pytest.raises(ValueError, match="window_t"):
        adaptive.from_batch(model, X, y, 0.9, 50, 5)
    with pytest.raises(DimensionMismatch, match="80.*79"):
        adaptive.from_batch(model, X, y[:79], 0.9, 80, 5)
    st = adaptive.from_batch(model, X[:30], y[:30], 0.9, 50, 5)
    for i in range(30, 80):
        fast_agp.fast_agp_step(st, X[i], y[i])
        assert st.window_y.shape[0] == min(i + 1, 50)
    assert np.array_equal(st.window_y, y[30:])
