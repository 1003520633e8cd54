import numpy as np
import pytest

from adaptive_sgp import kernel, linalg, vsgp
from adaptive_sgp.errors import DimensionMismatch
from adaptive_sgp.kernel import KernelParams, kernel_matrix
from adaptive_sgp.optim import Adam

from helpers import (count_calls, dense_gp_lml, fd_gradient,
                     flat_bound_gradients, grad_close, random_instance,
                     random_params, record_calls, rel)


def _dense_optimal_q(X, y, U, params, log_noise, jitter=1e-6):
    sig2 = np.exp(log_noise)
    Kuu = kernel_matrix(U, U, params) + jitter * np.eye(U.shape[0])
    Kxu = kernel_matrix(X, U, params)
    B = np.linalg.inv(Kuu + Kxu.T @ Kxu / sig2)
    mu = Kuu @ B @ Kxu.T @ y / sig2
    A = Kuu @ B @ Kuu
    return mu, A


def _model(X, y, U, params, log_noise):
    mu, A = vsgp.optimal_q(X, y, U, params, log_noise)
    Kuu = kernel_matrix(U, U, params) + 1e-6 * np.eye(U.shape[0])
    return vsgp.VsgpModel(inducing=np.atleast_2d(U), params=params,
                          log_noise=log_noise, q_mean=mu, q_cov=A,
                          kuu_inv=np.linalg.inv(Kuu))


def test_bound_exact_when_inducing_equal_data():
    rng = np.random.default_rng(0)
    X, y, _, params, ln = random_instance(rng, n=10, m=1, d=2)
    val = vsgp.collapsed_bound(X, y, X, params, ln, jitter=1e-10)
    assert val == pytest.approx(dense_gp_lml(X, y, params, ln), abs=1e-6)


def test_bound_scalar_closed_form():
    params = KernelParams(np.log(1.7), 0.2)
    x = np.array([[0.4]])
    y = np.array([0.9])
    ln = np.log(0.3)
    val = vsgp.collapsed_bound(x, y, x, params, ln, jitter=0.0)
    var = 0.3 + 1.7
    expected = -0.5 * (np.log(2 * np.pi * var) + y[0] ** 2 / var)
    assert val == pytest.approx(expected, abs=1e-9)


def test_bound_matches_dense_oracle():
    rng = np.random.default_rng(1)
    X, y, U, params, ln = random_instance(rng, n=20, m=5, d=2)
    fast = vsgp.collapsed_bound(X, y, U, params, ln)
    sig2 = np.exp(ln)
    Kuu = kernel_matrix(U, U, params) + 1e-6 * np.eye(5)
    Kxu = kernel_matrix(X, U, params)
    Qff = Kxu @ np.linalg.solve(Kuu, Kxu.T)
    cov = sig2 * np.eye(20) + Qff
    sign, ld = np.linalg.slogdet(cov)
    gauss = -0.5 * (20 * np.log(2 * np.pi) + ld + y @ np.linalg.solve(cov, y))
    trace = -0.5 / sig2 * (np.sum(params.variance * np.ones(20)) - np.trace(Qff))
    assert fast == pytest.approx(gauss + trace, abs=1e-8 * max(1, abs(gauss)))


def test_bound_is_lower_bound_on_exact_lml():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X, y, U, params, ln = random_instance(rng, n=int(rng.integers(4, 13)))
        val = vsgp.collapsed_bound(X, y, U, params, ln, jitter=1e-10)
        assert val <= dense_gp_lml(X, y, params, ln) + 1e-8


def test_optimal_q_zero_targets():
    rng = np.random.default_rng(3)
    X, _, U, params, ln = random_instance(rng, n=12, m=4)
    mu, A = vsgp.optimal_q(X, np.zeros(12), U, params, ln)
    assert np.allclose(mu, 0.0)
    _, A_dense = _dense_optimal_q(X, np.zeros(12), U, params, ln)
    assert rel(A, A_dense) < 1e-9


def test_optimal_q_infinite_noise_recovers_prior():
    rng = np.random.default_rng(4)
    X, y, U, params, _ = random_instance(rng, n=15, m=3)
    mu, A = vsgp.optimal_q(X, y, U, params, log_noise=20.0)
    Kuu = kernel_matrix(U, U, params)
    assert rel(A, Kuu) < 1e-4
    assert np.max(np.abs(mu)) < 1e-4


def test_optimal_q_matches_dense_oracle():
    rng = np.random.default_rng(5)
    X, y, U, params, ln = random_instance(rng, n=20, m=5)
    mu, A = vsgp.optimal_q(X, y, U, params, ln)
    mu_d, A_d = _dense_optimal_q(X, y, U, params, ln)
    assert rel(mu, mu_d) < 1e-9
    assert rel(A, A_d) < 1e-9


def test_predict_prior_recovery_far_away():
    rng = np.random.default_rng(6)
    X, y, U, params, ln = random_instance(rng, n=10, m=3, d=1)
    model = _model(X, y, U, params, ln)
    pred = vsgp.predict(model, np.array([500.0]))
    assert abs(pred.mean) < 1e-8
    assert pred.var == pytest.approx(params.variance, rel=1e-5)


def test_predict_scalar_hand_case():
    params = KernelParams(0.0, 0.0)
    x = np.array([[0.0]])
    model = _model(x, np.array([1.0]), x, params, 0.0)
    pred = vsgp.predict(model, np.array([0.0]))
    assert pred.mean == pytest.approx(0.5, abs=1e-5)
    assert pred.var == pytest.approx(0.5, abs=1e-5)


def test_predict_rejects_a_query_of_several_points_before_any_kernel(
        monkeypatch):
    # A k x M kernel used to be ravelled and fail inside kuu_inv @ ks with
    # numpy's matmul ValueError; a query of several rows is refused up
    # front, naming its shape, before any kernel is built.
    rng = np.random.default_rng(16)
    X, y, U, params, ln = random_instance(rng, n=12, m=4, d=1)
    model = _model(X, y, U, params, ln)
    kernels = count_calls(monkeypatch, kernel, "kernel_matrix")
    for xstar in (np.zeros((2, 1)), np.zeros((4, 1)), np.zeros((1, 1, 1))):
        with pytest.raises(DimensionMismatch, match=str(xstar.shape)):
            vsgp.predict(model, xstar)
    assert kernels[0] == 0


@pytest.mark.parametrize("d", [1, 3])
def test_predict_of_one_point_in_every_shape_is_the_q_form(d):
    # (D,), (1, D) and, at D=1, a bare scalar each predict the q-form of
    # the one kernel row, bit for bit.
    rng = np.random.default_rng(17 + d)
    X, y, U, params, ln = random_instance(rng, n=12, m=4, d=d)
    model = _model(X, y, U, params, ln)
    for _ in range(20):
        x = rng.normal(size=d)
        ks = kernel_matrix(x[None], model.inducing, params).ravel()
        want = vsgp._q_predict(ks, params.variance, model.kuu_inv,
                               model.q_mean, model.q_cov)
        queries = [x, x[None]] + ([float(x[0])] if d == 1 else [])
        for xstar in queries:
            assert vsgp.predict(model, xstar) == want


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    X, y, U, params, ln = random_instance(rng, n=20, m=4, d=2)

    def f(theta):
        Um = theta[:8].reshape(4, 2)
        p = KernelParams(theta[8], theta[9])
        return vsgp.collapsed_bound(X, y, Um, p, theta[10])

    theta0 = np.concatenate([U.ravel(),
                             [params.log_variance, params.log_lengthscale, ln]])
    analytic = flat_bound_gradients(X, y, U, params, ln)
    assert grad_close(analytic, fd_gradient(f, theta0), tol=1e-4)


def test_log_noise_gradient_small_when_well_specified():
    # the per-instance gradient at the generative parameters fluctuates with
    # O(sqrt(N)) scale, so the near-stationarity claim is checked on the
    # average over independent well-specified draws
    grads = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = np.sort(rng.uniform(-3, 3, 200))[:, None]
        U = np.linspace(-3, 3, 25)[:, None]
        params = KernelParams(0.0, 0.0)
        sig2 = 0.1
        Kuu = kernel_matrix(U, U, params) + 1e-8 * np.eye(25)
        Kxu = kernel_matrix(X, U, params)
        fu = np.linalg.cholesky(Kuu) @ rng.normal(size=25)
        f = Kxu @ np.linalg.solve(Kuu, fu)
        y = f + np.sqrt(sig2) * rng.normal(size=200)
        grads.append(flat_bound_gradients(X, y, U, params, np.log(sig2))[-1])
    assert abs(np.mean(grads)) < 1.0


def test_gradients_finite_with_duplicated_inducing_point():
    rng = np.random.default_rng(9)
    X, y, U, params, ln = random_instance(rng, n=10, m=3, d=2)
    U_dup = np.vstack([U, U[-1]])
    g = flat_bound_gradients(X, y, U_dup, params, ln)
    assert np.all(np.isfinite(g))


def test_fit_batch_zero_iters_is_initialization():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 1))
    y = rng.normal(size=30)
    m1 = vsgp.fit_batch(X, y, M=5, iters=0, seed=7)
    m2 = vsgp.fit_batch(X, y, M=5, iters=0, seed=7)
    p0, ln0 = vsgp.init_hyperparams(X, y)
    assert m1.params == p0 and m1.log_noise == ln0
    assert np.array_equal(m1.inducing, m2.inducing)
    assert np.array_equal(m1.q_mean, m2.q_mean)


@pytest.mark.parametrize("M", [0, 31])
def test_fit_batch_rejects_a_capacity_outside_one_to_n(M):
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match="1 <= M <= N"):
        vsgp.fit_batch(rng.normal(size=(30, 1)), rng.normal(size=30), M=M,
                       iters=0, seed=7)


def test_fit_batch_factors_kuu_and_b_once_each(monkeypatch):
    # After the ascent steps, one set-up gives the optimal q and the cached
    # Kuu inverse: Kuu~ and B = Kuu~ + Kux Kxu / sig2 are factored once each,
    # and the inverse comes from Kuu~'s factor.
    X, y, _, _, _ = random_instance(np.random.default_rng(12), n=20, m=4, d=2)
    factored = record_calls(monkeypatch, linalg, "cholesky_psd")
    inverses = count_calls(monkeypatch, linalg, "inv_from_factor")
    model = vsgp.fit_batch(X, y, M=4, iters=0, seed=0)
    U, p, ln = model.inducing, model.params, model.log_noise
    Kuu = kernel_matrix(U, U, p) + 1e-6 * np.eye(4)
    Kxu = kernel_matrix(X, U, p)
    assert len(factored) == 2
    assert np.array_equal(factored[0][0], Kuu)
    assert np.allclose(factored[1][0], Kuu + Kxu.T @ Kxu / np.exp(ln),
                       rtol=1e-12, atol=0.0)
    assert inverses[0] == 1
    assert np.array_equal(model.kuu_inv,
                          linalg.inv_from_factor(linalg.cholesky_psd(Kuu)))
    mu, A = vsgp.optimal_q(X, y, U, p, ln)
    assert np.array_equal(model.q_mean, mu) and np.array_equal(model.q_cov, A)


def test_fit_batch_improves_bound_on_toy_prefix():
    from adaptive_sgp import harness
    t, y = harness.synth_toy(0)
    X = t[:100, None]
    m0 = vsgp.fit_batch(X, y[:100], M=10, iters=0, seed=3)
    m1 = vsgp.fit_batch(X, y[:100], M=10, iters=200, seed=3)
    f0 = vsgp.collapsed_bound(X, y[:100], m0.inducing, m0.params, m0.log_noise)
    f1 = vsgp.collapsed_bound(X, y[:100], m1.inducing, m1.params, m1.log_noise)
    assert f1 > f0


def test_fit_batch_full_inducing_beats_zero_predictor():
    rng = np.random.default_rng(11)
    X = np.sort(rng.uniform(-2, 2, 15))[:, None]
    y = np.sin(2 * X[:, 0]) + 0.05 * rng.normal(size=15)
    model = vsgp.fit_batch(X, y, M=15, iters=0, seed=0)
    preds = [vsgp.predict(model, x) for x in X]
    assert all(p.var <= model.params.variance + 1e-8 for p in preds)
    mse_model = np.mean([(p.mean - yi) ** 2 for p, yi in zip(preds, y)])
    assert mse_model < np.mean(y ** 2)
