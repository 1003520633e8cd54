import numpy as np
import pytest

from adaptive_sgp import agp_vsi, bound, kernel, linalg
from adaptive_sgp.errors import DimensionMismatch
from adaptive_sgp.kernel import KernelParams, kernel_matrix, sq_dists

from helpers import count_calls, random_instance, random_params


def test_zero_distance_gives_signal_variance():
    p = KernelParams(np.log(2.3), 0.4)
    x = np.array([[1.0, -2.0]])
    assert kernel_matrix(x, x, p)[0, 0] == pytest.approx(2.3)


def test_forced_half_value():
    # unit hyperparameters, squared distance 2 ln 2 -> exp(-ln 2) = 1/2
    p = KernelParams(0.0, 0.0)
    x = np.array([[0.0]])
    z = np.array([[np.sqrt(2.0 * np.log(2.0))]])
    assert kernel_matrix(x, z, p)[0, 0] == pytest.approx(0.5)


def test_gram_matrix_is_psd():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 2))
    f = linalg.cholesky_psd(kernel_matrix(X, X, random_params(rng)), 1e-10)
    assert f.jitter_used <= 1e-6


def test_gram_matrix_symmetric_exactly():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 3))
    K = kernel_matrix(X, X, random_params(rng))
    assert np.array_equal(K, K.T)


def test_dimension_mismatch_rejected():
    p = KernelParams(0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        kernel_matrix(np.zeros((3, 2)), np.zeros((3, 1)), p)


# rebuild_caches and windowed_add take k(x, x) to be the signal variance.


def test_kernel_diag_values():
    p1 = KernelParams(0.0, 0.3)
    assert np.allclose(np.diag(kernel_matrix(np.zeros((4, 2)), np.zeros((4, 2)), p1)),
                       np.ones(4))
    p2 = KernelParams(np.log(2.5), 0.3)
    assert np.allclose(np.diag(kernel_matrix(np.zeros((3, 1)), np.zeros((3, 1)), p2)),
                       [2.5, 2.5, 2.5])


def test_kernel_diag_matches_full_matrix():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 2))
    p = random_params(rng)
    assert np.allclose(np.diag(kernel_matrix(X, X, p)), p.variance)


def test_monotone_decreasing_in_distance():
    p = KernelParams(0.2, -0.1)
    x = np.zeros((1, 1))
    dists = np.linspace(0.1, 3.0, 12)[:, None]
    vals = kernel_matrix(x, dists, p).ravel()
    assert np.all(np.diff(vals) < 0)


# The kernel's analytic partials live in bound._chain_to_params, which
# contracts them with coefficient matrices G_uu = dF/dKuu, G_xu = dF/dKxu.
# Contracting with arbitrary G gives the gradient of
# f = sum(G_uu * K(Z, Z)) + sum(G_xu * K(X, Z)), which finite differences of
# kernel_matrix check independently.


def _kernel_grads(G_uu, G_xu, X, Z, p):
    return bound._chain_to_params(G_uu, G_xu, X, Z, kernel_matrix(Z, Z, p),
                                  kernel_matrix(X, Z, p), sq_dists(Z, Z),
                                  sq_dists(X, Z), p)


def test_grad_log_variance_equals_kernel():
    rng = np.random.default_rng(3)
    X, Z = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    p = random_params(rng)
    G = rng.normal(size=(4, 3))
    dlv, _, _ = _kernel_grads(np.zeros((3, 3)), G, X, Z, p)
    assert dlv == pytest.approx(np.sum(G * kernel_matrix(X, Z, p)))


def test_grads_vanish_at_zero_distance():
    p = KernelParams(0.1, -0.2)
    x = np.array([[0.7, -1.1]])
    _, dll, dZ = _kernel_grads(np.ones((1, 1)), np.ones((1, 1)), x, x, p)
    assert np.allclose(dll, 0.0)
    assert np.allclose(dZ, 0.0)


def _fd_kernel_grads(G_uu, G_xu, X, Z, p, h=1e-5):
    def f(lv, ll, Zm):
        q = KernelParams(lv, ll)
        return (np.sum(G_uu * kernel_matrix(Zm, Zm, q))
                + np.sum(G_xu * kernel_matrix(X, Zm, q)))

    lv, ll = p.log_variance, p.log_lengthscale
    dlv = (f(lv + h, ll, Z) - f(lv - h, ll, Z)) / (2 * h)
    dll = (f(lv, ll + h, Z) - f(lv, ll - h, Z)) / (2 * h)
    dZ = np.zeros(Z.shape)
    for j in range(Z.shape[0]):
        for d in range(Z.shape[1]):
            Zp = Z.copy(); Zp[j, d] += h
            Zm = Z.copy(); Zm[j, d] -= h
            dZ[j, d] = (f(lv, ll, Zp) - f(lv, ll, Zm)) / (2 * h)
    return dlv, dll, dZ


def _random_contraction(rng, n, m, d):
    X, Z = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    return rng.normal(size=(m, m)), rng.normal(size=(n, m)), X, Z


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    G_uu, G_xu, X, Z = _random_contraction(rng, 4, 4, 2)
    p = random_params(rng)
    analytic = _kernel_grads(G_uu, G_xu, X, Z, p)
    numeric = _fd_kernel_grads(G_uu, G_xu, X, Z, p)
    for a, f in zip(analytic, numeric):
        assert np.max(np.abs(a - f)) < 1e-6


def test_gradient_fd_property_suite():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        G_uu, G_xu, X, Z = _random_contraction(rng, n, m, d)
        p = random_params(rng)
        analytic = _kernel_grads(G_uu, G_xu, X, Z, p)
        numeric = _fd_kernel_grads(G_uu, G_xu, X, Z, p)
        for a, f in zip(analytic, numeric):
            assert np.max(np.abs(a - f)) < 1e-6


def test_gradients_build_each_distance_matrix_once(monkeypatch):
    # U-U and X-U once each per gradient, shared by the kernel matrices and
    # the chain rule.
    calls = count_calls(monkeypatch, [kernel, bound, agp_vsi], "sq_dists")
    X, y, U, p, ln = random_instance(np.random.default_rng(6), n=12, m=4, d=2)
    bound.weighted_bound_gradients(X, y, U, p, ln, np.ones(12), 1e-6)
    assert calls[0] == 2
    q = agp_vsi.q_from_moments(np.zeros(4), np.eye(4))
    agp_vsi.elbo_gradients(X, y, U, p, ln, q, 0.9, 1e-6)
    assert calls[0] == 4
