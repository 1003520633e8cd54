import copy
import dataclasses
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from adaptive_sgp import (adaptive, agp_vsi, bound, harness, kernel, linalg,
                          vsgp, wvsgp)
from adaptive_sgp.errors import DimensionMismatch
from adaptive_sgp.kernel import KernelParams, kernel_matrix, sq_dists
from adaptive_sgp.optim import Adam

from helpers import (count_calls, random_instance, random_params,
                     reference_bound_gradients, rel)


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


# kernel_column is kernel_matrix for one point, without its temporaries.


def _column_case(rng, d):
    n = int(rng.integers(1, 50))
    scale = 10.0 ** rng.uniform(-2.0, 3.0)
    X = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
    x = rng.uniform(-1.0, 1.0, size=d) * scale
    p = KernelParams(float(rng.uniform(-2.0, 2.0)),
                     float(np.log(scale) + rng.uniform(-2.0, 1.0)))
    return X, x, p


def test_kernel_column_equals_kernel_matrix_bit_for_bit_at_d1():
    rng = np.random.default_rng(20)
    for i in range(3000):
        X, x, p = _column_case(rng, 1)
        assert np.array_equal(kernel.kernel_column(X, x, p),
                              kernel_matrix(X, x[None], p).ravel()), i


@pytest.mark.parametrize("d", range(2, 9))
def test_kernel_column_matches_kernel_matrix_at_d2_to_d8(d):
    rng = np.random.default_rng(21 + d)
    for i in range(300):
        X, x, p = _column_case(rng, d)
        col = kernel.kernel_column(X, x, p)
        assert col.shape == (X.shape[0],)
        dev = np.max(np.abs(col - kernel_matrix(X, x[None], p).ravel()))
        assert dev <= 1e-12 * p.variance, i


# bound._window_setup builds one distance matrix, [X; U] to U; its blocks
# are what separate calls would give.


def _check_window_setup(rng, d, tol):
    n, m = int(rng.integers(1, 501)), int(rng.integers(1, 51))
    X, y, U, p, ln = random_instance(rng, n=n, m=m, d=d)
    s = bound._window_setup(X, y, U, p, ln, np.ones(n), 1e-6)
    d2_uu, d2_xu = sq_dists(U, U), sq_dists(X, U)
    Kuu_raw = kernel._from_sq_dists(d2_uu, p)
    Kuu = Kuu_raw + 1e-6 * np.eye(m)
    if s.f_k.jitter_used:
        Kuu = Kuu + s.f_k.jitter_used * np.eye(m)
    pairs = ((s.d2_xu, d2_xu), (s.d2_uu, d2_uu), (s.Kuu_raw, Kuu_raw),
             (s.Kxu, kernel._from_sq_dists(d2_xu, p)), (s.Kuu, Kuu))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_window_setup_blocks_equal_separate_calls_at_d1():
    rng = np.random.default_rng(32)
    for _ in range(200):
        _check_window_setup(rng, 1, 0.0)


@pytest.mark.parametrize("d", range(2, 9))
def test_window_setup_blocks_match_separate_calls_at_d2_to_d8(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(30):
        _check_window_setup(rng, d, 1e-15)


# At D=1 a distance is (x - z)^2: within three roundings of the exact value
# (the difference's, twice over in the square, and the square's own; 3.4e-16
# relative), however large the inputs are next to their gap.  The Gram form (x^2 + z^2) - 2xz read 0 for 513 of these 1200 distinct
# pairs, with a worst relative error of 3.2e12.


def _close_pairs():
    rng = np.random.default_rng(50)
    offset = 10.0 ** rng.uniform(0.0, 3.0, size=1200)
    gap = 10.0 ** rng.uniform(-12.0, 0.0, size=1200)
    x, z = offset, offset + gap * rng.choice([-1.0, 1.0], size=1200)
    assert np.all(x != z)
    exact = [(Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, z)]
    return x, z, exact


def _rel_err(got, exact):
    return abs(Fraction(float(got)) - exact) / exact


def test_d1_sq_dists_match_exact_rationals_on_close_pairs():
    x, z, exact = _close_pairs()
    d2 = sq_dists(x, z).diagonal()
    assert np.all(d2 > 0.0)
    assert max(_rel_err(g, e) for g, e in zip(d2, exact)) <= 3.4e-16


def test_d1_kernel_column_matches_exact_rationals_on_close_pairs():
    # With the lengthscale at each pair's gap the kernel reads about
    # variance * exp(-1/2), so a distance read as 0 would show as the
    # variance itself.
    x, z, exact = _close_pairs()
    for a, b, e in zip(x, z, exact):
        p = KernelParams(0.2, float(np.log(abs(a - b))))
        k = kernel.kernel_column(np.array([a]), np.array([b]), p)[0]
        want = p.variance * np.exp(-0.5 * float(e) / p.lengthscale**2)
        assert k < p.variance
        assert abs(k - want) <= 1e-15 * want


def test_kernel_column_rejects_a_point_of_another_dimension():
    p = KernelParams(0.0, 0.0)
    for x in (np.zeros(3), np.zeros(1)):
        with pytest.raises(DimensionMismatch):
            kernel.kernel_column(np.zeros((4, 2)), x, p)


def test_kernel_column_is_exactly_zero_far_away_without_warnings():
    p = KernelParams(0.3, 0.0)
    X = np.array([[0.0, 0.0], [1e3, 0.0], [0.0, -1e8], [1e100, 1e100]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        col = kernel.kernel_column(X, np.zeros(2), p)
    assert col[0] == p.variance
    assert np.array_equal(col[1:], np.zeros(3))


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
    # _chain_to_params overwrites its G_xu.
    return bound._chain_to_params(G_uu, G_xu.copy(), X, Z,
                                  kernel_matrix(Z, Z, p),
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
    # One distance matrix per gradient, [X; U] to U, whose row blocks are
    # X-U and U-U, shared by the kernel matrices and the chain rule.
    calls = count_calls(monkeypatch, kernel, "sq_dists")
    X, y, U, p, ln = random_instance(np.random.default_rng(6), n=12, m=4, d=2)
    bound.weighted_bound_gradients(X, y, U, p, ln, np.ones(12), 1e-6)
    assert calls[0] == 1
    q = agp_vsi.q_from_moments(np.zeros(4), np.eye(4))
    agp_vsi.elbo_gradients(X, y, U, p, ln, q, 0.9, 1e-6)
    assert calls[0] == 2


def test_fit_batch_builds_each_distance_matrix_once(monkeypatch):
    # 200 gradients at 1 each, and the final set-up's 1, whose jittered Kuu
    # the cached inverse reuses.  A sliding-window step adds 5 gradients at
    # 1 each and its rebuild's 1.  Its kernel rows build no distance matrix:
    # k(U, x_new) is a kernel_column, and the departing row is kxu[0], which
    # from_batch's rebuild keeps.
    calls = count_calls(monkeypatch, kernel, "sq_dists")
    X, y, U, p, ln = random_instance(np.random.default_rng(7), n=30, m=5, d=2)
    model = vsgp.fit_batch(X, y, 5, 200, seed=0)
    assert calls[0] == 201
    state = adaptive.from_batch(model, X, y, 1.0, 30, 5)
    assert calls[0] == 201 + 1          # from_batch's rebuild
    assert state.kxu is not None
    wvsgp.wvsgp_step(state, Adam(), X[0], y[0], inner_iters=5)
    assert calls[0] == 201 + 1 + 6


@pytest.mark.parametrize("d", [1, 3, 8])
def test_gradients_match_term_by_term_reference(d):
    # The one-product dF/dKxu, its in-place rank-one term and the in-place
    # chain rule equal the term-by-term assembly, on well-conditioned
    # problems (cond(Kuu) <= 1e3), with unit and geometric weights.
    rng = np.random.default_rng(40 + d)
    checked = 0
    for _ in range(100):
        X, y, U, p, ln = random_instance(rng, d=d)
        p = KernelParams(p.log_variance, p.log_lengthscale + 0.5 * np.log(d))
        Kuu = kernel_matrix(U, U, p) + 1e-6 * np.eye(U.shape[0])
        if np.linalg.cond(Kuu) > 1e3:
            continue
        n = y.shape[0]
        lam = float(rng.uniform(0.7, 1.0))
        for w in (np.ones(n), adaptive.lambda_weights(n, lam)):
            got = bound.weighted_bound_gradients(X, y, U, p, ln, w, 1e-6)
            ref = reference_bound_gradients(X, y, U, p, ln, w, 1e-6)
            for key in ref:
                assert rel(got[key], ref[key]) < 1e-10, (key, w[0])
        checked += 1
    assert checked >= 20


def test_gradients_leave_their_inputs_unchanged():
    # The gradients work in place on their own arrays only.
    rng = np.random.default_rng(8)
    X, y, U, p, ln = random_instance(rng, n=15, m=4, d=3)
    w = adaptive.lambda_weights(15, 0.9).copy()
    q = agp_vsi.q_from_moments(rng.normal(size=4), np.eye(4))
    before = [a.copy() for a in (X, y, U, w)]
    bound.weighted_bound_gradients(X, y, U, p, ln, w, 1e-6)
    agp_vsi.elbo_gradients(X, y, U, p, ln, q, 0.9, 1e-6)
    for a, b in zip((X, y, U, w), before):
        assert np.array_equal(a, b)


def test_kernel_params_cache_exp_of_their_fields():
    for lv, ll in [(0.0, 0.0), (np.log(2.3), 0.4), (-3.1, 1.7), (5.0, -2.5)]:
        p = KernelParams(lv, ll)
        assert p.variance == float(np.exp(lv))
        assert p.lengthscale == float(np.exp(ll))
        # a second read returns the kept value
        assert p.variance is p.variance


def test_kernel_params_equality_and_hash_use_fields_only():
    a, b = KernelParams(0.3, -0.7), KernelParams(0.3, -0.7)
    assert a.variance > 0 and a.lengthscale > 0     # now cached on a only
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != KernelParams(0.3, -0.6)
    for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
              copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert c == a and hash(c) == hash(a)
        assert c.variance == a.variance and c.lengthscale == a.lengthscale
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.log_variance = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.log_lengthscale = 1.0


def _bits(obj):
    """A bit-exact, comparable image of a result, timings left out."""
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    if dataclasses.is_dataclass(obj):
        return {f.name: _bits(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.name not in ("elapsed_us", "total_time_us")}
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _one_d_call(name):
    """``(call, X, U)``: ``call(X, U)`` runs function ``name`` on a random
    1-D instance with N x 1 inputs ``X`` and M x 1 inducing points ``U``
    (which the last three functions do not take)."""
    X, y, U, p, ln = random_instance(np.random.default_rng(7), n=30, m=4, d=1)
    w = adaptive.lambda_weights(30, 0.9)
    q = agp_vsi.q_from_moments(np.linspace(-1.0, 1.0, 4), 0.3 * np.eye(4))
    model = vsgp.fit_batch(X, y, 4, 5, seed=0)
    config = harness.ExperimentConfig(window_t=20, capacity_m=4, init_iters=5)
    calls = {
        "kernel_matrix": lambda X, U: kernel_matrix(X, U, p),
        "weighted_bound": lambda X, U: bound.weighted_bound(
            X, y, U, p, ln, w, 1e-6),
        "weighted_bound_gradients": lambda X, U: bound.weighted_bound_gradients(
            X, y, U, p, ln, w, 1e-6),
        "optimal_q": lambda X, U: vsgp.optimal_q(X, y, U, p, ln),
        "elbo_lambda": lambda X, U: agp_vsi.elbo_lambda(
            X, y, U, p, ln, q, 0.9),
        "elbo_gradients": lambda X, U: agp_vsi.elbo_gradients(
            X, y, U, p, ln, q, 0.9),
        "fit_batch": lambda X, _: vsgp.fit_batch(X, y, 4, 5, seed=0),
        "from_batch": lambda X, _: adaptive.from_batch(model, X, y, 0.9, 30, 4),
        "run_experiment": lambda X, _: harness.run_experiment(config, X, y),
    }
    return calls[name], X, U


TAKES_U = ("kernel_matrix", "weighted_bound", "weighted_bound_gradients",
           "optimal_q", "elbo_lambda", "elbo_gradients")


@pytest.mark.parametrize(
    "name", TAKES_U + ("fit_batch", "from_batch", "run_experiment"))
def test_one_d_inputs_are_n_points_of_dimension_one(name):
    # A 1-D data or inducing array is N inputs of dimension 1, bit for bit.
    call, X, U = _one_d_call(name)
    ref = _bits(call(X, U))
    assert _bits(call(X.ravel(), U)) == ref
    if name in TAKES_U:
        assert _bits(call(X, U.ravel())) == ref
        assert _bits(call(X.ravel(), U.ravel())) == ref
