import copy
import logging

import numpy as np
import pytest
import scipy.linalg

from adaptive_sgp import (adaptive, agp, agp_vsi, fast_agp, harness, kernel,
                          linalg, optim, vsgp, wvsgp)
from adaptive_sgp.errors import NotPsd
from adaptive_sgp.kernel import KernelParams

from helpers import (b_lam_inv, builds_between, count_calls, make_state,
                     piecewise_sinusoid, record_calls)


def test_adam_defaults():
    opt = agp.adam_params()
    assert opt.lr == 0.05
    assert opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-8


def test_adam_first_step_magnitude():
    opt = optim.Adam(lr=0.05)
    upd = opt.step("p", np.array([3.7, -0.2]))
    # bias-corrected first step is lr * sign(g) up to eps rounding
    assert np.allclose(np.abs(upd), 0.05, atol=1e-6)
    assert np.all(np.sign(upd) == np.sign([3.7, -0.2]))


def test_adam_zero_gradient_is_noop():
    opt = optim.Adam(lr=0.05)
    for _ in range(5):
        upd = opt.step("p", np.zeros(3))
        assert np.allclose(upd, 0.0)


def test_adam_reset_clears_slot():
    opt = optim.Adam(lr=0.05)
    opt.step("p", np.array([1.0]))
    opt.reset("p")
    upd = opt.step("p", np.array([-2.0]))
    assert upd[0] == pytest.approx(-0.05, abs=1e-6)


def test_ascent_step_hyper_slot_matches_three_scalar_slots():
    # One "hyper" slot over [log_variance, log_lengthscale, log_noise] keeps
    # elementwise moments, so it must equal one scalar slot per
    # hyperparameter bit for bit, for gradients spanning 1e-8 to 1e4.
    rng = np.random.default_rng(0)
    opt_a, opt_b = optim.Adam(), optim.Adam()
    U_a = U_b = rng.normal(size=(3, 2))
    p_a = p_b = KernelParams(0.1, -0.2)
    ln_a = ln_b = -1.0
    for _ in range(2000):
        gv = 10.0 ** rng.uniform(-8, 4, size=9) * rng.choice([-1.0, 1.0], size=9)
        g = {"inducing": gv[:6].reshape(3, 2), "log_variance": float(gv[6]),
             "log_lengthscale": float(gv[7]), "log_noise": float(gv[8])}
        U_a, p_a, ln_a = optim.ascent_step(opt_a, g, U_a, p_a, ln_a)
        U_b = U_b + opt_b.step("inducing", g["inducing"])
        p_b = KernelParams(
            log_variance=p_b.log_variance + opt_b.step("log_variance", g["log_variance"]),
            log_lengthscale=p_b.log_lengthscale
            + opt_b.step("log_lengthscale", g["log_lengthscale"]))
        ln_b = ln_b + opt_b.step("log_noise", g["log_noise"])
        assert np.array_equal(U_a, U_b)
        assert p_a == p_b and ln_a == ln_b


@pytest.mark.parametrize("d", [1, 2, 8])
def test_step_updates_only_newest_inducing_row(d):
    # The inference step moves the newest inducing point by Adam on its own
    # row of the full gradient; the rows the prune kept stay in place.  The
    # row's update, taken in Python floats, equals a fresh Adam.step on it
    # bit for bit.
    rng = np.random.default_rng(5)
    st = make_state(rng, t_cur=12, k=4, d=d, lam=0.9, window_t=12)
    ref = copy.deepcopy(st)
    x_new, y_new = rng.normal(size=d), 0.8
    agp.agp_step(st, agp.adam_params(), x_new, y_new)

    fast_agp.windowed_add(ref, x_new, y_new)
    fast_agp.prune_inducing(ref, 1e-4, ref.capacity_m - 1)
    ref.inducing = np.vstack([ref.inducing, ref.window_x[-1:]])
    g = adaptive.adaptive_bound_gradients(ref)
    assert g["inducing"].shape == ref.inducing.shape
    step = optim.Adam().step("inducing", g["inducing"][-1])
    assert np.array_equal(st.inducing[:-1], ref.inducing[:-1])
    assert np.array_equal(st.inducing[-1], ref.inducing[-1] + step)


def _reference_agp_step(st, opt, x_new, y_new):
    """agp_step by hand, with one ``Adam.step`` slot per parameter: the
    newest row on an "inducing" slot reset every step, each hyperparameter
    on a scalar slot of its own that keeps its moments."""
    fast_agp.windowed_add(st, x_new, y_new)
    fast_agp.prune_inducing(st, 1e-4, st.capacity_m - 1)
    st.inducing = np.vstack([st.inducing, st.window_x[-1:]])
    g = adaptive.adaptive_bound_gradients(st)
    opt.reset("inducing")
    st.inducing[-1] = st.inducing[-1] + opt.step("inducing", g["inducing"][-1])
    st.params = KernelParams(
        st.params.log_variance + opt.step("log_variance", g["log_variance"]),
        st.params.log_lengthscale
        + opt.step("log_lengthscale", g["log_lengthscale"]))
    st.log_noise = st.log_noise + opt.step("log_noise", g["log_noise"])
    adaptive.rebuild_caches(st, keep_kxu=False)


def test_two_steps_restart_the_row_and_keep_the_hyperparameter_moments():
    # Over two steps on one optimizer, the newest row's update restarts
    # from fresh moments while the "hyper" slot carries its own into the
    # second step: bit for bit the same as separate Adam.step slots.
    rng = np.random.default_rng(6)
    st = make_state(rng, t_cur=12, k=4, d=2, lam=0.9, window_t=12)
    ref = copy.deepcopy(st)
    opt, ref_opt = agp.adam_params(), agp.adam_params()
    for _ in range(2):
        x_new, y_new = rng.normal(size=2), float(rng.normal())
        agp.agp_step(st, opt, x_new, y_new)
        _reference_agp_step(ref, ref_opt, x_new, y_new)
        assert np.array_equal(st.inducing, ref.inducing)
        assert st.params == ref.params and st.log_noise == ref.log_noise


def test_step_rejects_a_capacity_below_two_before_anything_moves():
    # The prune stops at one point and the step appends the newest, so a
    # capacity of one would silently keep two points.
    rng = np.random.default_rng(7)
    st = make_state(rng, t_cur=12, k=1, d=1, lam=0.9, window_t=12)
    st.capacity_m = 1
    ref = copy.deepcopy(st)
    with pytest.raises(ValueError, match="capacity_m"):
        agp.agp_step(st, agp.adam_params(), np.array([0.3]), 0.8)
    assert np.array_equal(st.window_x, ref.window_x)
    assert np.array_equal(st.window_y, ref.window_y)
    for name in ("inducing", "s_y", "s_k", "kuu", "kuu_inv"):
        assert np.array_equal(getattr(st, name), getattr(ref, name)), name
    assert (st.params, st.log_noise) == (ref.params, ref.log_noise)


def _stationary_stream(rng, n):
    x = rng.uniform(-2, 2, n)
    y = np.sin(2 * x) + 0.15 * rng.normal(size=n)
    return x, y


def test_zero_learning_rate_reduces_to_inference_free_update():
    rng = np.random.default_rng(0)
    # small inducing set so the prune-to-M-1 stage is a no-op for both paths
    st_a = make_state(rng, t_cur=12, k=2, d=1, lam=0.9, window_t=12)
    st_a.capacity_m = 6
    st_b = copy.deepcopy(st_a)
    opt = agp.adam_params(lr=0.0)
    x_new, y_new = np.array([0.3]), 0.8

    _, _, pred_a = agp.agp_step(st_a, opt, x_new, y_new)

    pred_b = adaptive.adaptive_predict(st_b, x_new)
    fast_agp.windowed_add(st_b, x_new, y_new)
    fast_agp.prune_inducing(st_b, 1e-4, st_b.capacity_m - 1)
    fast_agp.maybe_add_inducing(st_b, x_new, -1.0)

    assert pred_a.mean == pytest.approx(pred_b.mean, abs=1e-12)
    assert np.array_equal(st_a.inducing, st_b.inducing)
    probe = np.array([-0.4])
    qa = adaptive.adaptive_predict(st_a, probe)
    qb = adaptive.adaptive_predict(st_b, probe)
    assert qa.mean == pytest.approx(qb.mean, abs=1e-9)
    assert qa.var == pytest.approx(qb.var, abs=1e-9)


def test_noise_tracking_on_stationary_stream():
    # well-specified: targets drawn from a smooth GP sample plus known noise
    from adaptive_sgp.kernel import KernelParams, kernel_matrix
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 400)
    grid = np.linspace(-2.2, 2.2, 40)[:, None]
    p_gen = KernelParams(0.0, 0.0)
    Kgg = kernel_matrix(grid, grid, p_gen) + 1e-8 * np.eye(40)
    fg = np.linalg.cholesky(Kgg) @ rng.normal(size=40)
    f = kernel_matrix(x[:, None], grid, p_gen) @ np.linalg.solve(Kgg, fg)
    sig = 0.3
    y = f + sig * rng.normal(size=400)
    model = vsgp.fit_batch(x[:60, None], y[:60], M=8, iters=150, seed=2)
    st = adaptive.from_batch(model, x[:60, None], y[:60],
                             lam=0.99, window_t=60, capacity_m=8)
    opt = agp.adam_params()
    traj = []
    for i in range(60, 400):
        agp.agp_step(st, opt, x[i], y[i])
        traj.append(st.log_noise)
    gen = np.log(sig ** 2)
    # single per-sample optimizer steps make the pointwise trajectory
    # excursion-prone; the tracking claim is asserted on its time average
    assert abs(np.mean(traj[100:]) - gen) < 0.5


def test_inducing_invariants_and_newest_point_tracking():
    rng = np.random.default_rng(2)
    x, y = _stationary_stream(rng, 120)
    model = vsgp.fit_batch(x[:30, None], y[:30], M=6, iters=50, seed=0)
    st = adaptive.from_batch(model, x[:30, None], y[:30],
                             lam=0.95, window_t=30, capacity_m=6)
    opt = agp.adam_params()
    for i in range(30, 120):
        agp.agp_step(st, opt, x[i], y[i])
        assert 1 <= st.k_inducing <= 6
        # newest inducing point sits within one optimizer step of x_new
        assert abs(st.inducing[-1, 0] - x[i]) <= opt.lr + 1e-12


def test_bound_mostly_improves_on_stationary_stream():
    # Near the optimum a single Adam step of fixed size improves the bound
    # in only some of the steps, so the step is judged against the same
    # step negated: the real update must improve the bound in a majority of
    # steps and the negated one in at most 30% of them.  A sign error or a
    # gradient wired to the wrong parameter swaps or evens out the two.
    rng = np.random.default_rng(3)
    x, y = _stationary_stream(rng, 260)
    model = vsgp.fit_batch(x[:60, None], y[:60], M=8, iters=150, seed=1)
    st = adaptive.from_batch(model, x[:60, None], y[:60],
                             lam=0.99, window_t=60, capacity_m=8)
    opt = agp.adam_params()
    improved = improved_neg = total = 0
    for i in range(60, 260):
        # replicate the pre-optimizer stages, then measure the effect of the
        # single optimizer step on the bound over the updated window
        pre = copy.deepcopy(st)
        agp.agp_step(st, opt, x[i], y[i])
        pre.set_window(st.window_x, st.window_y)
        pre.inducing = st.inducing.copy()
        pre.inducing[-1] = x[i]  # pre-step position of the adopted point
        neg = copy.deepcopy(pre)
        neg.inducing[-1] = 2.0 * pre.inducing[-1] - st.inducing[-1]
        neg.params = KernelParams(
            2.0 * pre.params.log_variance - st.params.log_variance,
            2.0 * pre.params.log_lengthscale - st.params.log_lengthscale)
        neg.log_noise = 2.0 * pre.log_noise - st.log_noise
        before = adaptive.adaptive_bound(pre)
        total += 1
        improved += adaptive.adaptive_bound(st) >= before
        improved_neg += adaptive.adaptive_bound(neg) >= before
    assert improved / total > 0.5
    assert improved_neg / total <= 0.3


def test_step_survives_degenerate_sample():
    rng = np.random.default_rng(4)
    st = make_state(rng, t_cur=10, k=3, d=1, lam=0.9, window_t=10)
    st.capacity_m = 4
    opt = agp.adam_params()
    # repeated identical inputs drive K_uu towards singularity; the stream
    # must continue regardless
    for _ in range(25):
        agp.agp_step(st, opt, np.array([0.5]), 1.0)
    assert np.all(np.isfinite(st.inducing))
    assert np.isfinite(st.log_noise)


def test_step_rebuilds_caches_once(monkeypatch):
    # The prune shrinks the caches, so the rebuild after the optimizer step,
    # which moved the kernel and noise, is the step's only one.  B_lambda is
    # factored once, for the prediction, and never inverted: four
    # factorizations per step (the prediction's, two in the gradient, one in
    # the rebuild) and three inverses (two in the gradient, kuu_inv in the
    # rebuild).  The prediction and the slide share one k(U, x_new).  The
    # first step slides kxu, which from_batch's rebuild keeps, and reads the
    # departing row k(U, x_oldest) from it; the step's update drops kxu, so
    # every later step builds that row as one kernel_column of its own.  No
    # step builds a kernel_matrix.  Inverses come from their factors
    # (inv_from_factor), and the hot path calls neither np.ix_ nor
    # np.linalg.norm.
    X, y = piecewise_sinusoid(160, 1)
    model = vsgp.fit_batch(X[:100], y[:100], M=10, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:100], y[:100],
                             lam=0.97724, window_t=100, capacity_m=10)
    rebuilds = count_calls(monkeypatch, adaptive, "rebuild_caches")
    chol = count_calls(monkeypatch, linalg, "cholesky_psd")
    inverses = count_calls(monkeypatch, linalg, "inv_from_factor")
    refreshes = count_calls(monkeypatch, adaptive, "refresh_b_lam")
    scipy_calls = [count_calls(monkeypatch, scipy.linalg, name)
                   for name in ("cholesky", "cho_solve")]
    wrappers = [count_calls(monkeypatch, np, "ix_"),
                count_calls(monkeypatch, np.linalg, "norm")]
    matrices = count_calls(monkeypatch, kernel, "kernel_matrix")
    kernel_calls = record_calls(monkeypatch, kernel, "kernel_column")
    opt = agp.adam_params()
    for i in range(100, 160):
        before, oldest = st.inducing.copy(), st.window_x[:1].copy()
        del kernel_calls[:]
        agp.agp_step(st, opt, X[i], y[i])
        assert st.kxu is None, i
        assert builds_between(kernel_calls, before, X[i]) == 1, i
        assert builds_between(kernel_calls, before, oldest) == (i > 100), i
        assert builds_between(kernel_calls, before, X[i], oldest) == 0, i
    assert matrices[0] == 0
    assert rebuilds[0] == 60
    assert chol[0] == 240
    assert inverses[0] == 180
    assert refreshes[0] == 60
    assert st.skipped_updates == 0
    # every factorization and solve calls LAPACK directly (linalg)
    assert [c[0] for c in scipy_calls] == [0, 0]
    assert [c[0] for c in wrappers] == [0, 0]


def test_failed_rebuild_restores_the_step_and_continues(monkeypatch):
    # The rebuild after the Adam step fails once: the step puts back the
    # newest inducing point, the kernel and the noise as they were before
    # the Adam step, rebuilds there, counts the lost update, and the stream
    # goes on.
    X, y = piecewise_sinusoid(130, 2)
    model = vsgp.fit_batch(X[:100], y[:100], M=10, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:100], y[:100],
                             lam=0.97724, window_t=100, capacity_m=10)
    rebuild = adaptive.rebuild_caches
    calls = [0]

    def fails_once(state, **kwargs):
        calls[0] += 1
        if calls[0] == 11:
            raise NotPsd("injected")
        rebuild(state, **kwargs)

    monkeypatch.setattr(adaptive, "rebuild_caches", fails_once)
    opt = agp.adam_params()
    for i in range(100, 130):
        params, log_noise = st.params, st.log_noise
        agp.agp_step(st, opt, X[i], y[i])
        if i == 110:
            assert (st.params, st.log_noise) == (params, log_noise)
            assert np.array_equal(st.inducing[-1], X[i])
            fresh = copy.deepcopy(st)
            rebuild(fresh)
            for name in ("s_y", "s_k", "kuu_inv", "kuu"):
                assert np.array_equal(getattr(st, name), getattr(fresh, name)), name
            assert np.array_equal(b_lam_inv(st), b_lam_inv(fresh))
        else:
            assert (st.params, st.log_noise) != (params, log_noise)
    assert calls[0] == 31
    assert st.skipped_updates == 1
    assert st.skipped_samples == 0


def test_full_mode_never_carries_kxu():
    # from_batch's rebuild keeps kxu, and agp_step's update drops it after
    # its rebuild, so full mode never streams with it.
    X, y = piecewise_sinusoid(160, 1)
    model = vsgp.fit_batch(X[:100], y[:100], M=10, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:100], y[:100],
                             lam=0.97724, window_t=100, capacity_m=10)
    opt = agp.adam_params()
    for i in range(100, 160):
        agp.agp_step(st, opt, X[i], y[i])
    assert st.kxu is None


def test_failed_inference_step_is_counted(monkeypatch):
    # Every third gradient fails to factor: the step keeps going and counts
    # the lost update.
    calls = [0]
    gradients = agp.adaptive_bound_gradients

    def flaky(state):
        calls[0] += 1
        if calls[0] % 3 == 0:
            raise NotPsd("injected")
        return gradients(state)

    monkeypatch.setattr(agp, "adaptive_bound_gradients", flaky)
    X, y = piecewise_sinusoid(130, 2)
    model = vsgp.fit_batch(X[:100], y[:100], M=10, iters=50, seed=0)
    st = adaptive.from_batch(model, X[:100], y[:100],
                             lam=0.97724, window_t=100, capacity_m=10)
    opt = agp.adam_params()
    for i in range(100, 130):
        agp.agp_step(st, opt, X[i], y[i])
    assert calls[0] == 30
    assert st.skipped_updates == 10
    assert st.skipped_samples == 0


def _toy_predictions(kind, X, y):
    """Predictions of one model kind's step function over synth_toy past
    the first 100 samples (T=100, M=10), and its state."""
    model = vsgp.fit_batch(X[:100], y[:100], M=10, iters=50, seed=0)
    lam = 1.0 if kind == "w_vsgp" else 0.97724
    st = adaptive.from_batch(model, X[:100], y[:100],
                             lam=lam, window_t=100, capacity_m=10)
    opt = agp.adam_params()
    q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, model.jitter)
    preds = []
    for i in range(100, y.shape[0]):
        if kind == "agp":
            pred = agp.agp_step(st, opt, X[i], y[i])[2]
        elif kind == "fast_agp":
            pred = fast_agp.fast_agp_step(st, X[i], y[i])[1]
        elif kind == "agp_vsi":
            pred = agp_vsi.agp_vsi_step(st, q, opt, X[i], y[i], 10)[3]
        else:
            pred = wvsgp.wvsgp_step(st, opt, X[i], y[i], 10)[2]
        preds.append((pred.mean, pred.var))
    return np.array(preds), st


# The baselines retrain for 10 iterations per sample, so they stream only
# the 60 samples after the batch window; the corrupt sample is the 31st.
STREAM_LEN = {"fast_agp": 500, "agp": 500, "agp_vsi": 160, "w_vsgp": 160}


# An inf input must never reach the kernel, where its distances would
# raise (under this filter) invalid-value RuntimeWarnings.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["fast_agp", "agp", "agp_vsi", "w_vsgp"])
@pytest.mark.parametrize("corrupt", ["nan_y", "inf_x"])
def test_non_finite_sample_is_skipped_as_if_deleted(kind, corrupt, caplog):
    t, y = harness.synth_toy(seed=0)
    n = STREAM_LEN[kind]
    X, y = t[:n, None], y[:n]
    bad = 250 if n == 500 else 130     # stream step 150 or 30
    Xc, yc = X.copy(), y.copy()
    if corrupt == "nan_y":
        yc[bad] = np.nan
    else:
        Xc[bad, 0] = np.inf
    with caplog.at_level(logging.WARNING, logger="adaptive_sgp.adaptive"):
        got, st = _toy_predictions(kind, Xc, yc)
    ref, st_ref = _toy_predictions(kind, np.delete(X, bad, axis=0),
                                   np.delete(y, bad))
    step = bad - 100
    assert np.array_equal(got[:step], ref[:step])
    assert np.array_equal(got[step + 1:], ref[step:])
    # a bad target still gets its prediction; a bad input predicts NaN
    assert np.isfinite(got[step]).all() == (corrupt == "nan_y")
    assert np.isnan(got[step]).all() == (corrupt == "inf_x")
    assert st.skipped_samples == 1 and st_ref.skipped_samples == 0
    assert [r.levelno for r in caplog.records
            if r.name == "adaptive_sgp.adaptive"] == [logging.WARNING]
