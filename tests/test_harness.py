import dataclasses

import numpy as np
import pytest

from adaptive_sgp import (adaptive, agp, agp_vsi, fast_agp, harness, kernel,
                          vsgp, wvsgp)
from adaptive_sgp.adaptive import lambda_weights, rebuild_caches
from adaptive_sgp.errors import (DimensionMismatch, EmptyRecords, InvalidLambda,
                                 MapeUndefined, TooShort)
from adaptive_sgp.harness import (ExperimentConfig, StreamRecord, ci95_coverage,
                                  lag_embed, mape, mse, run_experiment,
                                  summarize, synth_toy, toy_signal,
                                  transition_mse)

from helpers import builds_between, count_calls, make_state, record_calls


def _rec(y_true, pred_mean, pred_var=0.1, noise_var=0.1, x=0.0):
    return StreamRecord(step=0, x=np.atleast_1d(np.asarray(x, dtype=float)),
                        y_true=y_true, pred_mean=pred_mean, pred_var=pred_var,
                        noise_var=noise_var, k_inducing=1, elapsed_us=0)


# ---------------------------------------------------------------------------
# the inducing-addition threshold w_ksum / T that fast_agp_step uses


def test_threshold_unit_variance_no_forgetting():
    # With lambda = 1 and unit kernel variance, the weighted diagonal sum is
    # exactly T, so the threshold is 1.
    st = make_state(np.random.default_rng(0), t_cur=12, k=3, d=2, lam=1.0)
    st.params = dataclasses.replace(st.params, log_variance=0.0)
    rebuild_caches(st)
    assert st.w_ksum == pytest.approx(12.0, rel=1e-12)


def test_threshold_matches_direct_weighted_sum():
    for seed in range(10):
        st = make_state(np.random.default_rng(seed), t_cur=9, k=4, d=2,
                        lam=0.85)
        w = lambda_weights(9, 0.85)
        expected = st.params.variance * np.sum(w)
        assert st.w_ksum == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# synthetic stream


def test_synth_toy_shape_and_support():
    t, y = synth_toy(seed=0)
    assert t.shape == (500,) and y.shape == (500,)
    assert np.all(np.diff(t[:300]) >= 0) and np.all(np.diff(t[300:]) >= 0)
    assert t.min() >= 0.0 and t.max() <= 5.0
    assert np.all(t[:300] <= 3.0) and np.all(t[300:] >= 3.0)


def test_toy_signal_regime_forms():
    # First regime: amplitude ramps 0.5 -> 2 linearly, frequency 4.
    for t in (0.0, 0.7, 1.5, 2.4, 3.0):
        amp = 0.5 + 1.5 * t / 3.0
        assert toy_signal(np.array([t]))[0] == pytest.approx(
            amp * np.sin(4.0 * t), abs=1e-12)
    # Second regime: fixed amplitude 2, frequency 8.
    for t in (3.01, 3.8, 4.5, 5.0):
        assert toy_signal(np.array([t]))[0] == pytest.approx(
            2.0 * np.sin(8.0 * t), abs=1e-12)


def test_synth_toy_noise_moments():
    # Aggregate residuals from many seeds: ~1e5 samples of N(0, 0.2^2).
    resid = []
    for seed in range(200):
        t, y = synth_toy(seed)
        resid.append(y - toy_signal(t))
    resid = np.concatenate(resid)
    n = resid.size
    assert n == 200 * 500
    assert abs(resid.mean()) < 3.0 * 0.2 / np.sqrt(n)
    assert resid.std() == pytest.approx(0.2, rel=0.02)


def test_synth_toy_deterministic_per_seed():
    t1, y1 = synth_toy(7)
    t2, y2 = synth_toy(7)
    assert np.array_equal(t1, t2) and np.array_equal(y1, y2)
    t3, _ = synth_toy(8)
    assert not np.array_equal(t1, t3)


def test_synth_toy_grid_is_evenly_spaced():
    t, _ = synth_toy(0, grid=True)
    assert np.allclose(np.diff(t[:300]), 0.01)
    assert np.allclose(np.diff(t[301:]), 0.01)


# ---------------------------------------------------------------------------
# lag embedding


def test_lag_embed_hand_example():
    X, y = lag_embed([1.0, 2.0, 3.0, 4.0, 5.0], lags=2, horizon=1)
    assert np.array_equal(X, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    assert np.array_equal(y, [3.0, 4.0, 5.0])


def test_lag_embed_row_count_and_alignment():
    rng = np.random.default_rng(0)
    s = rng.normal(size=40)
    for lags in (1, 3, 5):
        for horizon in (1, 2, 4):
            X, y = lag_embed(s, lags, horizon)
            rows = 40 - lags - horizon + 1
            assert X.shape == (rows, lags) and y.shape == (rows,)
            for i in (0, rows - 1):
                assert np.array_equal(X[i], s[i:i + lags])
                assert y[i] == s[i + lags - 1 + horizon]


def test_lag_embed_rejects_bad_inputs():
    with pytest.raises(TooShort):
        lag_embed([1.0, 2.0, 3.0], lags=2, horizon=0)
    with pytest.raises(TooShort):
        lag_embed([1.0, 2.0, 3.0], lags=3, horizon=1)
    for lags in (0, -1):
        with pytest.raises(TooShort, match="lags"):
            lag_embed(np.arange(20.0), lags=lags, horizon=1)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_constant_series():
    x = np.linspace(0.0, 5.0, 120)
    y = np.full(120, 0.7)
    cfg = ExperimentConfig(model_kind="agp", window_t=40, capacity_m=5, seed=0)
    records, summary = run_experiment(cfg, x, y)
    assert summary.n_steps == 80
    assert summary.mse < 1e-3


def test_run_experiment_deterministic_except_timing():
    t, y = synth_toy(3)
    cfg = ExperimentConfig(model_kind="fast_agp", window_t=50, capacity_m=6,
                           seed=3)
    rec1, sum1 = run_experiment(cfg, t[:150], y[:150])
    rec2, sum2 = run_experiment(cfg, t[:150], y[:150])
    for a, b in zip(rec1, rec2):
        assert a.pred_mean == b.pred_mean and a.pred_var == b.pred_var
        assert a.noise_var == b.noise_var and a.k_inducing == b.k_inducing
        assert np.array_equal(a.x, b.x) and a.y_true == b.y_true
    assert sum1.mse == sum2.mse and sum1.ci95_coverage == sum2.ci95_coverage


def test_run_experiment_is_prequential():
    # Each prediction may depend only on earlier samples: truncating the
    # stream cannot change the predictions already made.
    t, y = synth_toy(1)
    cfg = ExperimentConfig(model_kind="agp", window_t=40, capacity_m=5, seed=1)
    full, _ = run_experiment(cfg, t[:120], y[:120])
    short, _ = run_experiment(cfg, t[:90], y[:90])
    assert len(short) == 50 and len(full) == 80
    for a, b in zip(full[:50], short):
        assert a.pred_mean == b.pred_mean and a.pred_var == b.pred_var


def _hand_stream(kind, cfg, X, y):
    """The prequential loop written out over the public step functions:
    (pred_mean, pred_var, noise_var, k_inducing) per streamed sample."""
    T = cfg.window_t
    model = vsgp.fit_batch(X[:T], y[:T], cfg.capacity_m, cfg.init_iters,
                           seed=harness.derive_seed(cfg.seed, "inducing"),
                           lr=cfg.lr, jitter=cfg.jitter)
    opt = agp.adam_params(lr=cfg.lr)
    lam = 1.0 if kind == "w_vsgp" else cfg.resolved_lambda()
    state = adaptive.from_batch(model, X[:T], y[:T], lam, T, cfg.capacity_m)
    q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, cfg.jitter)
    out = []
    for x_new, y_new in zip(X[T:], y[T:]):
        if kind == "w_vsgp":
            _, _, pred = wvsgp.wvsgp_step(state, opt, x_new, y_new,
                                          cfg.inner_iters)
        elif kind == "fast_agp":
            _, pred = fast_agp.fast_agp_step(state, x_new, y_new, cfg.r_th)
        elif kind == "agp":
            _, _, pred = agp.agp_step(state, opt, x_new, y_new, cfg.r_th)
        else:
            _, _, _, pred = agp_vsi.agp_vsi_step(state, q, opt, x_new, y_new,
                                                 cfg.inner_iters)
        out.append((pred.mean, pred.var, state.noise_var, state.k_inducing))
    return out


@pytest.mark.parametrize("kind", ["fast_agp", "agp", "agp_vsi", "w_vsgp"])
def test_run_experiment_matches_hand_loop(kind):
    t, y = synth_toy(seed=0)
    X = t[:, None]
    cfg = ExperimentConfig(model_kind=kind, window_t=100, capacity_m=10,
                           seed=0)
    n = 100 + 12
    records, _ = run_experiment(cfg, X[:n], y[:n])
    ours = [(r.pred_mean, r.pred_var, r.noise_var, r.k_inducing)
            for r in records]
    assert ours == _hand_stream(kind, cfg, X[:n], y[:n])


@pytest.mark.parametrize("kind, per_step, refreshes", [
    pytest.param("fast_agp", 0, 1, id="fast_agp-0"),
    pytest.param("agp", 1, 1, id="agp-1"),
    pytest.param("agp_vsi", 1, 0, id="agp_vsi-1"),
    pytest.param("w_vsgp", 1, 1, id="w_vsgp-1")])
def test_rebuild_budget_per_step(monkeypatch, kind, per_step, refreshes):
    # Fast mode moves its caches exactly and never rebuilds them; every
    # other kind rebuilds once per step, after its parameter update.  All
    # four kinds share one opening (fast_agp._predict_and_slide), which
    # builds one kernel row k(U, x_new) per step for the prediction, the
    # slide and fast mode's admission.  The departing row is kxu[0] while
    # kxu is carried (fast mode always, the others until their first
    # update), else one kernel_column of its own; no step builds a
    # kernel_matrix.  The three kinds that predict from the caches factor
    # B_lambda once per step; agp_vsi predicts from its explicit q and
    # never does.
    t, y = synth_toy(seed=0)
    X = t[:, None]
    cfg = ExperimentConfig(model_kind=kind, window_t=100, capacity_m=10,
                           init_iters=20, inner_iters=3, seed=0)
    states = []
    from_batch = adaptive.from_batch

    def kept(*args):
        states.append(from_batch(*args))
        return states[-1]

    monkeypatch.setattr(adaptive, "from_batch", kept)
    step = harness._stepper(cfg, X[:100], y[:100])
    rebuilds = count_calls(monkeypatch, adaptive, "rebuild_caches")
    refresh = count_calls(monkeypatch, adaptive, "refresh_b_lam")
    matrices = count_calls(monkeypatch, kernel, "kernel_matrix")
    kernel_calls = record_calls(monkeypatch, kernel, "kernel_column")
    carried_steps = 0
    for i in range(100, 130):
        st = states[0]
        before, oldest = st.inducing.copy(), st.window_x[:1].copy()
        carried = st.kxu is not None
        carried_steps += carried
        del kernel_calls[:]
        step(X[i], y[i])
        assert builds_between(kernel_calls, before, X[i]) == 1, i
        assert builds_between(kernel_calls, before, oldest) == (
            not carried), i
        assert builds_between(kernel_calls, before, X[i], oldest) == 0, i
        assert (st.kxu is not None) == (kind == "fast_agp"), i
    assert carried_steps == (30 if kind == "fast_agp" else 1)
    assert matrices[0] == 0
    assert rebuilds[0] == 30 * per_step
    assert refresh[0] == 30 * refreshes


def test_agp_capacity_must_be_at_least_two():
    # The prune stops at one point before the newest is appended, so agp at
    # capacity 1 would hold 2 points; the config rejects it by name.
    with pytest.raises(ValueError, match="capacity_m"):
        ExperimentConfig(model_kind="agp", window_t=20, capacity_m=1)
    for kind in ("fast_agp", "agp_vsi", "w_vsgp"):
        ExperimentConfig(model_kind=kind, window_t=20, capacity_m=1)
    ExperimentConfig(model_kind="agp", window_t=20, capacity_m=2)


def test_run_experiment_rejects_short_input():
    cfg = ExperimentConfig(window_t=50, capacity_m=5)
    with pytest.raises(TooShort):
        run_experiment(cfg, np.arange(50.0), np.arange(50.0))


def test_run_experiment_rejects_mismatched_lengths_before_fitting(monkeypatch):
    # zip() would stream only as many samples as the shorter array holds
    # and drop the rest without a word.
    def fit_batch(*args, **kwargs):
        raise AssertionError("fit_batch called on mismatched inputs")

    monkeypatch.setattr(vsgp, "fit_batch", fit_batch)
    t, y = synth_toy(0)
    cfg = ExperimentConfig(model_kind="fast_agp", window_t=50, capacity_m=5)
    with pytest.raises(DimensionMismatch, match="120.*200"):
        run_experiment(cfg, t[:120], y[:200])
    with pytest.raises(DimensionMismatch, match="200.*120"):
        run_experiment(cfg, t[:200], y[:120])


@pytest.mark.parametrize("kind", harness.MODEL_KINDS)
def test_every_kind_streams_the_same_samples(monkeypatch, kind):
    # One prequential loop for every kind: each scores the samples after
    # the first T, with the data's inputs.  Persistence fits no model and
    # guesses the previous finite target, carried past a NaN.
    t, y = synth_toy(0)
    X, y = t[:60, None], y[:60]
    y[30] = np.nan
    if kind == "persistence":
        def fit_batch(*args, **kwargs):
            raise AssertionError("fit_batch called for persistence")

        monkeypatch.setattr(vsgp, "fit_batch", fit_batch)
    cfg = ExperimentConfig(model_kind=kind, window_t=20, capacity_m=5,
                           init_iters=5, inner_iters=1)
    records, _ = run_experiment(cfg, X, y)
    assert [r.step for r in records] == list(range(40))
    assert all(np.array_equal(r.x, X[20 + r.step]) for r in records)
    assert np.array_equal([r.y_true for r in records], y[20:], equal_nan=True)
    if kind == "persistence":
        # Each guess is the previous target, but sample 31 follows the NaN
        # at 30 and gets sample 29's.
        guesses = y[19:59].copy()
        guesses[31 - 20] = y[29]
        assert [r.pred_mean for r in records] == guesses.tolist()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model_kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(window_t=5, capacity_m=6)
    with pytest.raises(InvalidLambda):
        ExperimentConfig(lam=0.0)
    with pytest.raises(InvalidLambda):
        ExperimentConfig(lam=1.5)
    assert ExperimentConfig(window_t=100).resolved_lambda() == pytest.approx(
        0.1 ** 0.01, rel=1e-15)


@pytest.mark.parametrize("field, value", [
    ("init_iters", -5), ("inner_iters", -3), ("lr", -1.0), ("lr", 0.0),
    ("lr", float("nan")), ("lr", float("inf")), ("r_th", -1.0),
    ("r_th", float("nan")), ("jitter", -1.0)])
def test_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_accepts_zero_iterations_and_thresholds():
    cfg = ExperimentConfig(init_iters=0, inner_iters=0, r_th=0.0, jitter=0.0)
    assert cfg.init_iters == cfg.inner_iters == 0


# ---------------------------------------------------------------------------
# metrics


def test_mse_hand_value():
    recs = [_rec(1.0, 0.0), _rec(0.0, 1.0)]
    assert mse(recs) == pytest.approx(1.0, rel=1e-15)


def test_mape_hand_value():
    recs = [_rec(2.0, 1.0), _rec(4.0, 5.0)]
    # |1/2| and |1/4| average to 0.375 -> 37.5 percent.
    assert mape(recs) == pytest.approx(37.5, rel=1e-12)


def test_metrics_reject_empty_records():
    for fn in (mse, mape, ci95_coverage):
        with pytest.raises(EmptyRecords):
            fn([])
    with pytest.raises(EmptyRecords):
        transition_mse([])


def test_mape_undefined_near_zero_target():
    with pytest.raises(MapeUndefined):
        mape([_rec(0.0, 1.0)])


def test_ci95_coverage_exact_predictions():
    recs = [_rec(float(v), float(v)) for v in range(5)]
    assert ci95_coverage(recs) == 100.0


def test_ci95_coverage_band_form():
    # err = 0.5; pred_var + noise_var = 0.09, so the band 2*sqrt(0.09) = 0.6
    # covers it.
    recs = [_rec(0.5, 0.0, pred_var=0.05, noise_var=0.04)]
    assert ci95_coverage(recs) == 100.0


def test_summarize_fields():
    recs = [_rec(1.0, 1.0), _rec(2.0, 2.0)]
    s = summarize(recs)
    assert s.mse == 0.0 and s.n_steps == 2 and s.mape == 0.0
    assert s.ci95_coverage == 100.0
    # Records with no predictive variance (the persistence baseline's) get
    # no coverage.
    s2 = summarize([_rec(1.0, 1.0, pred_var=np.nan, noise_var=np.nan)] * 2)
    assert s2.ci95_coverage is None and s2.mse == 0.0
    s3 = summarize([_rec(0.0, 0.0)])
    assert s3.mape is None


@pytest.mark.parametrize("kind", ["fast_agp", "agp", "agp_vsi", "w_vsgp"])
def test_skipped_samples_are_not_scored(kind):
    # The stream skips a NaN target and an inf input as if they had never
    # arrived, so the run scores exactly what the run without them scores.
    t, y = synth_toy(seed=0)
    X = t[:, None]
    X_bad, y_bad = X.copy(), y.copy()
    y_bad[200], X_bad[300] = np.nan, np.inf
    keep = np.setdiff1d(np.arange(y.shape[0]), [200, 300])
    cfg = ExperimentConfig(model_kind=kind, inner_iters=2, seed=0)
    records, with_bad = run_experiment(cfg, X_bad, y_bad)
    _, without = run_experiment(cfg, X[keep], y[keep])
    assert len(records) == 400 and with_bad.n_steps == 400
    for name in ("mse", "ci95_coverage", "mape"):
        assert getattr(with_bad, name) == getattr(without, name), name


# ---------------------------------------------------------------------------
# persistence baseline and transition window

# A one-sample window: persistence streams from the second sample on.
PERSIST_1 = ExperimentConfig(model_kind="persistence", window_t=1, capacity_m=1)


def _persist(series):
    return run_experiment(PERSIST_1, np.arange(len(series), dtype=float),
                          series)[0]


def test_persistence_constant_series_zero_mse():
    assert mse(_persist(np.full(20, 3.3))) == 0.0


def test_persistence_hand_example():
    recs = _persist([1.0, 2.0, 3.0])
    assert [r.pred_mean for r in recs] == [1.0, 2.0]
    assert [r.y_true for r in recs] == [2.0, 3.0]


def test_persistence_carries_the_last_finite_value():
    recs = _persist([1.0, np.nan, np.inf, 4.0, 5.0])
    assert [r.pred_mean for r in recs] == [1.0, 1.0, 1.0, 4.0]


def test_persistence_rejects_short_series():
    with pytest.raises(TooShort):
        _persist([1.0])


def test_transition_mse_filters_by_input():
    recs = [_rec(1.0, 0.0, x=3.3), _rec(1.0, 1.0, x=2.0), _rec(2.0, 2.0, x=3.25)]
    assert transition_mse(recs) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(EmptyRecords):
        transition_mse([_rec(0.0, 0.0, x=1.0)])


def test_transition_mse_rejects_multi_dimensional_inputs():
    # The window is a range of the time input; a lag embedding's first
    # coordinate is the oldest lag value, not the time.
    with pytest.raises(DimensionMismatch):
        transition_mse([_rec(1.0, 0.0, x=[0.0, 3.3])])
