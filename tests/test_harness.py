import dataclasses

import numpy as np
import pytest

from adaptive_sgp import (adaptive, agp, agp_vsi, fast_agp, harness, vsgp,
                          wvsgp)
from adaptive_sgp.adaptive import lambda_weights, rebuild_caches
from adaptive_sgp.errors import EmptyRecords, InvalidLambda, MapeUndefined, TooShort
from adaptive_sgp.harness import (ExperimentConfig, StreamRecord, ci95_coverage,
                                  lag_embed, mape, mse, persistence_baseline,
                                  run_experiment, summarize, synth_toy,
                                  toy_signal, transition_mse)

from helpers import make_state


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
    wx, wy = X[:T].copy(), y[:T].copy()
    state = adaptive.from_batch(model, X[:T], y[:T], cfg.resolved_lambda(),
                                T, cfg.capacity_m)
    q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, cfg.jitter)
    out = []
    for x_new, y_new in zip(X[T:], y[T:]):
        if kind == "w_vsgp":
            model, opt, wx, wy, pred = wvsgp.wvsgp_step(
                model, opt, wx, wy, x_new, y_new, cfg.inner_iters)
            out.append((pred.mean, pred.var, float(np.exp(model.log_noise)),
                        model.inducing.shape[0]))
            continue
        if kind == "fast_agp":
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


def test_run_experiment_rejects_short_input():
    cfg = ExperimentConfig(window_t=50, capacity_m=5)
    with pytest.raises(TooShort):
        run_experiment(cfg, np.arange(50.0), np.arange(50.0))


def test_run_experiment_rejects_persistence_before_fitting(monkeypatch):
    def fit_batch(*args, **kwargs):
        raise AssertionError("fit_batch called for an unsupported kind")

    monkeypatch.setattr(vsgp, "fit_batch", fit_batch)
    t, y = synth_toy(0)
    with pytest.raises(ValueError, match="persistence"):
        run_experiment(ExperimentConfig(model_kind="persistence"), t, y)


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
    s2 = summarize(recs, with_coverage=False)
    assert s2.ci95_coverage is None
    s3 = summarize([_rec(0.0, 0.0)])
    assert s3.mape is None


# ---------------------------------------------------------------------------
# persistence baseline and transition window


def test_persistence_constant_series_zero_mse():
    recs = persistence_baseline(np.full(20, 3.3))
    assert mse(recs) == 0.0


def test_persistence_hand_example():
    recs = persistence_baseline([1.0, 2.0, 3.0])
    assert [r.pred_mean for r in recs] == [1.0, 2.0]
    assert [r.y_true for r in recs] == [2.0, 3.0]


def test_persistence_rejects_short_series():
    with pytest.raises(TooShort):
        persistence_baseline([1.0], horizon=1)


def test_transition_mse_filters_by_input():
    recs = [_rec(1.0, 0.0, x=3.3), _rec(1.0, 1.0, x=2.0), _rec(2.0, 2.0, x=3.25)]
    assert transition_mse(recs) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(EmptyRecords):
        transition_mse([_rec(0.0, 0.0, x=1.0)])
