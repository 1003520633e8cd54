"""Tests for the benchmark's own code: run with ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np
import pytest

import adaptive_sgp
from adaptive_sgp import adaptive, fast_agp, kernel, optim
from perfbench import gen, layers, spans
from perfbench.bench import END_TO_END_UNITS
from perfbench.workloads import (TAIL_Q, WORKLOADS, PassResult, quality,
                                 setup, stream, tail_supported)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("make", [gen.piecewise_sinusoid, gen.lagged_series])
def test_generators_are_deterministic_per_seed(make):
    X1, y1 = make(700, 3)
    X2, y2 = make(700, 3)
    X3, y3 = make(700, 4)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)
    assert X1.shape[0] == y1.shape[0] == 700
    assert np.all(np.isfinite(X1)) and np.all(np.isfinite(y1))


def test_lagged_series_rows_are_lag_windows():
    X, y = gen.lagged_series(50, 0, lags=8)
    assert X.shape == (50, 8)
    # Row i+1 is row i shifted by one, with row i's target appended.
    assert np.array_equal(X[1:, :-1], X[:-1, 1:])
    assert np.array_equal(X[1:, -1], y[:-1])


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] -> a [10, 40] -> a1 [15, 25]; root -> b [50, 90]
    tree = [["root", 0, 100, -1, 0], ["a", 10, 40, 0, 0],
            ["a1", 15, 25, 1, 0], ["b", 50, 90, 0, 0]]
    dur, own = spans.self_times(tree)
    assert dur.tolist() == [100, 30, 10, 40]
    assert own.tolist() == [30, 20, 10, 40]
    agg = spans.aggregate(tree + [["a", 200, 205, -1, -1]])
    assert agg[("a", "stream")] == [1, 20]
    assert agg[("a", "setup")] == [1, 5]


@pytest.mark.parametrize("n, q, ok", [
    (1000, 0.99, True), (999, 0.99, False),
    (200, 0.95, True), (199, 0.95, False),
])
def test_tail_needs_ten_samples_beyond(n, q, ok):
    assert tail_supported(n, q) is ok


def test_every_workload_supports_the_tail_quantile():
    for w in WORKLOADS.values():
        assert tail_supported(w.pass_len, TAIL_Q), w.name


def test_tracer_installs_everywhere_and_restores():
    orig_km = kernel.kernel_matrix
    orig_step = optim.Adam.step
    orig_pkg = adaptive_sgp.fast_agp_step
    tracer = spans.Tracer()
    with tracer:
        wrapped = adaptive_sgp.kernel_matrix
        assert wrapped is not orig_km
        # One wrapper per function, bound in every namespace that binds it.
        assert kernel.kernel_matrix is wrapped
        assert adaptive.kernel_matrix is wrapped
        assert fast_agp.kernel_matrix is wrapped
        assert optim.Adam.step is not orig_step
        adaptive_sgp.kernel_matrix(np.zeros((2, 1)), np.zeros((3, 1)),
                                   kernel.KernelParams(0.0, 0.0))
        optim.Adam().step("x", 1.0)
    assert kernel.kernel_matrix is orig_km
    assert adaptive.kernel_matrix is orig_km
    assert adaptive_sgp.kernel_matrix is orig_km
    assert adaptive_sgp.fast_agp_step is orig_pkg
    assert optim.Adam.step is orig_step
    names = [s[0] for s in tracer.spans]
    assert names == ["kernel.kernel_matrix", "kernel.sq_dists", "optim.Adam.step"]
    assert tracer.spans[1][3] == 0          # sq_dists nests in kernel_matrix


def _toy_run(trace_obs=None):
    w = WORKLOADS["toy-fast"]
    X, y = w.make(w.window_t + 40, 0)
    model, state = setup(X, y, w.window_t, w.capacity_m, w.lam, 0)
    if trace_obs is None:
        return stream(w.kind, model, state, X[w.window_t:], y[w.window_t:])
    with trace_obs:
        model, state = setup(X, y, w.window_t, w.capacity_m, w.lam, 0)
        return stream(w.kind, model, state, X[w.window_t:], y[w.window_t:],
                      on_step=lambda i, s: layers.on_step(trace_obs, i, s))


def test_traced_predictions_equal_untraced_bit_for_bit():
    plain = _toy_run()
    tracer = spans.Tracer(layers.OBSERVERS)
    traced = _toy_run(tracer)
    assert np.array_equal(plain.mean, traced.mean)
    assert np.array_equal(plain.var, traced.var)
    report = layers.report(tracer, traced.state, 40, overhead=0.0)
    assert report["bound.weighted_bound_gradients.calls_per_step"] == 0.0
    assert report["adaptive.refresh_b_lam.calls_per_step"] == 1.0
    assert report["setup.weighted_bound_gradients.calls"] == 200
    # Functions this workload never calls count zero, not nothing.
    assert report["bound.weighted_bound_gradients.self_us_per_step"] == 0.0
    assert report["agp.agp_step.self_us_per_step"] == 0.0


def test_missing_function_and_broken_observer_report_numbers(monkeypatch):
    monkeypatch.delattr(adaptive, "refresh_b_lam")

    def broken(tracer, args, kwargs):
        raise TypeError("signature changed")

    tracer = spans.Tracer({**layers.OBSERVERS, "fast_agp.prune_inducing": broken})
    run = _toy_run(tracer)
    report = layers.report(tracer, run.state, 40, overhead=0.0)
    assert tracer.broken == {"fast_agp.prune_inducing"}
    assert report["adaptive.refresh_b_lam.calls_per_step"] == 0.0
    assert report["adaptive.refresh_b_lam.self_us_per_step"] == 0.0
    assert report["fast_agp.prunes_per_step"] == 0.0
    assert report["fast_agp.windowed_add.self_us_per_step"] > 0.0
    assert all(isinstance(v, (int, float)) and np.isfinite(v)
               for v in report.values())


def test_crps_of_a_centred_prediction():
    y = np.zeros(3)
    res = PassResult(lat_ns=np.zeros(3, dtype=np.int64), mean=np.zeros(3),
                     var=np.full(3, 3.0), noise_var=np.ones(3), failed=0,
                     wall_s=0.0, state=None)
    scores = quality(y, res)
    # CRPS(N(0, s^2), 0) = s * (sqrt(2/pi) - 1/sqrt(pi)) with s = 2.
    assert scores["crps"] == pytest.approx(2.0 * (np.sqrt(2 / np.pi) - 1 / np.sqrt(np.pi)))
    assert scores["mse"] == 0.0
    assert scores["ci95_coverage_gap"] == pytest.approx(5.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
