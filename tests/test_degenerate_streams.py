"""Property tests: degenerate streams never abort any streaming step.

Each example streams samples through one of the four step functions
(``fast_agp_step``, ``agp_step``, ``agp_vsi_step``, ``wvsgp_step``) from a
small random state.  The streams mix duplicated inputs (a repeated
sample, a window input or an inducing point again), constant targets,
forgetting factors up to 1, noise variances down to 1e-8 and bursts of
non-finite samples.  Every step must return, every prediction at a finite
input must be finite with a non-negative variance, and the streamed
caches must predict what caches rebuilt from the window predict, within
the long-stream drift tolerances, wherever a rebuild is that accurate an
oracle (``DRIFT_NOISE_FLOOR``).
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptive_sgp import adaptive, agp, agp_vsi, fast_agp, wvsgp
from adaptive_sgp.kernel import KernelParams, kernel_matrix

from test_fast_agp import DRIFT_MEAN_TOL, DRIFT_VAR_RTOL, KERNEL_CACHE_RTOL

SAMPLES = ("fresh", "repeat", "window", "inducing", "nan_burst")
# The drift tolerances hold from this noise variance up.  Below it the
# predictive mean divides roundoff in the cross-moments by the noise
# variance: over 1500 random fast-mode examples the streamed and the
# rebuilt caches predicted up to 6.4e-5 apart in mean at 1e-5 and 2.6e-2
# at 1e-8 (1.2e-4 and 0.11 relative in variance), and at most 2e-8 and
# 1.5e-7 from 2e-2 up.  Tiny-noise streams still must not abort and must
# predict finite values.
DRIFT_NOISE_FLOOR = 1e-3


@st.composite
def degenerate_streams(draw):
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "d": draw(st.integers(1, 2)),
        "t": draw(st.integers(2, 10)),
        "k": draw(st.integers(1, 4)),
        "lam": draw(st.sampled_from([1.0, 1.0 - 1e-12, 0.999])
                    | st.floats(0.5, 1.0)),
        "log_noise": draw(st.sampled_from([math.log(1e-8), math.log(1e-5)])
                          | st.floats(-4.0, 0.5)),
        "constant_y": draw(st.booleans()),
        "samples": draw(st.lists(st.sampled_from(SAMPLES),
                                 min_size=1, max_size=20)),
    }


def _state(case, rng, lam):
    d, t, k = case["d"], case["t"], case["k"]
    X = rng.normal(size=(t, d))
    y = np.full(t, 0.7) if case["constant_y"] else rng.normal(size=t)
    state = adaptive.AdaptiveState(
        window_x=X, window_y=y, inducing=rng.normal(size=(k, d)),
        params=KernelParams(float(rng.uniform(-0.5, 0.5)),
                            float(rng.uniform(-0.5, 0.5))),
        log_noise=case["log_noise"], lam=lam, capacity_m=k + 1,
        window_t=t, jitter=1e-6)
    adaptive.rebuild_caches(state)
    return state


def _samples(case, rng, state):
    """The stream's (x, y) pairs, drawn as the stream runs, since a
    duplicate repeats an input of the current window or inducing set."""
    x = rng.normal(size=case["d"])
    for kind in case["samples"]:
        if kind == "nan_burst":
            for bad in (np.nan, np.inf, -np.inf):
                yield np.full(case["d"], bad), 0.7
                yield x, bad
            continue
        if kind == "fresh":
            x = rng.normal(size=case["d"])
        elif kind == "window":
            x = state.window_x[rng.integers(state.window_x.shape[0])].copy()
        elif kind == "inducing":
            x = state.inducing[rng.integers(state.k_inducing)].copy()
        yield x, 0.7 if case["constant_y"] else float(rng.normal())


def _check_prediction(pred, x):
    if np.isfinite(x).all():
        assert math.isfinite(pred.mean) and math.isfinite(pred.var)
        assert pred.var >= 0.0


def _check_against_rebuild(state, rng):
    ref = copy.deepcopy(state)
    adaptive.rebuild_caches(ref)
    probes = np.vstack([state.window_x, state.inducing,
                        rng.normal(size=(3, state.inducing.shape[1]))])
    for x in probes:
        a = adaptive.adaptive_predict(state, x)
        b = adaptive.adaptive_predict(ref, x)
        _check_prediction(a, x)
        if state.noise_var >= DRIFT_NOISE_FLOOR:
            assert abs(a.mean - b.mean) < DRIFT_MEAN_TOL
            assert abs(a.var - b.var) <= DRIFT_VAR_RTOL * b.var + 1e-12
    if state.kxu is not None:
        kxu = kernel_matrix(state.window_x, state.inducing, state.params)
        assert np.max(np.abs(state.kxu - kxu)) <= KERNEL_CACHE_RTOL * max(
            1.0, float(np.max(np.abs(kxu))))


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _stepper(kind, state):
    """``step(x, y) -> pred`` on ``state``; agp_vsi and w_vsgp run two inner
    iterations per step."""
    opt = agp.adam_params()
    if kind == "fast_agp":
        return lambda x, y: fast_agp.fast_agp_step(state, x, y)[1]
    if kind == "agp":
        return lambda x, y: agp.agp_step(state, opt, x, y)[2]
    if kind == "w_vsgp":
        return lambda x, y: wvsgp.wvsgp_step(state, opt, x, y, 2)[2]
    q = agp_vsi.q_from_moments(*adaptive.adaptive_q(state))
    return lambda x, y: agp_vsi.agp_vsi_step(state, q, opt, x, y, 2)[3]


@pytest.mark.parametrize("kind", ["fast_agp", "agp", "agp_vsi", "w_vsgp"])
@PROPERTY
@given(case=degenerate_streams())
def test_step_survives_degenerate_streams(kind, case):
    rng = np.random.default_rng(case["seed"])
    # The sliding-window baseline streams at lambda = 1, as the harness runs it.
    state = _state(case, rng, 1.0 if kind == "w_vsgp" else case["lam"])
    step = _stepper(kind, state)
    for x, y in _samples(case, rng, state):
        _check_prediction(step(x, y), x)
        assert 1 <= state.k_inducing <= state.capacity_m
        assert np.isfinite(state.inducing).all()
        assert math.isfinite(state.log_noise)
    # Fast mode carries kxu throughout; the other kinds carry it until their
    # first update drops it, so through a stream of skipped samples too.
    # Wherever it is carried, _check_against_rebuild checks its value.
    assert kind != "fast_agp" or state.kxu is not None
    # A step's moves leave B_lambda stale; a skipped sample's prediction
    # factors it, and that factor describes the current caches.
    if state.b_lam is not None:
        fresh = copy.deepcopy(state)
        adaptive.refresh_b_lam(fresh)
        assert np.array_equal(state.b_lam[0].lower, fresh.b_lam[0].lower)
    _check_against_rebuild(state, rng)
