"""Workload definitions and the benchmark's own prequential loop.

The loop calls the library only through ``adaptive_sgp`` attributes looked
up at call time, so a tracer installed on those attributes sees every call.
It reproduces ``run_experiment``: ``fit_batch`` + ``from_batch`` on the
first T samples, then one step call per later sample, each returning the
prediction made before that sample is used.
"""

import copy
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import erf

import adaptive_sgp as asgp
from adaptive_sgp import agp_vsi

from . import gen

# Harness defaults (ExperimentConfig).
R_TH = 1e-4
LR = 0.05
INIT_ITERS = 200
INNER_ITERS = 50
JITTER = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "fast_agp" or "agp"
    make: Callable             # (n, seed) -> (X, y)
    window_t: int
    capacity_m: int
    lam: float
    pass_len: int              # streamed samples per timed pass
    trace_len: int             # streamed samples in the traced pass
    setup_reps: int


TAIL_Q = 0.99                  # the reported tail quantile

# Why each workload exists is recorded in BENCHMARK.json.  On a 2-core x86
# host one pass takes about 8 s, so a 25 s run times up to three passes.
# Accuracy is scored on the first pass; later passes repeat it from the
# same set-up state and must predict the same values.
WORKLOADS = {w.name: w for w in (
    Workload("toy-agp", "agp", gen.piecewise_sinusoid, 100, 10, 0.97724,
             pass_len=5300, trace_len=1000, setup_reps=9),
    Workload("toy-fast", "fast_agp", gen.piecewise_sinusoid, 100, 10, 0.97724,
             pass_len=23000, trace_len=4000, setup_reps=9),
    Workload("lag8-fast", "fast_agp",
             partial(gen.lagged_series, lags=8, seg_len=150),
             400, 40, 0.1 ** (1.0 / 400),
             pass_len=3600, trace_len=800, setup_reps=7),
)}


def tail_supported(n: int, q: float) -> bool:
    """A quantile is reported only with at least 10 samples beyond it."""
    return n * (1.0 - q) >= 10.0 - 1e-9


def inducing_seed(seed: int) -> int:
    """The seed ``run_experiment`` derives for inducing-point initialisation."""
    return int(np.random.SeedSequence(
        [int(seed), zlib.crc32(b"inducing")]).generate_state(1)[0])


def setup(X, y, window_t, capacity_m, lam, seed):
    """Batch fit on the first T samples and convert to streaming state."""
    model = asgp.fit_batch(X[:window_t], y[:window_t], capacity_m, INIT_ITERS,
                           seed=inducing_seed(seed), lr=LR, jitter=JITTER)
    state = asgp.from_batch(model, X[:window_t], y[:window_t], lam,
                            window_t, capacity_m)
    return model, state


def stepper(kind: str, model, state):
    """Return ``step(x, y) -> PredictiveDist`` advancing ``state`` in place."""
    if kind == "fast_agp":
        return lambda x, y: asgp.fast_agp_step(state, x, y, R_TH)[1]
    opt = asgp.adam_params(lr=LR)
    if kind == "agp":
        return lambda x, y: asgp.agp_step(state, opt, x, y, R_TH)[2]
    if kind == "agp_vsi":
        q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, JITTER)
        return lambda x, y: asgp.agp_vsi_step(state, q, opt, x, y,
                                              INNER_ITERS)[3]
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass
class PassResult:
    lat_ns: np.ndarray         # per step call
    mean: np.ndarray
    var: np.ndarray
    noise_var: np.ndarray      # state noise variance after the step
    failed: int
    wall_s: float
    state: object


def stream(kind, model, state, X, y, on_step=None) -> PassResult:
    """Stream ``X, y`` through deep copies of ``(model, state)``.

    A step that raises, or returns a non-finite mean or a negative or
    non-finite variance, counts as failed; its prediction is stored as NaN.
    ``on_step(i, state)`` runs outside the timing before step ``i`` and once
    more with ``i == len(y)`` after the last step.
    """
    model, state = copy.deepcopy((model, state))
    step = stepper(kind, model, state)
    n = y.shape[0]
    lat = np.empty(n, dtype=np.int64)
    mean, var, noise = np.full(n, np.nan), np.full(n, np.nan), np.empty(n)
    failed = 0
    clock = time.perf_counter_ns
    w0 = time.perf_counter()
    for i in range(n):
        if on_step is not None:
            on_step(i, state)
        t0 = clock()
        try:
            pred = step(X[i], y[i])
        except Exception:
            pred = None
        lat[i] = clock() - t0
        noise[i] = state.noise_var
        if (pred is None or not np.isfinite(pred.mean)
                or not np.isfinite(pred.var) or pred.var < 0.0):
            failed += 1
            continue
        mean[i], var[i] = pred.mean, pred.var
    if on_step is not None:
        on_step(n, state)
    return PassResult(lat, mean, var, noise, failed,
                      time.perf_counter() - w0, state)


def quality(y, res: PassResult) -> dict:
    """Prequential scores of the predictions made before each update.

    The predictive distribution of a target is N(mean, pred_var + noise_var),
    the band the harness scores coverage on.  CRPS is the mean continuous
    ranked probability score of that Gaussian: like MSE it rewards an
    accurate mean, and it also penalises a variance that is too small or
    too large.
    """
    err = y - res.mean
    sd = np.sqrt(res.var + res.noise_var)
    z = err / sd
    crps = sd * (z * erf(z / np.sqrt(2.0))
                 + np.sqrt(2.0 / np.pi) * np.exp(-0.5 * z**2)
                 - 1.0 / np.sqrt(np.pi))
    cover = 100.0 * float(np.mean(np.abs(err) < 2.0 * sd))
    return {"mse": float(np.mean(err**2)), "crps": float(np.mean(crps)),
            "ci95_coverage_gap": abs(95.0 - cover)}


def harness_gate(steps: dict) -> list[str]:
    """Compare this loop with ``run_experiment`` on ``synth_toy(seed=0)``.

    For each model kind, both run on the first T + n samples (prequential
    predictions depend only on earlier samples, so this is a prefix of the
    full run) and every ``pred_mean`` must be equal bit for bit.  Returns
    the kinds that disagree.
    """
    times, targets = asgp.synth_toy(seed=0)
    X = np.asarray(times, dtype=float)[:, None]
    T, M = 100, 10
    lam = float(0.1 ** (1.0 / T))          # ExperimentConfig lam="auto"
    model, state = setup(X, targets, T, M, lam, seed=0)
    bad = []
    for kind, n in steps.items():
        cfg = asgp.ExperimentConfig(model_kind=kind, window_t=T, capacity_m=M,
                                    seed=0)
        records, _ = asgp.run_experiment(cfg, X[:T + n], targets[:T + n])
        theirs = np.array([r.pred_mean for r in records])
        ours = stream(kind, model, state, X[T:T + n], targets[T:T + n]).mean
        if not np.array_equal(ours, theirs):
            bad.append(kind)
    return bad
