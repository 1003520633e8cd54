"""Prequential experiment driver: synthetic data generation, lag embedding,
streaming evaluation of every model kind, and metrics.

Each incoming sample is predicted before it is used for any update; the
first T samples only initialize the model (for the persistence baseline,
the value it holds) and are excluded from the metrics.
"""

import math
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adaptive, agp, agp_vsi, fast_agp, vsgp, wvsgp
from .errors import (DimensionMismatch, EmptyRecords, InvalidLambda,
                     MapeUndefined, TooShort)
from .kernel import _as_inputs

# The four streaming kinds, then the baseline, which has no model.
MODEL_KINDS = ("fast_agp", "agp", "agp_vsi", "w_vsgp", "persistence")


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible generator for one named consumer."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    )


def derive_seed(seed: int, name: str) -> int:
    return int(np.random.SeedSequence(
        [int(seed), zlib.crc32(name.encode())]).generate_state(1)[0])


@dataclass
class ExperimentConfig:
    model_kind: str = "agp"
    window_t: int = 100
    capacity_m: int = 10
    lam: float | str = "auto"          # "auto" => 0.1 ** (1/T)
    r_th: float = 1e-4
    init_iters: int = 200
    inner_iters: int = 50
    lr: float = 0.05
    seed: int = 0
    jitter: float = 1e-6

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        min_m = 2 if self.model_kind == "agp" else 1   # agp appends to M-1
        if self.window_t < 1 or self.capacity_m < min_m:
            raise ValueError(f"window_t must be at least 1 and capacity_m at "
                             f"least {min_m} for {self.model_kind}")
        if self.capacity_m > self.window_t:
            raise ValueError("capacity_m must not exceed window_t")
        for name in ("init_iters", "inner_iters", "r_th", "jitter"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        lam = self.resolved_lambda()
        if not 0.0 < lam <= 1.0:
            raise InvalidLambda(f"lambda {lam} outside (0, 1]")

    def resolved_lambda(self) -> float:
        if self.lam == "auto":
            return float(0.1 ** (1.0 / self.window_t))
        return float(self.lam)


@dataclass
class StreamRecord:
    step: int
    x: np.ndarray
    y_true: float
    pred_mean: float
    pred_var: float
    noise_var: float
    k_inducing: int
    elapsed_us: int


@dataclass
class MetricSummary:
    mse: float
    ci95_coverage: Optional[float]
    mape: Optional[float]
    total_time_us: int
    n_steps: int


def synth_toy(seed: int, grid: bool = False):
    """Non-stationary sinusoid: 500 samples on [0, 5].

    The first 300 samples (t in [0, 3]) follow sin(4t) with amplitude rising
    linearly from 0.5 to 2; the remaining 200 (t in (3, 5]) follow 2 sin(8t).
    Additive Gaussian noise with standard deviation 0.2 throughout.
    """
    rng = named_rng(seed, "data")
    if grid:
        t1 = np.linspace(0.0, 3.0, 300, endpoint=False)
        t2 = np.linspace(3.0, 5.0, 200, endpoint=False) + 2.0 / 200
    else:
        t1 = np.sort(rng.uniform(0.0, 3.0, 300))
        t2 = np.sort(rng.uniform(3.0, 5.0, 200))
    times = np.concatenate([t1, t2])
    targets = toy_signal(times) + rng.normal(0.0, 0.2, times.shape[0])
    return times, targets


def toy_signal(times: np.ndarray) -> np.ndarray:
    """Noise-free version of the toy target."""
    times = np.asarray(times, dtype=float)
    low = times <= 3.0
    amp = np.where(low, 0.5 + 1.5 * times / 3.0, 2.0)
    phase = np.where(low, 4.0 * times, 8.0 * times)
    return amp * np.sin(phase)


def lag_embed(series, lags: int, horizon: int):
    """Turn a scalar series into (X, y) with ``lags`` consecutive values as
    input and the value ``horizon`` steps past the last lag as target."""
    series = np.asarray(series, dtype=float).ravel()
    if lags < 1:
        raise TooShort("lags must be >= 1")
    if horizon < 1:
        raise TooShort("horizon must be >= 1")
    n = series.shape[0]
    if n <= lags + horizon:
        raise TooShort(f"series of length {n} too short for lags={lags}, horizon={horizon}")
    rows = n - lags - horizon + 1
    X = np.stack([series[i:i + lags] for i in range(rows)])
    y = series[lags - 1 + horizon: lags - 1 + horizon + rows]
    return X, y


def _stepper(config: ExperimentConfig, X0, y0):
    """The step for ``config.model_kind`` after the first T samples
    ``(X0, y0)``: ``step(x, y) -> (pred_before, log_noise, k_inducing)``.

    Persistence predicts the last finite target seen, with no variance and
    no noise; every other kind streams on the state ``from_batch`` builds
    (at lambda = 1 for w-vsgp) from a batch model fitted to ``(X0, y0)``."""
    kind = config.model_kind
    if kind == "persistence":
        held = next((float(v) for v in y0[::-1] if math.isfinite(v)), math.nan)

        def persist(x, y):
            nonlocal held
            pred = vsgp.PredictiveDist(held, math.nan)
            if math.isfinite(y):
                held = float(y)
            return pred, math.nan, 0
        return persist

    model = vsgp.fit_batch(X0, y0, config.capacity_m, config.init_iters,
                           seed=derive_seed(config.seed, "inducing"),
                           lr=config.lr, jitter=config.jitter)
    opt = agp.adam_params(lr=config.lr)
    lam = 1.0 if kind == "w_vsgp" else config.resolved_lambda()
    state = adaptive.from_batch(model, X0, y0, lam, config.window_t,
                                config.capacity_m)
    if kind == "fast_agp":
        advance = lambda x, y: fast_agp.fast_agp_step(state, x, y, config.r_th)[1]
    elif kind == "agp":
        advance = lambda x, y: agp.agp_step(state, opt, x, y, config.r_th)[2]
    elif kind == "w_vsgp":
        advance = lambda x, y: wvsgp.wvsgp_step(state, opt, x, y,
                                                config.inner_iters)[2]
    else:  # agp_vsi
        q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, config.jitter)
        advance = lambda x, y: agp_vsi.agp_vsi_step(state, q, opt, x, y,
                                                    config.inner_iters)[3]
    return lambda x, y: (advance(x, y), state.log_noise, state.k_inducing)


def run_experiment(config: ExperimentConfig, X_all, y_all):
    """Initialize on the first T samples, stream the rest, score.

    Returns ``(records, summary)``."""
    X_all = _as_inputs(X_all)
    y_all = np.asarray(y_all, dtype=float).ravel()
    if X_all.shape[0] != y_all.shape[0]:
        raise DimensionMismatch(f"X_all has {X_all.shape[0]} rows but y_all "
                                f"has {y_all.shape[0]} targets")
    T = config.window_t
    if y_all.shape[0] < T + 1:
        raise TooShort(f"need at least T+1={T + 1} samples, got {y_all.shape[0]}")

    step = _stepper(config, X_all[:T], y_all[:T])
    records: list[StreamRecord] = []
    for i, (x, y) in enumerate(zip(X_all[T:], y_all[T:])):
        t0 = time.perf_counter_ns()
        pred, log_noise, k = step(x, y)
        records.append(StreamRecord(
            step=i, x=x.copy(), y_true=float(y),
            pred_mean=pred.mean, pred_var=pred.var,
            noise_var=float(np.exp(log_noise)), k_inducing=k,
            elapsed_us=(time.perf_counter_ns() - t0) // 1000))
    return records, summarize(records)


def _scored(records) -> list:
    """The records a metric scores: those with a finite input and target,
    the samples the stream took in (``adaptive.skip_nonfinite``)."""
    scored = [r for r in records
              if math.isfinite(r.y_true) and np.isfinite(r.x).all()]
    if not scored:
        raise EmptyRecords("no records with a finite input and target")
    return scored


def mse(records) -> float:
    errs = np.array([r.y_true - r.pred_mean for r in _scored(records)])
    return float(np.mean(errs**2))


def mape(records) -> float:
    records = _scored(records)
    y = np.array([r.y_true for r in records])
    if np.any(np.abs(y) <= 1e-9):
        raise MapeUndefined("some |y_true| below 1e-9")
    m = np.array([r.pred_mean for r in records])
    return float(np.mean(np.abs((y - m) / y)) * 100.0)


def ci95_coverage(records) -> float:
    """Percentage of samples whose error falls inside the 95% band
    2*sqrt(pred_var + noise_var)."""
    records = _scored(records)
    err = np.abs(np.array([r.y_true - r.pred_mean for r in records]))
    tot = np.array([r.pred_var + r.noise_var for r in records])
    return float(np.mean(err < 2.0 * np.sqrt(tot)) * 100.0)


def summarize(records) -> MetricSummary:
    """The stream's metrics; ``ci95_coverage`` only when some scored record
    carries a predictive variance (the persistence baseline's are NaN)."""
    try:
        mape_val = mape(records)
    except MapeUndefined:
        mape_val = None
    has_var = any(math.isfinite(r.pred_var) for r in _scored(records))
    return MetricSummary(
        mse=mse(records),
        ci95_coverage=ci95_coverage(records) if has_var else None,
        mape=mape_val,
        total_time_us=int(sum(r.elapsed_us for r in records)),
        n_steps=len(records),
    )


def transition_mse(records, lo: float = 3.2, hi: float = 3.4) -> float:
    """MSE restricted to records whose 1-D input lies in [lo, hi]."""
    if any(r.x.shape != (1,) for r in records):
        raise DimensionMismatch("the transition window needs 1-D inputs")
    sel = [r for r in records if lo <= float(r.x[0]) <= hi]
    if not sel:
        raise EmptyRecords(f"no records with input in [{lo}, {hi}]")
    return mse(sel)
