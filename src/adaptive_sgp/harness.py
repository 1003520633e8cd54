"""Prequential experiment driver: synthetic data generation, lag embedding,
streaming evaluation of every model kind, and metrics.

Each incoming sample is predicted before it is used for any update; the
first T samples only initialize the batch model and are excluded from the
metrics.
"""

import math
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adaptive, agp, agp_vsi, fast_agp, vsgp, wvsgp
from .errors import EmptyRecords, InvalidLambda, MapeUndefined, TooShort
from .kernel import _as_inputs

MODEL_KINDS = ("fast_agp", "agp", "agp_vsi", "w_vsgp")


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
        if self.model_kind not in MODEL_KINDS + ("persistence",):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.window_t < 1 or self.capacity_m < 1:
            raise ValueError("window_t and capacity_m must be at least 1")
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


def _stepper(config: ExperimentConfig, model: vsgp.VsgpModel, X0, y0):
    """Streaming state for ``config.model_kind``, built from the batch model
    fitted on the first T samples ``(X0, y0)``, behind one interface:
    ``step(x, y) -> (pred_before, log_noise, k_inducing)``."""
    kind = config.model_kind
    opt = agp.adam_params(lr=config.lr)
    if kind == "w_vsgp":
        wx, wy = X0.copy(), y0.copy()

        def step(x, y):
            nonlocal model, wx, wy
            model, _, wx, wy, pred = wvsgp.wvsgp_step(model, opt, wx, wy, x, y,
                                                      config.inner_iters)
            return pred, model.log_noise, model.inducing.shape[0]
        return step

    state = adaptive.from_batch(model, X0, y0, config.resolved_lambda(),
                                config.window_t, config.capacity_m)
    if kind == "fast_agp":
        advance = lambda x, y: fast_agp.fast_agp_step(state, x, y, config.r_th)[1]
    elif kind == "agp":
        advance = lambda x, y: agp.agp_step(state, opt, x, y, config.r_th)[2]
    else:  # agp_vsi
        q = agp_vsi.q_from_moments(model.q_mean, model.q_cov, config.jitter)
        advance = lambda x, y: agp_vsi.agp_vsi_step(state, q, opt, x, y,
                                                    config.inner_iters)[3]
    return lambda x, y: (advance(x, y), state.log_noise, state.k_inducing)


def run_experiment(config: ExperimentConfig, X_all, y_all):
    """Batch-initialize on the first T samples, stream the rest, score.

    Returns ``(records, summary)``.  Persistence has no streaming state;
    use ``persistence_baseline`` for it.
    """
    if config.model_kind not in MODEL_KINDS:
        raise ValueError(f"unsupported model kind {config.model_kind!r}")
    X_all = _as_inputs(X_all)
    y_all = np.asarray(y_all, dtype=float).ravel()
    T = config.window_t
    if y_all.shape[0] < T + 1:
        raise TooShort(f"need at least T+1={T + 1} samples, got {y_all.shape[0]}")

    model = vsgp.fit_batch(X_all[:T], y_all[:T], config.capacity_m,
                           config.init_iters,
                           seed=derive_seed(config.seed, "inducing"),
                           lr=config.lr, jitter=config.jitter)
    step = _stepper(config, model, X_all[:T], y_all[:T])
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


def mse(records) -> float:
    if not records:
        raise EmptyRecords("no records")
    errs = np.array([r.y_true - r.pred_mean for r in records])
    return float(np.mean(errs**2))


def mape(records) -> float:
    if not records:
        raise EmptyRecords("no records")
    y = np.array([r.y_true for r in records])
    if np.any(np.abs(y) <= 1e-9):
        raise MapeUndefined("some |y_true| below 1e-9")
    m = np.array([r.pred_mean for r in records])
    return float(np.mean(np.abs((y - m) / y)) * 100.0)


def ci95_coverage(records) -> float:
    """Percentage of samples whose error falls inside the 95% band
    2*sqrt(pred_var + noise_var)."""
    if not records:
        raise EmptyRecords("no records")
    err = np.abs(np.array([r.y_true - r.pred_mean for r in records]))
    tot = np.array([r.pred_var + r.noise_var for r in records])
    return float(np.mean(err < 2.0 * np.sqrt(tot)) * 100.0)


def summarize(records, with_coverage: bool = True) -> MetricSummary:
    try:
        mape_val = mape(records)
    except MapeUndefined:
        mape_val = None
    cov = None
    if with_coverage:
        cov = ci95_coverage(records)
    return MetricSummary(
        mse=mse(records),
        ci95_coverage=cov,
        mape=mape_val,
        total_time_us=int(sum(r.elapsed_us for r in records)),
        n_steps=len(records),
    )


def persistence_baseline(series, horizon: int = 1):
    """Predict each value by the value ``horizon`` steps earlier."""
    series = np.asarray(series, dtype=float).ravel()
    if series.shape[0] <= horizon:
        raise TooShort("series shorter than horizon")
    records = []
    for i in range(horizon, series.shape[0]):
        records.append(StreamRecord(
            step=i - horizon, x=np.array([float(i)]),
            y_true=float(series[i]), pred_mean=float(series[i - horizon]),
            pred_var=float("nan"), noise_var=float("nan"),
            k_inducing=0, elapsed_us=0))
    return records


def transition_mse(records, lo: float = 3.2, hi: float = 3.4) -> float:
    """MSE restricted to records whose (1-D) input lies in [lo, hi]."""
    sel = [r for r in records if lo <= float(r.x[0]) <= hi]
    if not sel:
        raise EmptyRecords(f"no records with input in [{lo}, {hi}]")
    return mse(sel)
