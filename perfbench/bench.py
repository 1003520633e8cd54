"""The benchmark itself: argument parsing, timed passes, traced pass, output.

See ``run.py`` for how to invoke it.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from . import layers, spans
from .workloads import (TAIL_Q, WORKLOADS, harness_gate, quality, setup,
                        stream, tail_supported)

OUT = Path(__file__).resolve().parent / "out"

# Steps per model kind compared with run_experiment on synth_toy(seed=0);
# agp_vsi steps take ~35 ms each on a 2-core x86 host.
GATE_STEPS = {"fast_agp": 60, "agp": 60, "agp_vsi": 5}

# Timings are reported relative to a fixed reference kernel timed next to
# them (see reference_kernel), so that they do not follow the host's speed;
# raw timings are printed on the workload line.
END_TO_END_UNITS = {
    "steps_per_kref": "1/kref", "step_p50_ref": "ref", "setup_s": "s",
    "mse": "y_sq", "crps": "y", "peak_rss_mb": "MiB",
}

REF_EVERY = 10                 # steps per reference-kernel timing
# setup_s is in seconds at a reference-kernel duration of REF_S, about its
# median on a 2-core x86 virtual machine (Python 3.11, OpenBLAS 0.3.31).
REF_S = 150e-6
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.normal(size=(100, 1))
_REF_U = _REF_RNG.normal(size=(10, 1))


def reference_kernel() -> None:
    """A fixed unit of work that shares no code with ``adaptive_sgp``.

    It mixes small numpy calls and a scipy Cholesky like a streaming step
    does.  Seen on a 2-core x86 virtual machine whose speed switched by
    1.6x every second or so: step latency over the latency of the reference
    run just before it stayed within about 2%, while raw latency moved with
    the host.
    """
    eye = np.eye(_REF_U.shape[0])
    for _ in range(2):
        d2 = (np.sum(_REF_X**2, axis=1)[:, None] + np.sum(_REF_U**2, axis=1)[None, :]
              - 2.0 * _REF_X @ _REF_U.T)
        K = np.exp(-0.5 * d2)
        S = K.T @ K + eye
        lower = scipy.linalg.cholesky(S, lower=True)
        scipy.linalg.cho_solve((lower, True), eye)
        np.linalg.norm(S - S.T)


def blas_threads() -> dict:
    """Thread count each OpenBLAS bundled with numpy and scipy reports, by
    library file name (loading an already loaded library reuses it)."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    out = {}
    for mod in (np, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def env_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def time_reference_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


def timed_passes(w, model, state, X, y, seconds, before_step=None):
    """Run whole passes over the stream: at least one, then another only
    while it is expected to end within ``seconds``.

    Before every ``REF_EVERY``-th step, outside its timing, the reference
    kernel is timed; ``before_step(i)`` runs before step ``i`` of the first
    pass.  Returns the passes and, per pass, the reference timings in ns.
    """
    n = y.shape[0]
    passes, refs, spent = [], [], 0.0
    while True:
        ref = np.empty(-(-n // REF_EVERY), dtype=np.int64)

        def hook(i, _state, ref=ref, first=not passes):
            if first and before_step is not None:
                before_step(i)
            if i < n and i % REF_EVERY == 0:
                ref[i // REF_EVERY] = time_reference_ns()

        res = stream(w.kind, model, state, X, y, on_step=hook)
        passes.append(res)
        refs.append(ref)
        spent += res.wall_s
        if spent + res.wall_s > seconds:
            return passes, refs


def latency_stats(passes, refs=None) -> dict:
    """Raw step-latency figures and, given reference timings, each step's
    latency over that of the reference run before its block of steps."""
    lat = np.concatenate([p.lat_ns for p in passes]).astype(float)
    n = lat.shape[0]
    tail = tail_supported(n, TAIL_Q)
    out = {
        "samples": n,
        "steps_per_s": n / (lat.sum() / 1e9),
        "step_us_p50": float(np.median(lat)) / 1e3,
        "step_us_p99": float(np.quantile(lat, TAIL_Q)) / 1e3 if tail else None,
    }
    if refs is not None:
        per_step = np.concatenate([np.repeat(r, REF_EVERY)[:len(p.lat_ns)]
                                   for p, r in zip(passes, refs)])
        norm = lat / per_step
        out.update({
            "steps_per_kref": 1e3 * n / float(norm.sum()),
            "step_p50_ref": float(np.median(norm)),
            "step_p99_ref": float(np.quantile(norm, TAIL_Q)) if tail else None,
            "ref_us_p50": float(np.median(np.concatenate(refs))) / 1e3,
        })
    return out


def same_predictions(a, b) -> bool:
    return (np.array_equal(a.mean, b.mean, equal_nan=True)
            and np.array_equal(a.var, b.var, equal_nan=True))


def end_to_end(w, X, y, seconds, seed):
    T = w.window_t
    setups, setups_raw = [], []

    def timed_setup():
        # The reference runs on both sides of the set-up, which is long
        # enough for the host to change speed during it.
        refs = [time_reference_ns() for _ in range(3)]
        t0 = time.perf_counter()
        out = setup(X, y, T, w.capacity_m, w.lam, seed)
        setups_raw.append(time.perf_counter() - t0)
        refs += [time_reference_ns() for _ in range(3)]
        setups.append(setups_raw[-1] * REF_S / (statistics.median(refs) / 1e9))
        return out

    # One set-up before streaming; the other repeats are spread over the
    # first pass, so that their median samples the host as the steps do.
    model, state = timed_setup()
    spread_at = set(np.linspace(0, w.pass_len, w.setup_reps,
                                endpoint=False)[1:].astype(int))

    def before_step(i):
        if i in spread_at:
            timed_setup()

    passes, refs = timed_passes(w, model, state, X[T:], y[T:], seconds,
                                before_step)
    scores = quality(y[T:], passes[0])
    stats = latency_stats(passes, refs)
    metrics = {
        "steps_per_kref": stats["steps_per_kref"],
        "step_p50_ref": stats["step_p50_ref"],
        "setup_s": statistics.median(setups),
        "mse": scores["mse"],
        "crps": scores["crps"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = []
    if not all(same_predictions(passes[0], p) for p in passes[1:]):
        problems.append("passes over the same stream disagree")
    # The tail is printed, not bounded: host stalls of a few ms hit 1-2% of
    # steps in some minutes and not in others, which moved p99 by up to 47%
    # (IQR over median) across ten runs.
    info = {k: stats[k] for k in ("samples", "step_p99_ref", "steps_per_s",
                                  "step_us_p50", "step_us_p99", "ref_us_p50")}
    info.update(passes=len(passes), setup_reps=len(setups),
                setup_raw_s=statistics.median(setups_raw),
                ci95_coverage_gap=scores["ci95_coverage_gap"])
    return passes, metrics, info, problems


def per_layer(w, X, y, seconds, seed):
    T = w.window_t
    Xs, ys = X[T:T + w.trace_len], y[T:T + w.trace_len]
    tracer = spans.Tracer(layers.OBSERVERS)
    with tracer:
        model, state = setup(X, y, T, w.capacity_m, w.lam, seed)
        traced = stream(w.kind, model, state, Xs, ys,
                        on_step=lambda i, s: layers.on_step(tracer, i, s))

    # Trace overhead: untraced and traced passes alternate, each pair in
    # the other order from the last, so drift in host speed hits both.
    plain, rerun = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                with spans.Tracer():
                    rerun.append(stream(w.kind, model, state, Xs, ys))
            else:
                plain.append(stream(w.kind, model, state, Xs, ys))
    problems = []
    if not all(same_predictions(traced, p) for p in plain + rerun):
        problems.append("traced and untraced passes predict differently")

    overhead = (latency_stats(rerun)["step_us_p50"]
                / latency_stats(plain)["step_us_p50"] - 1.0)
    metrics = layers.report(tracer, traced.state, len(traced.lat_ns), overhead)
    spans.write_jsonl(tracer.spans, OUT / f"{w.name}.spans.jsonl")
    for name in sorted(tracer.broken):
        print(f"note: the observer of {name} no longer fits the library; "
              "its counters stop where it failed")
    info = {"samples": len(traced.lat_ns), "spans": len(tracer.spans),
            "overhead_pairs": len(plain)}
    return [traced] + plain + rerun, metrics, info, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = env_record()
    print("env " + json.dumps(env, sort_keys=True))

    problems = [f"{kind} loop disagrees with run_experiment"
                for kind in harness_gate(GATE_STEPS)]
    X, y = w.make(w.window_t + w.pass_len, args.seed)
    if args.trace:
        passes, values, info, more = per_layer(w, X, y, args.seconds, args.seed)
        units = {name: unit for name, unit, _better, _fn in layers.METRICS}
    else:
        passes, values, info, more = end_to_end(w, X, y, args.seconds, args.seed)
        units = END_TO_END_UNITS
    problems += more
    attempted = sum(len(p.lat_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} steps failed")

    print(f"workload {w.name}: {w.kind} D={X.shape[1]} T={w.window_t} "
          f"M={w.capacity_m} lam={w.lam:.6g} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in values.items():
        print(f"  {name:<48} {value!s:>22} {units[name]}")
    # The result line carries only finite numbers (JSON has no NaN).
    bad = [k for k, v in values.items()
           if isinstance(v, bool) or not isinstance(v, (int, float))
           or not np.isfinite(v)]
    if bad:
        print(f"error: no numeric value for {', '.join(bad)}", file=sys.stderr)
        return 3
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "env": env, "info": info, "problems": problems},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1

