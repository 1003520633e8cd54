"""Command-line front end: dataset synthesis, streaming runs, the
forgetting-factor sweep, and lag embedding.

Data CSV schema: header ``t,x0..x{D-1},y``; records CSV mirrors the stream
record fields.  Config files are flat ``key=value`` text with the experiment
config field names; CLI flags override file values.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import numpy as np

from . import harness
from .errors import AdaptiveSgpError
from .harness import ExperimentConfig
from .kernel import _as_inputs

MODEL_FLAGS = {
    "fast-agp": "fast_agp",
    "agp": "agp",
    "agp-vsi": "agp_vsi",
    "w-vsgp": "w_vsgp",
    "persistence": "persistence",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_FLOAT_FIELDS = {"lam", "r_th", "lr", "jitter"}
_INT_FIELDS = {"window_t", "capacity_m", "init_iters", "inner_iters", "seed"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_data_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    X = _as_inputs(X)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t"] + [f"x{d}" for d in range(X.shape[1])] + ["y"])
        for i in range(X.shape[0]):
            w.writerow([i] + [_fmt(v) for v in X[i]] + [_fmt(y[i])])


def _read_csv_rows(path: str) -> list:
    """The rows of a CSV file: a header and data rows no shorter than it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise AdaptiveSgpError(f"{path}: empty file, no header")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < len(rows[0]):
            raise AdaptiveSgpError(f"{path}: line {line} has {len(row)} "
                                   f"fields, the header {len(rows[0])}")
    return rows


def read_data_csv(path: str):
    rows = _read_csv_rows(path)
    header = rows[0]
    xcols = [i for i, name in enumerate(header) if name.startswith("x")]
    ycol = header.index("y")
    if not xcols:
        raise AdaptiveSgpError(f"{path}: no x columns in header {header}")
    X = np.array([[float(r[i]) for i in xcols] for r in rows[1:]])
    y = np.array([float(r[ycol]) for r in rows[1:]])
    return X, y


def read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def build_config(file_values: dict, overrides: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in merged.items():
        if key in _INT_FIELDS:
            kwargs[key] = int(value)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = value if (key, value) == ("lam", "auto") else float(value)
        elif key == "model_kind":
            kwargs[key] = MODEL_FLAGS.get(str(value), str(value))
        else:
            raise AdaptiveSgpError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def write_records_csv(path: str, per_seed_records: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        first = per_seed_records[0][1][0]
        dim = first.x.shape[0]
        w.writerow(["seed", "step"] + [f"x{d}" for d in range(dim)]
                   + ["y_true", "pred_mean", "pred_var", "noise_var",
                      "k_inducing", "elapsed_us"])
        for seed, records in per_seed_records:
            for r in records:
                w.writerow([seed, r.step] + [_fmt(v) for v in r.x]
                           + [_fmt(r.y_true), _fmt(r.pred_mean), _fmt(r.pred_var),
                              _fmt(r.noise_var), r.k_inducing, r.elapsed_us])


def _n_workers() -> int:
    env = os.environ.get("ADAPTIVE_SGP_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _run_one_seed(args):
    config, X, y = args
    records, summary = harness.run_experiment(config, X, y)
    return config.seed, records, summary


def run_seeds(config: ExperimentConfig, X, y, seeds: list[int]):
    """Run one experiment per seed, in parallel; results in seed order."""
    jobs = [(replace(config, seed=s), X, y) for s in seeds]
    if len(seeds) == 1 or _n_workers() == 1:
        results = [_run_one_seed(j) for j in jobs]
    else:
        # One BLAS thread per worker: the matrices are small, and BLAS
        # threads on top of the worker processes only contend for the cores.
        # Spawned workers load numpy afresh, so they see these (an explicit
        # setting in the environment wins).
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
        with ProcessPoolExecutor(max_workers=min(_n_workers(), len(seeds)),
                                 mp_context=get_context("spawn")) as ex:
            results = list(ex.map(_run_one_seed, jobs))
    return results


def _summary_json(summaries, persistence: bool) -> dict:
    out = {
        "mse": float(np.mean([s.mse for s in summaries])),
        "total_time_us": int(sum(s.total_time_us for s in summaries)),
        "n_steps": int(sum(s.n_steps for s in summaries)),
        "n_seeds": len(summaries),
    }
    if not persistence:
        out["ci95_coverage"] = float(np.mean([s.ci95_coverage for s in summaries]))
    mapes = [s.mape for s in summaries]
    if all(m is not None for m in mapes):
        out["mape"] = float(np.mean(mapes))
    return out


def cmd_synth(args) -> int:
    times, targets = harness.synth_toy(args.seed, grid=args.grid)
    write_data_csv(args.out, times[:, None], targets)
    return 0


def _check_seeds(n: int) -> None:
    if n < 1:
        raise AdaptiveSgpError(f"--seeds must be at least 1, got {n}")


def cmd_run(args) -> int:
    _check_seeds(args.seeds)
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {
        "model_kind": MODEL_FLAGS[args.model],
        "seed": args.seed,
        "window_t": args.window_t,
        "capacity_m": args.capacity_m,
        "lam": args.lam,
    }
    config = build_config(file_values, overrides)
    X, y = read_data_csv(args.data)

    if config.model_kind == "persistence":
        records = harness.persistence_baseline(y)
        summaries = [harness.summarize(records, with_coverage=False)]
        per_seed = [(config.seed, records)]
    else:
        seeds = [config.seed + i for i in range(args.seeds)]
        results = run_seeds(config, X, y, seeds)
        per_seed = [(s, recs) for s, recs, _ in results]
        summaries = [summ for _, _, summ in results]

    if args.records:
        write_records_csv(args.records, per_seed)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(_summary_json(summaries, config.model_kind == "persistence"),
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_sweep_lambda(args) -> int:
    _check_seeds(args.seeds)
    file_values = read_config_file(args.config) if args.config else {}
    config = build_config(file_values, {"model_kind": "agp", "seed": args.seed})
    X, y = read_data_csv(args.data)
    values = sorted(float(v) for v in args.values.split(","))
    seeds = [config.seed + i for i in range(args.seeds)]

    rows = []
    for lam in values:
        cfg = build_config(file_values, {"model_kind": "agp", "lam": lam,
                                         "seed": args.seed})
        results = run_seeds(cfg, X, y, seeds)
        tr = [harness.transition_mse(recs, args.lo, args.hi)
              for _, recs, _ in results]
        full = [summ.mse for _, _, summ in results]
        rows.append((lam, float(np.mean(tr)), float(np.mean(full))))

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["lambda", "transition_mse", "mse"])
        for lam, tmse, fmse in rows:
            w.writerow([_fmt(lam), _fmt(tmse), _fmt(fmse)])
    return 0


def cmd_embed(args) -> int:
    rows = _read_csv_rows(args.infile)
    ycol = rows[0].index("y") if "y" in rows[0] else len(rows[0]) - 1
    series = np.array([float(r[ycol]) for r in rows[1:]])
    X, y = harness.lag_embed(series, args.lags, args.horizon)
    write_data_csv(args.out, X, y)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adaptive-sgp")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write the synthetic toy dataset")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", action="store_true",
                    help="evenly spaced inputs instead of sorted uniform draws")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    rp = sub.add_parser("run", help="stream a model over a dataset")
    rp.add_argument("--model", choices=sorted(MODEL_FLAGS), required=True)
    rp.add_argument("--data", required=True)
    rp.add_argument("--config", default=None)
    rp.add_argument("--records", default=None)
    rp.add_argument("--summary", default=None)
    rp.add_argument("--seeds", type=int, default=1)
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--window-t", dest="window_t", type=int, default=None)
    rp.add_argument("--capacity-m", dest="capacity_m", type=int, default=None)
    rp.add_argument("--lambda", dest="lam", default=None)
    rp.set_defaults(func=cmd_run)

    lp = sub.add_parser("sweep-lambda",
                        help="transition-window MSE per forgetting factor")
    lp.add_argument("--values", required=True)
    lp.add_argument("--data", required=True)
    lp.add_argument("--config", default=None)
    lp.add_argument("--out", required=True)
    lp.add_argument("--seeds", type=int, default=20)
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--lo", type=float, default=3.2)
    lp.add_argument("--hi", type=float, default=3.4)
    lp.set_defaults(func=cmd_sweep_lambda)

    ep = sub.add_parser("embed", help="lag-embed a scalar series")
    ep.add_argument("--lags", type=int, required=True)
    ep.add_argument("--horizon", type=int, required=True)
    ep.add_argument("--in", dest="infile", required=True)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_embed)
    return p


def cli_main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, AdaptiveSgpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
