"""Command-line front end: dataset synthesis, streaming runs, the
forgetting-factor sweep, and lag embedding.

Data CSV schema: header ``t,x0..x{D-1},y``; records CSV mirrors the stream
record fields.  Config files are flat ``key=value`` text whose keys are
exactly the fields of ``ExperimentConfig``, each read as its field's type;
CLI flags override file values.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from multiprocessing import get_context

import numpy as np

from . import harness
from .errors import AdaptiveSgpError, DimensionMismatch
from .harness import ExperimentConfig
from .kernel import _as_inputs

MODEL_FLAGS = {kind.replace("_", "-"): kind for kind in harness.MODEL_KINDS}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_data_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    X = _as_inputs(X)
    _write_csv(path, ["t"] + [f"x{d}" for d in range(X.shape[1])] + ["y"],
               ([i] + [_fmt(v) for v in X[i]] + [_fmt(y[i])]
                for i in range(X.shape[0])))


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


def _parse_field(key: str, value):
    """A config value as its ``ExperimentConfig`` field's type: an int, a
    float (``"auto"`` only for ``lam``), or a model kind, which may be
    spelled as its ``--model`` flag."""
    if key not in _FIELD_TYPES:
        raise AdaptiveSgpError(f"unknown config key {key!r}")
    ftype = _FIELD_TYPES[key]
    if ftype is int:
        return int(value)
    if ftype is str:
        return MODEL_FLAGS.get(value, value)
    return value if (key, value) == ("lam", "auto") else float(value)


def build_config(file_values: dict, overrides: dict) -> ExperimentConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**{k: _parse_field(k, v) for k, v in merged.items()})


def write_records_csv(path: str, per_seed_records: list) -> None:
    dim = per_seed_records[0][1][0].x.shape[0]
    _write_csv(path, ["seed", "step"] + [f"x{d}" for d in range(dim)]
               + ["y_true", "pred_mean", "pred_var", "noise_var",
                  "k_inducing", "elapsed_us"],
               ([seed, r.step] + [_fmt(v) for v in r.x]
                + [_fmt(r.y_true), _fmt(r.pred_mean), _fmt(r.pred_var),
                   _fmt(r.noise_var), r.k_inducing, r.elapsed_us]
                for seed, records in per_seed_records for r in records))


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


def _summary_json(summaries) -> dict:
    """The seeds' totals, and the mean of each metric every seed has."""
    out = {
        "total_time_us": int(sum(s.total_time_us for s in summaries)),
        "n_steps": int(sum(s.n_steps for s in summaries)),
        "n_seeds": len(summaries),
    }
    for name in ("mse", "ci95_coverage", "mape"):
        values = [getattr(s, name) for s in summaries]
        if all(v is not None for v in values):
            out[name] = float(np.mean(values))
    bad = sorted(name for name, v in out.items() if not np.isfinite(v))
    if bad:
        raise AdaptiveSgpError(f"summary metric not finite: {', '.join(bad)}")
    return out


def cmd_synth(args) -> int:
    times, targets = harness.synth_toy(args.seed, grid=args.grid)
    write_data_csv(args.out, times[:, None], targets)
    return 0


def _load(args, **overrides):
    """Check ``--seeds``, build the config from the file and then the flags
    given, and read the data: ``(config, X, y, seeds)``."""
    if args.seeds < 1:
        raise AdaptiveSgpError(f"--seeds must be at least 1, got {args.seeds}")
    file_values = read_config_file(args.config) if args.config else {}
    config = build_config(file_values, overrides)
    X, y = read_data_csv(args.data)
    return config, X, y, [config.seed + i for i in range(args.seeds)]


def cmd_run(args) -> int:
    config, X, y, seeds = _load(args, model_kind=args.model, seed=args.seed,
                                window_t=args.window_t,
                                capacity_m=args.capacity_m, lam=args.lam)
    results = run_seeds(config, X, y, seeds)

    if args.records:
        write_records_csv(args.records, [(s, recs) for s, recs, _ in results])
    if args.summary:
        text = json.dumps(_summary_json([summ for _, _, summ in results]),
                          indent=2, sort_keys=True, allow_nan=False)
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_sweep_lambda(args) -> int:
    config, X, y, seeds = _load(args, model_kind="agp", seed=args.seed)
    if X.shape[1] != 1:
        raise DimensionMismatch("the transition window needs 1-D inputs")
    rows = []
    for lam in sorted(float(v) for v in args.values.split(",")):
        results = run_seeds(replace(config, lam=lam), X, y, seeds)
        tr = [harness.transition_mse(recs, args.lo, args.hi)
              for _, recs, _ in results]
        rows.append([_fmt(lam), _fmt(np.mean(tr)),
                     _fmt(np.mean([summ.mse for _, _, summ in results]))])
    _write_csv(args.out, ["lambda", "transition_mse", "mse"], rows)
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
    lp.add_argument("--seed", type=int, default=None)
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


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
