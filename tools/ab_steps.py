#!/usr/bin/env python3
"""Lock-step A/B step timing of two source trees on one benchmark workload.

Usage, from anywhere:

    python3 tools/ab_steps.py PARENT_DIR CHANGE_DIR --workload toy-agp

Each directory is a checkout of this repository.  Both trees' ``src/``
packages are loaded into one process under different names, set up on the
same stream of one ``perfbench.workloads`` workload (taken from
CHANGE_DIR), and stepped in lock-step: step i of one tree, then step i of
the other, with the order alternating from step to step, so that a drift in
the host's speed falls on both alike.  One process, one BLAS thread.

It prints the median over steps of parent time / change time per step
(above 1 when the change is faster), the ratio of the total step times,
and whether the two trees' predictions (mean, variance) and noise
variances are bit-identical.  When they are not, it also prints the first
step at which they differ, the largest |change - parent| of the mean and
the largest of the variance relative to the parent's.  Given the same
directory twice (an A/A run) it should read 1.00 within about 0.01, and
bit-identical.
"""

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pin)


def load_tree(root: Path, alias: str):
    """Import ``root/src/adaptive_sgp`` as the package ``alias``."""
    init = root / "src" / "adaptive_sgp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def stepper(pkg, wl, w, X, y, seed):
    """``perfbench.workloads``' set-up and step for one tree's package."""
    T = w.window_t
    model = pkg.fit_batch(X[:T], y[:T], w.capacity_m, wl.INIT_ITERS,
                          seed=wl.inducing_seed(seed), lr=wl.LR,
                          jitter=wl.JITTER)
    state = pkg.from_batch(model, X[:T], y[:T], w.lam, T, w.capacity_m)
    if w.kind == "fast_agp":
        return state, lambda x, t: pkg.fast_agp_step(state, x, t, wl.R_TH)[1]
    opt = pkg.adam_params(lr=wl.LR)
    return state, lambda x, t: pkg.agp_step(state, opt, x, t, wl.R_TH)[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--steps", type=int, default=None,
                    help="streamed samples (default: the workload's pass)")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(args.change / "src"), str(args.change)]
    from perfbench import workloads as wl

    w = wl.WORKLOADS[args.workload]
    n = args.steps or w.pass_len
    X, y = w.make(w.window_t + n, args.seed)
    trees = [stepper(load_tree(root.resolve(), alias), wl, w, X, y, args.seed)
             for root, alias in ((args.parent, "ab_parent"),
                                 (args.change, "ab_change"))]
    ns = np.empty((2, n))
    out = np.empty((2, 3, n))          # mean, var, noise variance per step
    clock = time.perf_counter_ns
    for i in range(n):
        x, t = X[w.window_t + i], y[w.window_t + i]
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            state, step = trees[j]
            t0 = clock()
            pred = step(x, t)
            ns[j, i] = clock() - t0
            out[j, :, i] = pred.mean, pred.var, state.noise_var

    print(f"workload {w.name}  seed {args.seed}  steps {n}")
    print(f"step time parent/change: median {np.median(ns[0] / ns[1]):.3f}, "
          f"total {ns[0].sum() / ns[1].sum():.3f}")
    print(f"median step us: parent {np.median(ns[0]) / 1e3:.1f}, "
          f"change {np.median(ns[1]) / 1e3:.1f}")
    same = [np.array_equal(out[0, k], out[1, k], equal_nan=True)
            for k in range(3)]
    print("bit-identical: mean {} var {} noise_var {}".format(*same))
    if not all(same):
        a, b = out
        differs = ((a != b) & ~(np.isnan(a) & np.isnan(b))).any(axis=0)
        print(f"first differing step: {int(differs.argmax())}")
        print(f"max |d mean|: {np.nanmax(np.abs(b[0] - a[0])):.3g}  "
              f"max |d var|/var: {np.nanmax(np.abs(b[1] - a[1]) / a[1]):.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
