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
the largest of the variance relative to the parent's.  It also compares
the number of inducing points after every step and prints the first step
at which it differs, so that a roundoff-level change can show that the
inducing trajectory did not move.  Given the same directory twice (an A/A
run) it should read 1.00 within about 0.01, and bit-identical.

``--seeds S1 S2 ...`` repeats all of this on each seed's stream, with new
set-ups, and ends with the number of seeds on which the change won (a
median ratio above 1), a preview of the benchmark's rule that a claimed
gain must win nine of ten pairs.

``--perturb lam`` or ``--perturb lr`` runs the CHANGE tree with the
workload's forgetting factor, or its Adam learning rate (the batch fit's
and, for agp, the stream's), moved up by one ulp (``np.nextafter``);
``--perturb x`` runs it with every input of the stream, the set-up window's
too, moved up by one ulp (the targets stay).  Given one tree twice, that
measures the tree's roundoff sensitivity:

    python3 tools/ab_steps.py DIR DIR --workload toy-agp --perturb lr

Every run also prints each side's prequential MSE over the streamed
samples and its CRPS, scored as the benchmark scores it
(``perfbench.workloads.quality``: the predictive band N(mean, var +
noise variance)), with the change's CRPS less the parent's, so that a
roundoff-level change of the variance reads as a CRPS delta.  When the
inducing-point counts differ, it prints the share of steps at which they
do.  For each side it prints that side's traffic: the number of steps that
grew the inducing set (a border) and that shrank it, and the state's
counters (``COUNTERS``), read by ``getattr`` so that a tree without one
prints None.
"""

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pin)

COUNTERS = ("admitted_candidates", "removed_points", "rejected_candidates",
            "skipped_samples", "skipped_updates")


def load_tree(root: Path, alias: str):
    """Import ``root/src/adaptive_sgp`` as the package ``alias``."""
    init = root / "src" / "adaptive_sgp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def stepper(pkg, wl, w, X, y, seed, lam, lr):
    """``perfbench.workloads``' set-up and step for one tree's package, at
    forgetting factor ``lam`` and learning rate ``lr``."""
    T = w.window_t
    model = pkg.fit_batch(X[:T], y[:T], w.capacity_m, wl.INIT_ITERS,
                          seed=wl.inducing_seed(seed), lr=lr,
                          jitter=wl.JITTER)
    state = pkg.from_batch(model, X[:T], y[:T], lam, T, w.capacity_m)
    if w.kind == "fast_agp":
        return state, lambda x, t: pkg.fast_agp_step(state, x, t, wl.R_TH)[1]
    opt = pkg.adam_params(lr=lr)
    return state, lambda x, t: pkg.agp_step(state, opt, x, t, wl.R_TH)[2]


def compare(trees, w, inputs, y, n, quality):
    """Step both trees in lock-step over ``n`` samples, each on its own
    ``inputs``, and print the comparison, the CRPS by ``quality``
    (``perfbench.workloads.quality``); returns the median ratio
    parent/change of step times."""
    ns = np.empty((2, n))
    out = np.empty((2, 3, n))          # mean, var, noise variance per step
    k_ind = np.empty((2, n + 1), dtype=int)  # inducing points, set-up first
    k_ind[:, 0] = [state.k_inducing for state, _ in trees]
    clock = time.perf_counter_ns
    for i in range(n):
        t = y[w.window_t + i]
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            state, step = trees[j]
            x = inputs[j][w.window_t + i]
            t0 = clock()
            pred = step(x, t)
            ns[j, i] = clock() - t0
            out[j, :, i] = pred.mean, pred.var, state.noise_var
            k_ind[j, i + 1] = state.k_inducing

    ratio = float(np.median(ns[0] / ns[1]))
    print(f"step time parent/change: median {ratio:.3f}, "
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
    target = y[w.window_t:w.window_t + n]
    mse = np.nanmean((out[:, 0] - target) ** 2, axis=1)
    print(f"mse: parent {mse[0]:.6g}, change {mse[1]:.6g}")
    crps = [quality(target, SimpleNamespace(mean=m, var=v, noise_var=nv))
            ["crps"] for m, v, nv in out]
    print(f"crps: parent {crps[0]:.9g}, change {crps[1]:.9g}, "
          f"change - parent {crps[1] - crps[0]:.3g}")
    moved = k_ind[0, 1:] != k_ind[1, 1:]
    print("k_inducing: " + (f"first differs at step {int(moved.argmax())}, "
                            f"differs at {moved.mean():.1%} of steps"
                            if moved.any() else "the same at every step"))
    for side, (state, _), dk in zip(("parent", "change"), trees,
                                    np.diff(k_ind, axis=1)):
        counts = ", ".join(f"{name} {getattr(state, name, None)}"
                           for name in COUNTERS)
        print(f"{side} traffic: grew at {int((dk > 0).sum())} steps, shrank "
              f"at {int((dk < 0).sum())}; {counts}")
    return ratio


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1],
                    help="streams to run, one after another (default: 1)")
    ap.add_argument("--steps", type=int, default=None,
                    help="streamed samples per seed (default: the "
                         "workload's pass)")
    ap.add_argument("--perturb", choices=("lam", "lr", "x"), default=None,
                    help="run CHANGE_DIR with the workload's lambda, "
                         "learning rate or every input one ulp up")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(args.change / "src"), str(args.change)]
    from perfbench import workloads as wl

    w = wl.WORKLOADS[args.workload]
    n = args.steps or w.pass_len
    pkgs = [load_tree(root.resolve(), alias)
            for root, alias in ((args.parent, "ab_parent"),
                                (args.change, "ab_change"))]
    settings = [{"lam": w.lam, "lr": wl.LR} for _ in pkgs]
    if args.perturb in settings[1]:
        value = settings[1][args.perturb]
        settings[1][args.perturb] = float(np.nextafter(value, np.inf))
        note = f"  change's {args.perturb} {settings[1][args.perturb]!r}"
    else:
        note = "  change's inputs one ulp up" if args.perturb else ""
    ratios = []
    for seed in args.seeds:
        X, y = w.make(w.window_t + n, seed)
        inputs = [X, np.nextafter(X, np.inf) if args.perturb == "x" else X]
        trees = [stepper(pkg, wl, w, X_j, y, seed, **kw)
                 for pkg, X_j, kw in zip(pkgs, inputs, settings)]
        print(f"workload {w.name}  seed {seed}  steps {n}{note}")
        ratios.append(compare(trees, w, inputs, y, n, wl.quality))
    if len(ratios) > 1:
        print("median ratio per seed: "
              + " ".join(f"{seed}:{r:.3f}" for seed, r in zip(args.seeds,
                                                              ratios)))
        print(f"change won {sum(r > 1.0 for r in ratios)} of {len(ratios)} "
              "seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
