"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test prints ``CRITERION n: PASS/FAIL - detail`` and records the line
for the end-of-run summary (see conftest), then asserts, so a red criterion
shows up both in the printed line and in the pytest result.
"""

import time
from copy import deepcopy
from functools import partial

import numpy as np
import pytest

import conftest

from adaptive_sgp import adaptive, agp, agp_vsi, bound, fast_agp, harness, vsgp
from adaptive_sgp.adaptive import AdaptiveState, lambda_weights, rebuild_caches
from adaptive_sgp.agp_vsi import VariationalQ
from adaptive_sgp.harness import ExperimentConfig
from adaptive_sgp.kernel import KernelParams

from helpers import fd_gradient, flat_bound_gradients, random_instance, rel

N_SEEDS = 20
TOY_T, TOY_M, TOY_LAM = 100, 10, 0.97724


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_verdicts.append(line)
    assert ok, line


def _grad_rel(analytic, numeric) -> float:
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(1e-6, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


# ---------------------------------------------------------------------------
# shared toy-experiment runs (criteria 5, 6, 7)


def _toy_metrics(kind: str, lam: float, seed: int) -> dict:
    times, targets = harness.synth_toy(seed)
    cfg = ExperimentConfig(model_kind=kind, window_t=TOY_T, capacity_m=TOY_M,
                           lam=lam, seed=seed)
    records, summary = harness.run_experiment(cfg, times, targets)
    return {"mse": summary.mse,
            "coverage": summary.ci95_coverage,
            "transition": harness.transition_mse(records)}


@pytest.fixture(scope="session")
def toy_runs():
    out = {}
    for key, kind, lam in (("agp", "agp", TOY_LAM),
                           ("fast_agp", "fast_agp", TOY_LAM),
                           ("w_vsgp", "w_vsgp", TOY_LAM),
                           ("agp_lam1", "agp", 1.0)):
        out[key] = [_toy_metrics(kind, lam, seed) for seed in range(N_SEEDS)]
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_reduction_law():
    # lam = 1: the weighted bound, optimal q, and predictive must coincide
    # with the batch counterparts on 100 random instances.
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        # Constant input density keeps the kernel matrices well conditioned
        # so the 1e-8 agreement target measures algebra, not jitter noise.
        side = 1.5 * np.sqrt(m + 1)
        X = rng.uniform(-side, side, size=(n, d))
        y = rng.normal(size=n)
        U = rng.uniform(-side, side, size=(m, d))
        params = KernelParams(float(rng.uniform(-0.5, 0.7)),
                              float(rng.uniform(-0.7, -0.2)))
        ln = float(rng.uniform(-2.5, -0.5))
        st = AdaptiveState(window_x=X, window_y=y, inducing=U, params=params,
                           log_noise=ln, lam=1.0, capacity_m=m, window_t=n,
                           jitter=1e-8)
        rebuild_caches(st)

        worst = max(worst, rel(
            adaptive.adaptive_bound(st),
            vsgp.collapsed_bound(X, y, U, params, ln, jitter=st.jitter)))

        mu_a, cov_a = adaptive.adaptive_q(st)
        mu_b, cov_b = vsgp.optimal_q(X, y, U, params, ln, jitter=st.jitter)
        worst = max(worst, rel(mu_a, mu_b), rel(cov_a, cov_b))

        mu_q, cov_q = vsgp.optimal_q(X, y, U, params, ln, jitter=st.jitter)
        model = vsgp.VsgpModel(inducing=U, params=params, log_noise=ln,
                               q_mean=mu_q, q_cov=cov_q, kuu_inv=st.kuu_inv,
                               jitter=st.jitter)
        for xs in X[rng.choice(n, 3)]:
            pa = adaptive.adaptive_predict(st, xs)
            pb = vsgp.predict(model, xs)
            worst = max(worst, rel(pa.mean, pb.mean), rel(pa.var, pb.var))
    dt = time.time() - t0
    _report(1, worst < 1e-8 and dt < 10.0,
            f"lam=1 reduction worst rel err {worst:.2e} over 100 instances "
            f"(bound, q, predictive), {dt:.1f}s")


def test_criterion_2_streaming_cache_oracle():
    # 200 streamed steps with window evictions plus forced inducing-set
    # growth and pruning; every cache must match a from-scratch rebuild.
    t0 = time.time()
    rng = np.random.default_rng(2002)
    X = rng.normal(size=(25, 2)) * 1.5
    y = rng.normal(size=25)
    U = X[rng.choice(25, 5, replace=False)].copy()
    st = AdaptiveState(window_x=X, window_y=y, inducing=U,
                       params=KernelParams(0.2, 0.1), log_noise=-1.5,
                       lam=0.9, capacity_m=12, window_t=25, jitter=1e-6)
    rebuild_caches(st)

    worst = 0.0
    adds = prunes = 0
    for i in range(200):
        x_new = rng.normal(size=2) * 1.5
        fast_agp.windowed_add(st, x_new, float(rng.normal()))
        if i % 3 == 0:
            _, added = fast_agp.maybe_add_inducing(st, x_new, -1.0)
            adds += added
        if i % 4 == 0 and st.k_inducing > 6:
            fast_agp.prune_inducing(st, 1e-4, 6)
            prunes += 1
        ref = deepcopy(st)
        rebuild_caches(ref)
        worst = max(worst,
                    rel(st.s_y, ref.s_y), rel(st.s_k, ref.s_k),
                    rel(st.b_lam, ref.b_lam), rel(st.kuu_inv, ref.kuu_inv))
    dt = time.time() - t0
    _report(2, worst < 1e-7 and dt < 30.0,
            f"cache drift worst rel err {worst:.2e} over 200 steps "
            f"({adds} adds, {prunes} prunes), {dt:.1f}s")


def test_criterion_3_block_extension_oracle():
    # Bordered extension of both cached inverses vs direct inversion, 100
    # random extensions with inducing sets up to size 32 after the add.
    t0 = time.time()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 32))
        n = int(rng.integers(k + 1, 45))
        # Input density is held constant as k grows so the kernel matrix
        # stays well away from singular at every size.
        side = 1.5 * np.sqrt(k + 1)
        X = rng.uniform(-side, side, size=(n, 2))
        y = rng.normal(size=n)
        U = rng.uniform(-side, side, size=(k, 2))
        params = KernelParams(float(rng.uniform(-0.5, 0.7)),
                              float(rng.uniform(-0.7, -0.2)))
        st = AdaptiveState(window_x=X, window_y=y, inducing=U, params=params,
                           log_noise=float(rng.uniform(-2.5, -0.5)),
                           lam=float(rng.uniform(0.7, 1.0)),
                           capacity_m=33, window_t=n, jitter=1e-6)
        rebuild_caches(st)
        x_new = rng.uniform(-side, side, size=2)
        _, added = fast_agp.maybe_add_inducing(st, x_new, -np.inf)
        assert added and st.k_inducing == k + 1
        ref = deepcopy(st)
        rebuild_caches(ref)
        worst = max(worst, rel(st.b_lam, ref.b_lam),
                    rel(st.kuu_inv, ref.kuu_inv))
    dt = time.time() - t0
    _report(3, worst < 1e-7 and dt < 10.0,
            f"extension vs direct inversion worst rel err {worst:.2e} "
            f"over 100 extensions, {dt:.1f}s")


def test_criterion_4_gradient_suite():
    # Analytic gradients of the batch bound, the forgetting-weighted bound,
    # and the explicit-q objective vs central finite differences, 100
    # random instances each.
    t0 = time.time()
    rng = np.random.default_rng(4004)
    worst_batch = worst_weighted = worst_vsi = 0.0

    for _ in range(100):
        X, y, U, params, ln = random_instance(
            rng, n=int(rng.integers(3, 10)), m=int(rng.integers(1, 5)),
            d=int(rng.integers(1, 3)))
        m, d = U.shape

        def f_batch(theta):
            return vsgp.collapsed_bound(
                X, y, theta[:m * d].reshape(m, d),
                KernelParams(theta[-3], theta[-2]), theta[-1])

        theta0 = np.concatenate([U.ravel(), [params.log_variance,
                                             params.log_lengthscale, ln]])
        worst_batch = max(worst_batch, _grad_rel(
            flat_bound_gradients(X, y, U, params, ln), fd_gradient(f_batch, theta0)))

    for _ in range(100):
        X, y, U, params, ln = random_instance(
            rng, n=int(rng.integers(3, 10)), m=int(rng.integers(1, 5)),
            d=int(rng.integers(1, 3)))
        m, d = U.shape
        w = lambda_weights(X.shape[0], float(rng.uniform(0.6, 1.0)))

        def f_weighted(theta):
            return bound.weighted_bound(
                X, y, theta[:m * d].reshape(m, d),
                KernelParams(theta[-3], theta[-2]), theta[-1], w, jitter=1e-8)

        g = bound.weighted_bound_gradients(X, y, U, params, ln, w, jitter=1e-8)
        analytic = np.concatenate([g["inducing"].ravel(),
                                   [g["log_variance"], g["log_lengthscale"],
                                    g["log_noise"]]])
        theta0 = np.concatenate([U.ravel(), [params.log_variance,
                                             params.log_lengthscale, ln]])
        worst_weighted = max(worst_weighted, _grad_rel(
            analytic, fd_gradient(f_weighted, theta0)))

    for _ in range(100):
        X, y, U, params, ln = random_instance(
            rng, n=int(rng.integers(3, 9)), m=int(rng.integers(1, 4)),
            d=int(rng.integers(1, 3)))
        k, d = U.shape
        lam = float(rng.uniform(0.6, 1.0))
        mu0 = rng.normal(size=k)
        L0 = np.tril(0.3 * rng.normal(size=(k, k)))
        np.fill_diagonal(L0, np.abs(np.diag(L0)) + 0.5)
        tril = np.tril_indices(k)

        def unpack(theta):
            i = 0
            mu = theta[i:i + k]; i += k
            Lp = np.zeros((k, k))
            Lp[tril] = theta[i:i + len(tril[0])]; i += len(tril[0])
            L = np.tril(Lp, -1)
            np.fill_diagonal(L, np.exp(np.diag(Lp)))
            Um = theta[i:i + k * d].reshape(k, d); i += k * d
            return mu, L, Um, KernelParams(theta[i], theta[i + 1]), theta[i + 2]

        def f_vsi(theta):
            mu, L, Um, p, lnv = unpack(theta)
            return agp_vsi.elbo_lambda(X, y, Um, p, lnv,
                                       VariationalQ(mean=mu, cov_chol=L), lam)

        g = agp_vsi.elbo_gradients(X, y, U, params, ln,
                                   VariationalQ(mean=mu0, cov_chol=L0), lam)
        analytic = np.concatenate([
            g["q_mean"], g["q_chol"][tril], g["inducing"].ravel(),
            [g["log_variance"], g["log_lengthscale"], g["log_noise"]]])
        Lp0 = np.tril(L0, -1) + np.diag(np.log(np.diag(L0)))
        theta0 = np.concatenate([mu0, Lp0[tril], U.ravel(),
                                 [params.log_variance, params.log_lengthscale,
                                  ln]])
        worst_vsi = max(worst_vsi, _grad_rel(analytic, fd_gradient(f_vsi, theta0)))

    dt = time.time() - t0
    worst = max(worst_batch, worst_weighted, worst_vsi)
    _report(4, worst < 1e-4 and dt < 60.0,
            f"gradient vs finite differences worst rel err: batch {worst_batch:.2e}, "
            f"weighted {worst_weighted:.2e}, explicit-q {worst_vsi:.2e}, {dt:.1f}s")


def test_criterion_5_toy_experiment_ordering(toy_runs):
    mse_agp = float(np.mean([r["mse"] for r in toy_runs["agp"]]))
    mse_fast = float(np.mean([r["mse"] for r in toy_runs["fast_agp"]]))
    mse_w = float(np.mean([r["mse"] for r in toy_runs["w_vsgp"]]))
    ok = (mse_agp < mse_fast < mse_w) and mse_agp < 0.15 and mse_fast < 0.40
    _report(5, ok,
            f"mean MSE over {N_SEEDS} seeds: single-step {mse_agp:.4f} < "
            f"fixed-hyper {mse_fast:.4f} < window-retrain {mse_w:.4f}; "
            f"bands single-step<0.15, fixed-hyper<0.40")


def test_criterion_6_calibration(toy_runs):
    t0 = time.time()
    cov = float(np.mean([r["coverage"] for r in toy_runs["agp"]]))
    draws = np.random.default_rng(6006).normal(size=100_000)
    oracle = float(np.mean(np.abs(draws) < 2.0) * 100.0)
    dt = time.time() - t0
    ok = 90.0 <= cov <= 98.0 and abs(oracle - 95.45) < 0.5 and dt < 60.0
    _report(6, ok,
            f"toy 95% CI coverage {cov:.2f}% (target [90, 98]); "
            f"perfectly-calibrated oracle {oracle:.2f}% (target 95.45 +/- 0.5)")


def test_criterion_7_forgetting_helps_at_transition(toy_runs):
    tr_forget = float(np.mean([r["transition"] for r in toy_runs["agp"]]))
    tr_none = float(np.mean([r["transition"] for r in toy_runs["agp_lam1"]]))
    _report(7, tr_forget < tr_none,
            f"transition-window mean MSE over {N_SEEDS} seeds: "
            f"lam={TOY_LAM} {tr_forget:.4f} vs lam=1.0 {tr_none:.4f} "
            f"(forgetting must be strictly better)")


def _round_robin_us(steps: dict, rounds: int) -> dict:
    """Median wall time in us of each case's step, timed round-robin.

    Host speed drifts within a second, so cases timed one block after
    another compare different host states; taking one step of every case
    per round (order reversed every other round) puts all cases in the same
    time span."""
    keys = list(steps)
    ns = {k: [] for k in keys}
    for j in range(rounds):
        for k in (keys if j % 2 == 0 else keys[::-1]):
            t0 = time.perf_counter_ns()
            steps[k]()
            ns[k].append(time.perf_counter_ns() - t0)
    return {k: float(np.median(v)) / 1000.0 for k, v in ns.items()}


def _stepper(step, X, y, first: int):
    """A closure that feeds samples first, first+1, ... to ``step(x, y)``."""
    idx = iter(range(first, X.shape[0]))

    def one_step():
        i = next(idx)
        step(X[i], y[i])
    return one_step


# agp_step takes about 0.72-0.79 ms at T=50..200 and about 1.03-1.05 us more
# per window sample from T=1600 to 6400 at M=10, D=1 (medians of 60
# round-robin steps at T=50..6400, two runs, on a 2-core x86 host with one
# BLAS thread).  At T=50..200 the fixed part is over four fifths of a step
# and a doubling of T moves the step by under 10%, so the doubling ratio
# there cannot tell O(T M^2) from O(1) or from O(T^2).  From T=1600 the
# fixed part is about half a step or less.  From T=3200 the step's T x M
# temporaries exceed glibc's 128 kB mmap threshold; their page faults are
# part of the per-sample cost (README, Testing).
SCALING_T = (1600, 3200, 6400)


def test_criterion_8_cost_scaling():
    # Half one: fixed-hyper step wall time independent of stream position.
    # The state is snapshotted at stream positions 140 and 390; the 21 steps
    # after each snapshot are then timed round-robin, on five copies of each
    # snapshot.
    times, targets = harness.synth_toy(0)
    X = times[:, None]
    model = vsgp.fit_batch(X[:TOY_T], targets[:TOY_T], TOY_M,
                           iters=200, seed=0)
    st = adaptive.from_batch(model, X[:TOY_T], targets[:TOY_T],
                             TOY_LAM, TOY_T, TOY_M)
    snaps = {}
    for i in range(TOY_T, 390):
        if i == 140:
            snaps[150] = deepcopy(st)
        fast_agp.fast_agp_step(st, times[i], targets[i])
    snaps[400] = st
    copies = range(5)
    med_pos = _round_robin_us(
        {(pos, c): _stepper(partial(fast_agp.fast_agp_step, deepcopy(snap)),
                            X, targets, pos - 10)
         for c in copies for pos, snap in snaps.items()}, rounds=21)
    t150, t400 = (float(np.median([med_pos[pos, c] for c in copies]))
                  for pos in (150, 400))
    pos_ratio = t400 / t150
    fast_ok = pos_ratio < 1.5

    # Half two: single-step optimizer cost linear in window length T at
    # fixed M, ratio per T-doubling within [1.5, 3.0].  Every window comes
    # from one stationary stream and one batch model, lam = 0.1^(1/T) keeps
    # the same weight profile across T, and all windows stream the same
    # samples.
    rng = np.random.default_rng(8008)
    n_steps = 40
    t_max = SCALING_T[-1]
    xs = rng.uniform(-2.0, 2.0, t_max + n_steps)[:, None]
    ys = np.sin(2.0 * xs[:, 0]) + 0.15 * rng.normal(size=xs.shape[0])
    model = vsgp.fit_batch(xs[:TOY_T], ys[:TOY_T], TOY_M, iters=50, seed=0)
    steps = {}
    for T in SCALING_T:
        st = adaptive.from_batch(model, xs[t_max - T:t_max], ys[t_max - T:t_max],
                                 0.1 ** (1.0 / T), T, TOY_M)
        steps[T] = _stepper(partial(agp.agp_step, st, agp.adam_params()),
                            xs, ys, t_max)
    med = _round_robin_us(steps, rounds=n_steps)
    t1, t2, t3 = SCALING_T
    r1 = med[t2] / med[t1]
    r2 = med[t3] / med[t2]
    agp_ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0

    _report(8, fast_ok and agp_ok,
            f"fixed-hyper step position-400/position-150 ratio {pos_ratio:.2f} "
            f"(< 1.5); single-step per-T-doubling ratios {r1:.2f}, {r2:.2f} "
            f"(each within [1.5, 3.0]; medians {med[t1]:.0f}/{med[t2]:.0f}/"
            f"{med[t3]:.0f} us at T={t1}/{t2}/{t3})")
