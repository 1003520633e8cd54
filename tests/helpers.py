"""Shared oracles and instance builders for the test suite.

Everything here is deliberately naive (dense N x N assembly, direct
summation, central finite differences) so it can serve as an independent
check on the O(N M^2) production code paths.
"""

import math
import sys

import numpy as np

from adaptive_sgp import adaptive, bound, linalg
from adaptive_sgp.kernel import KernelParams, kernel_matrix, sq_dists


def b_lam_inv(state):
    """(Kuu~ + s_k/sig2)^-1, the inverse of B_lambda that ``state`` implies:
    from its carried factor, or, when it is stale, from a new factor of its
    kuu and s_k.  The state is left as it is."""
    if state.b_lam is None:
        f = linalg.cholesky_psd(state.kuu + state.s_k / state.noise_var, 0.0)
    else:
        f = state.b_lam[0]
    return linalg.inv_from_factor(f)


def rel(a, b):
    """Max elementwise deviation, relative to the oracle's scale; inf when
    it is not finite (a missing cache, a NaN entry), so that a running
    ``max(worst, rel(...))`` cannot drop it."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dev = float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))
    return dev if math.isfinite(dev) else math.inf


def random_params(rng):
    return KernelParams(
        log_variance=float(rng.uniform(-0.5, 0.7)),
        log_lengthscale=float(rng.uniform(-0.5, 0.5)),
    )


def random_instance(rng, n=None, m=None, d=None):
    """A random (X, y, U, params, log_noise) tuple with benign conditioning."""
    n = n or int(rng.integers(4, 31))
    m = m or int(rng.integers(1, 9))
    d = d or int(rng.integers(1, 4))
    X = rng.normal(size=(n, d)) * 1.5
    y = rng.normal(size=n)
    U = rng.normal(size=(m, d)) * 1.5
    return X, y, U, random_params(rng), float(rng.uniform(-2.5, -0.5))


def make_state(rng, t_cur=None, k=None, d=None, lam=None, window_t=None):
    """A random internally consistent AdaptiveState (caches rebuilt)."""
    t_cur = t_cur or int(rng.integers(3, 20))
    k = k or int(rng.integers(1, 6))
    d = d or int(rng.integers(1, 3))
    lam = lam if lam is not None else float(rng.uniform(0.6, 1.0))
    X, y, U, params, ln = random_instance(rng, n=t_cur, m=k, d=d)
    st = adaptive.AdaptiveState(
        window_x=X, window_y=y, inducing=U, params=params, log_noise=ln,
        lam=lam, capacity_m=max(k + 2, 4), window_t=window_t or t_cur,
        jitter=1e-6)
    adaptive.rebuild_caches(st)
    return st


def dense_weighted_bound(X, y, U, params, log_noise, w, jitter=1e-6):
    """Literal N x N assembly of the forgetting-factor bound."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    n = y.shape[0]
    sig2 = np.exp(log_noise)
    Kuu = kernel_matrix(U, U, params) + jitter * np.eye(U.shape[0])
    Kxu = kernel_matrix(X, U, params)
    Qff = Kxu @ np.linalg.solve(Kuu, Kxu.T)
    cov = np.diag(sig2 / w) + Qff
    sign, ld = np.linalg.slogdet(cov)
    assert sign > 0
    quad = y @ np.linalg.solve(cov, y)
    gauss = -0.5 * (n * np.log(2 * np.pi) + ld + quad)
    middle = -0.5 * np.sum(w - 1.0) * np.log(2 * np.pi * sig2)
    kdiag = params.variance * np.ones(n)
    trace = -0.5 / sig2 * float(np.dot(w, kdiag - np.diag(Qff)))
    return gauss + middle + trace


def flat_bound_gradients(X, y, U, params, log_noise, jitter=1e-6):
    """Gradient of the unit-weight collapsed bound, flattened as
    [U entries row-major, log_variance, log_lengthscale, log_noise]."""
    y = np.asarray(y, dtype=float).ravel()
    g = bound.weighted_bound_gradients(X, y, U, params, log_noise,
                                       np.ones(y.shape[0]), jitter)
    return np.concatenate([
        g["inducing"].ravel(),
        [g["log_variance"], g["log_lengthscale"], g["log_noise"]],
    ])


def reference_bound_gradients(X, y, U, params, log_noise, w, jitter=1e-6):
    """Gradient of the weighted collapsed bound assembled term by term:
    dF/dKuu and dF/dKxu as sums of their separate terms, dense inverses,
    and each kernel partial contracted on its own.  Same dict as
    ``bound.weighted_bound_gradients``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    n, m = y.shape[0], U.shape[0]
    sig2 = np.exp(log_noise)
    ell2 = params.lengthscale**2
    Kuu = kernel_matrix(U, U, params)
    Kxu = kernel_matrix(X, U, params)
    d2_uu, d2_xu = sq_dists(U, U), sq_dists(X, U)
    WKxu = w[:, None] * Kxu
    S_k = Kxu.T @ WKxu
    s_y = Kxu.T @ (w * y)
    Q = np.linalg.inv(Kuu + jitter * np.eye(m))
    B = np.linalg.inv(Kuu + jitter * np.eye(m) + S_k / sig2)
    c = B @ s_y
    WKxuc = WKxu @ c

    G_uu = (-0.5 * (B - Q) - 0.5 * np.outer(c, c) / sig2**2
            - 0.5 * Q @ S_k @ Q / sig2)
    G_xu = (-WKxu @ B / sig2 + np.outer(w * y, c) / sig2**2
            - np.outer(WKxuc, c) / sig2**3 + WKxu @ Q / sig2)

    Cuu, Cxu = G_uu * Kuu, G_xu * Kxu
    g_lv = Cuu.sum() + Cxu.sum() - params.variance * w.sum() / (2.0 * sig2)
    g_ll = ((Cuu * d2_uu).sum() + (Cxu * d2_xu).sum()) / ell2
    H = (G_uu + G_uu.T) * Kuu
    gU = (H @ U - H.sum(axis=1)[:, None] * U
          + Cxu.T @ X - Cxu.sum(axis=0)[:, None] * U) / ell2
    trc = params.variance * w.sum() - np.trace(Q @ S_k)
    g_ln = (-0.5 * (n - np.trace(B @ S_k) / sig2)
            + 0.5 * np.dot(w * y, y) / sig2 - (s_y @ c) / sig2**2
            + 0.5 * (c @ S_k @ c) / sig2**3 - 0.5 * (w.sum() - n)
            + trc / (2.0 * sig2))
    return {"log_variance": float(g_lv), "log_lengthscale": float(g_ll),
            "log_noise": float(g_ln), "inducing": gU}


def reference_inv_extend(Ainv, b, b0):
    """``linalg.inv_extend`` in its elementwise form, for a positive Schur
    complement: the block-inversion identities written out block by block."""
    v = Ainv @ b
    schur = float(b0 - b @ v)
    k = Ainv.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = Ainv + v[:, None] * v / schur
    out[:k, k] = -v / schur
    out[k, :k] = -v / schur
    out[k, k] = 1.0 / schur
    return out


def reference_inv_shrink(Ainv, m):
    """``linalg.inv_shrink`` in its elementwise form, by boolean masks."""
    keep = np.arange(Ainv.shape[0]) != m
    row = Ainv[m, keep] / Ainv[m, m]
    return Ainv[keep][:, keep] - Ainv[keep, m][:, None] * row


def reference_slide_s_k(s_k, lam, k_new, k_old=None, w_old=0.0):
    """``fast_agp.windowed_add``'s s_k in its elementwise form:
    lam s_k + k_new k_new^T, less ``w_old`` k_old k_old^T on an eviction."""
    out = lam * s_k + k_new[:, None] * k_new
    if k_old is not None:
        out = out - w_old * (k_old[:, None] * k_old)
    return out


def dense_gp_lml(X, y, params, log_noise):
    """Exact O(N^3) Gaussian-process log marginal likelihood."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    K = kernel_matrix(X, X, params) + np.exp(log_noise) * np.eye(n)
    sign, ld = np.linalg.slogdet(K)
    quad = y @ np.linalg.solve(K, y)
    return -0.5 * (n * np.log(2 * np.pi) + ld + quad)


def fd_gradient(f, x0, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        step = h * max(1.0, abs(x0[i]))
        xp = x0.copy(); xp[i] += step
        xm = x0.copy(); xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


def grad_close(analytic, numeric, tol=1e-4):
    """Relative agreement with a floor so near-zero entries do not blow up."""
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(1e-6, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale < tol


def spd_matrix(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def piecewise_sinusoid(n, seed, seg_len=250):
    """D=1 non-stationary stream: sorted sample times at 100 per unit, a
    target a*sin(phase) whose (amplitude, frequency) regime switches every
    ``seg_len`` samples with a continuous phase, plus N(0, 0.2^2) noise."""
    rng = np.random.default_rng(seed)
    regimes = ((2.0, 8.0), (0.5, 4.0), (1.0, 6.0), (1.5, 5.0))
    span = seg_len / 100.0
    times, signal, phase = [], [], 0.0
    for s in range(-(-n // seg_len)):
        amp, freq = regimes[s % len(regimes)]
        offset = np.sort(rng.uniform(0.0, span, seg_len))
        times.append(s * span + offset)
        signal.append(amp * np.sin(phase + freq * offset))
        phase += freq * span
    y = np.concatenate(signal)[:n] + rng.normal(0.0, 0.2, n)
    return np.concatenate(times)[:n, None], y


def lagged_series(n, seed, lags=8, seg_len=150):
    """D=``lags`` stream: each row holds ``lags`` consecutive values of a
    sum of two sinusoids whose periods switch every ``seg_len`` samples,
    plus noise; the target is the value one step after the row."""
    rng = np.random.default_rng(seed)
    regimes = ((40.0, 9.0, 1.0, 0.3), (25.0, 6.0, 0.7, 0.5),
               (60.0, 13.0, 1.4, 0.2))
    total = n + lags
    i = np.arange(total, dtype=float)
    p1, p2, a1, a2 = np.array(
        [regimes[int(k // seg_len) % len(regimes)] for k in i]).T
    series = (a1 * np.sin(2.0 * np.pi * i / p1) + a2 * np.sin(2.0 * np.pi * i / p2)
              + rng.normal(0.0, 0.2, total))
    X = np.lib.stride_tricks.sliding_window_view(series[:-1], lags).copy()
    return X, series[lags:].copy()


def _bindings(owner, name):
    """``owner.name`` and the namespaces that bind it: ``owner`` and every
    ``adaptive_sgp`` module holding the same object under that name (a
    ``from .x import name`` binding), so that no call path escapes."""
    original = getattr(owner, name)
    owners = [owner] + [
        mod for key, mod in list(sys.modules.items())
        if (key == "adaptive_sgp" or key.startswith("adaptive_sgp."))
        and mod is not owner and getattr(mod, name, None) is original]
    return original, owners


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name``, in every namespace that binds it
    (``_bindings``), by one counting wrapper around the original; returns
    the one-element call counter."""
    original, owners = _bindings(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def record_calls(monkeypatch, owner, *names):
    """Replace each ``owner.name``, in every namespace that binds it
    (``_bindings``), by one wrapper around the original that records each
    call's positional array arguments, each as a 2-D array (a 1-D one as a
    row); returns the one list of recorded argument tuples, in call order
    across all ``names``."""
    calls = []

    def recorder(original):
        def recorded(*args, **kwargs):
            calls.append(tuple(np.atleast_2d(np.asarray(a, dtype=float))
                               for a in args if isinstance(a, np.ndarray)))
            return original(*args, **kwargs)
        return recorded

    for name in names:
        original, owners = _bindings(owner, name)
        for ns in owners:
            monkeypatch.setattr(ns, name, recorder(original))
    return calls


def builds_between(calls, A, *points) -> int:
    """How many recorded kernel builds were between ``A`` and a set of rows
    that holds every one of ``points`` (each one point), in either order: a
    build of several rows counts for each point among them."""
    A = np.atleast_2d(A)
    points = [np.atleast_2d(p) for p in points]

    def holds(X, Z):
        return np.array_equal(X, A) and all(
            Z.shape[1] == p.shape[1] and (Z == p).all(axis=1).any()
            for p in points)

    return sum(len(c) == 2 and (holds(*c) or holds(*c[::-1])) for c in calls)
