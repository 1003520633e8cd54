"""The streaming state all four model kinds share (the sliding-window
baseline at lambda = 1): weighted bound, adaptive optimal q and predictive
distribution, relevance scores, and the one guarded update.

The cached cross-moments (s_y, s_k, w_ksum) are the single source of truth
while streaming.  Every cache move is exact: a new sample is a rank-one
update, and a change of the inducing set borders or restricts the cached
kernel matrices and extends or shrinks the cached ``kuu_inv`` by bordered
block identities.  ``rebuild_caches`` recomputes everything from the window
(``bound._window_setup``, which the bound also starts from); only
``from_batch`` and ``_update_or_restore`` call it.

``kxu`` follows one rule: every rebuild keeps the ``Kxu`` block its set-up
built, and every parameter update (``_update_or_restore``) drops it, since
the next update rebuilds everything anyway.  Fast mode never updates its
parameters, so it carries ``kxu`` from ``from_batch`` on; the other kinds
carry it only until their first update.  Every cache move moves ``kxu``
while it is carried.  B_lambda = Kuu~ + s_k/sig2 is never inverted: every
cache move marks ``b_lam`` stale, and ``refresh_b_lam`` factors it once per
step, before the prediction's triangular solve.

A step builds the kernel row k(U, x_new) once (``kernel_row``) and hands
it to the prediction and to every cache move that needs it.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bound, linalg
# kernel_matrix is not called here; perfbench's tracer test pins its binding.
from .kernel import KernelParams, _as_inputs, kernel_column, kernel_matrix
from .errors import DimensionMismatch, InvalidLambda, NotPsd
from .vsgp import (DEFAULT_JITTER, PredictiveDist, VsgpModel, _clamp_var,
                   _check_one_point)

log = logging.getLogger(__name__)


@lru_cache(maxsize=16)
def lambda_weights(t_cur: int, lam: float) -> np.ndarray:
    """Geometric weights [lam^(t_cur-1), ..., lam, 1], oldest first.

    Once the window is full every step asks for the same vector, so the
    result is memoized and returned read-only."""
    if not 0.0 < lam <= 1.0:
        raise InvalidLambda(f"forgetting factor must be in (0, 1], got {lam}")
    w = lam ** np.arange(t_cur - 1, -1, -1, dtype=float)
    w.flags.writeable = False
    return w


@dataclass
class AdaptiveState:
    """Mutable state of one streaming model (single-writer)."""

    window_x: np.ndarray          # T_cur x D, oldest first
    window_y: np.ndarray          # T_cur
    inducing: np.ndarray          # k x D
    params: KernelParams
    log_noise: float
    lam: float
    capacity_m: int
    window_t: int
    jitter: float = DEFAULT_JITTER
    # caches, maintained by rank-one updates, block extend/shrink, or
    # rebuild_caches
    s_y: np.ndarray = field(default=None)      # Kux L y
    s_k: np.ndarray = field(default=None)      # Kux L Kxu
    # (chol(Kuu~ + s_k/sig2), L^-1 s_y); None once a cache move makes it stale
    b_lam: tuple[linalg.CholFactor, np.ndarray] | None = None
    kuu_inv: np.ndarray = field(default=None)  # Kuu~^-1
    kuu: np.ndarray = field(default=None)      # Kuu~ = Kuu + jitter I
    # Kxu (window x inducing): kept by rebuild_caches, dropped after every
    # parameter update (_update_or_restore), so only fast mode streams with it
    kxu: np.ndarray | None = None
    w_ksum: float = 0.0                        # sum_i w_i k(x_i, x_i)
    # counters
    skipped_samples: int = 0                   # non-finite samples not ingested
    skipped_updates: int = 0                   # step updates lost to NotPsd
    rejected_candidates: int = 0               # inducing candidates scored out

    @property
    def noise_var(self) -> float:
        return float(np.exp(self.log_noise))

    @property
    def k_inducing(self) -> int:
        return self.inducing.shape[0]

    def weights(self) -> np.ndarray:
        return lambda_weights(self.window_y.shape[0], self.lam)


def from_batch(model: VsgpModel, window_x, window_y, lam: float,
               window_t: int, capacity_m: int) -> AdaptiveState:
    """Wrap a trained batch model as the initial streaming state.  The
    window may be shorter than ``window_t``, never longer: ``windowed_add``
    evicts only from a full window, so a longer one would never slide."""
    window_x = _as_inputs(window_x)
    window_y = np.asarray(window_y, dtype=float).ravel()
    if window_x.shape[0] != window_y.shape[0]:
        raise DimensionMismatch(f"window_x has {window_x.shape[0]} rows but "
                                f"window_y has {window_y.shape[0]} targets")
    if window_y.shape[0] > window_t:
        raise ValueError(f"window of {window_y.shape[0]} samples is longer "
                         f"than window_t={window_t}")
    state = AdaptiveState(
        window_x=window_x.copy(),
        window_y=window_y.copy(),
        inducing=model.inducing.copy(),
        params=model.params,
        log_noise=model.log_noise,
        lam=lam,
        capacity_m=capacity_m,
        window_t=window_t,
        jitter=model.jitter,
    )
    rebuild_caches(state)
    return state


def skip_nonfinite(state: AdaptiveState, x_new, y_new) -> bool:
    """True, after counting it in ``state.skipped_samples`` and logging a
    warning, when ``x_new`` or ``y_new`` holds an inf or NaN.

    Every streaming step then returns its prediction and leaves its state
    and optimizer as they were, so the rest of the stream runs as if the
    sample had never arrived.  The steps' one opening
    (``fast_agp._predict_and_slide``) calls it before it predicts, so that
    an inf or NaN input never reaches the kernel."""
    if math.isfinite(y_new) and np.isfinite(x_new).all():
        return False
    state.skipped_samples += 1
    log.warning("non-finite sample skipped (x=%s, y=%s); %d skipped so far",
                x_new, y_new, state.skipped_samples)
    return True


def rebuild_caches(state: AdaptiveState) -> None:
    """Recompute s_y, s_k, w_ksum, kuu, kuu_inv and kxu from the window
    (O(T M^2)) and mark b_lam stale.

    Needed after a parameter update; fast mode's inducing-set changes extend
    or shrink the caches instead.  kxu is the set-up's own ``Kxu`` block, so
    keeping it builds nothing more.  ``Kuu~`` is factored once, and kuu
    is the matrix that factor describes (``bound._window_setup``), jitter
    escalation included, so kuu and kuu_inv always describe one matrix."""
    s = bound._window_setup(state.window_x, state.window_y, state.inducing,
                            state.params, state.log_noise, state.weights(),
                            state.jitter)
    state.s_y = s.s_y
    state.s_k = 0.5 * (s.S_k + s.S_k.T)
    state.w_ksum = state.params.variance * float(s.w.sum())
    state.kuu = s.Kuu
    state.kxu = s.Kxu
    state.kuu_inv = linalg.inv_from_factor(s.f_k)
    state.b_lam = None


def _update_or_restore(state: AdaptiveState, move) -> bool:
    """Run ``move()``, which changes the inducing points, kernel or noise,
    and rebuild the caches there; True.  On ``NotPsd`` from either, put
    those three back, rebuild there, count in ``state.skipped_updates`` and
    warn; False, and the caller restores whatever else ``move()`` changed.

    Either way kxu is dropped after the rebuild: the next update rebuilds
    it, so carrying it through the steps between would only move it."""
    before = state.inducing.copy(), state.params, state.log_noise
    try:
        move()
        rebuild_caches(state)
        updated = True
    except NotPsd:
        state.skipped_updates += 1
        log.warning("update skipped: factorization failed")
        state.inducing, state.params, state.log_noise = before
        rebuild_caches(state)
        updated = False
    state.kxu = None
    return updated


def refresh_b_lam(state: AdaptiveState) -> None:
    """Carry L = chol(Kuu~ + s_k/sig2), jitter kept, and L^-1 s_y (O(M^3))."""
    f = linalg.cholesky_psd(state.kuu + state.s_k / state.noise_var, 0.0)
    state.b_lam = f, linalg.solve_lower(f, state.s_y)


def adaptive_bound(state: AdaptiveState) -> float:
    """Forgetting-factor collapsed bound over the current window."""
    return bound.weighted_bound(state.window_x, state.window_y, state.inducing,
                                state.params, state.log_noise, state.weights(),
                                state.jitter)


def adaptive_bound_gradients(state: AdaptiveState) -> dict:
    """Analytic gradient of the adaptive bound over every inducing point and
    the three scalar hyperparameters."""
    return bound.weighted_bound_gradients(
        state.window_x, state.window_y, state.inducing, state.params,
        state.log_noise, state.weights(), state.jitter,
    )


def adaptive_q(state: AdaptiveState):
    """Adaptive optimal variational mean and covariance
    (``bound._q_from_factor`` from the carried factor of B_lambda)."""
    if state.b_lam is None:
        refresh_b_lam(state)
    return bound._q_from_factor(state.b_lam[0], state.s_y, state.kuu,
                                state.noise_var)


def kernel_row(state: AdaptiveState, x) -> np.ndarray:
    """k(U, x) for one input (``kernel_column``)."""
    return kernel_column(state.inducing, x, state.params)


def adaptive_predict(state: AdaptiveState, xstar, *,
                     k_new: np.ndarray | None = None) -> PredictiveDist:
    """Adaptive predictive mean/variance at one query (O(M^2) from caches;
    a stale B_lambda is factored first): with v = L^-1 k, mean =
    v^T L^-1 s_y / sig2 and var = kss - k^T kuu_inv k + v^T v.  ``k_new``
    is ``kernel_row(state, xstar)`` when the caller has it.

    ``xstar`` is one point, shaped (D,) or (1, D); without ``k_new``, a
    query of any other number of rows raises ``DimensionMismatch`` before
    any kernel or factorization."""
    ks = k_new
    if ks is None:
        _check_one_point(xstar, "adaptive_predict")
        ks = kernel_row(state, xstar)
    if state.b_lam is None:
        refresh_b_lam(state)
    f, l_s_y = state.b_lam
    v = linalg.solve_lower(f, ks)
    mean = float(v @ l_s_y) / state.noise_var
    var = state.params.variance - float(ks @ state.kuu_inv @ ks) + float(v @ v)
    return PredictiveDist(mean=mean, var=_clamp_var(var))


def relevance_total(state: AdaptiveState) -> float:
    """Weighted Nystrom residual of the window given the inducing set,
    computed from the caches; clamped at zero."""
    val = state.w_ksum - float((state.kuu_inv * state.s_k).sum())
    return max(val, 0.0)


def removal_scores(kuu_inv: np.ndarray, s_k: np.ndarray) -> np.ndarray:
    """Exact increase of ``relevance_total`` when each inducing point alone
    is removed (the basis-vector removal score of Csato & Opper 2002).

    With P = kuu_inv and S = s_k = Kux L Kxu, removing point m turns P into
    P - P[:, m] P[m, :] / P_mm, so the residual w_ksum - tr(P S) grows by
    Delta_m = (P S P)_mm / P_mm.  It scores a point given all the others,
    so a point that its neighbours already cover scores near zero.  O(M^3)
    from the caches.
    """
    return ((kuu_inv @ s_k) * kuu_inv).sum(axis=1) / kuu_inv.diagonal()
