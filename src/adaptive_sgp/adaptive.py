"""Forgetting-factor quantities shared by both streaming algorithms:
weighted bound, adaptive optimal q, adaptive predictive distribution, and
the relevance scores that drive inducing-set maintenance.

The cached cross-moments (s_y, s_k, w_ksum) are the single source of truth
while streaming.  Every cache move is exact: a new sample is a rank-one
update, and a change of the inducing set borders or restricts the cached
kernel matrices and extends or shrinks the cached ``kuu_inv`` by bordered
block identities.  ``rebuild_caches`` recomputes everything from the window
(``bound._window_setup``, which the bound also starts from) and is needed
only after a change to the kernel or noise, or when an extension is
numerically rejected.  ``kxu`` is moved only while it is
carried (not ``None``).  B_lambda = Kuu~ + s_k/sig2 is never inverted: every
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
# perfbench test_tracer_installs_everywhere_and_restores pins kernel_matrix
from .kernel import KernelParams, _as_inputs, kernel_column, kernel_matrix
from .errors import InvalidLambda
from .vsgp import DEFAULT_JITTER, PredictiveDist, VsgpModel, _clamp_var

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
    # Kxu (window x inducing), built on first need by fast mode's inducing
    # addition and dropped by rebuild_caches, so full mode never carries it
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
    """Wrap a trained batch model as the initial streaming state."""
    state = AdaptiveState(
        window_x=_as_inputs(window_x).copy(),
        window_y=np.asarray(window_y, dtype=float).ravel().copy(),
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


def skip_nonfinite(state, x_new, y_new) -> bool:
    """True, after counting it in ``state.skipped_samples`` and logging a
    warning, when ``x_new`` or ``y_new`` holds an inf or NaN.

    ``state`` is the step's ``AdaptiveState``, or the ``VsgpModel`` of the
    sliding-window baseline.  Every streaming step then returns its
    prediction and leaves its state and optimizer as they were, so the rest
    of the stream runs as if the sample had never arrived.  Steps call it
    before they predict, so that an inf or NaN input never reaches the
    kernel (``skipped_prediction``)."""
    if math.isfinite(y_new) and np.isfinite(x_new).all():
        return False
    state.skipped_samples += 1
    log.warning("non-finite sample skipped (x=%s, y=%s); %d skipped so far",
                x_new, y_new, state.skipped_samples)
    return True


def skipped_prediction(x_new, predict) -> PredictiveDist:
    """The prediction a step returns for a sample ``skip_nonfinite``
    skipped: ``predict()`` when ``x_new`` is finite (only the target is
    bad), else a NaN mean and variance without evaluating the kernel at the
    inf or NaN input."""
    if np.isfinite(x_new).all():
        return predict()
    return PredictiveDist(mean=math.nan, var=math.nan)


def rebuild_caches(state: AdaptiveState) -> None:
    """Recompute s_y, s_k, w_ksum, kuu, kuu_inv from the window (O(T M^2)),
    drop kxu and mark b_lam stale.

    Needed after a kernel or noise change; inducing-set changes extend or
    shrink the caches instead (``fast_agp``).  kxu is not kept: full mode
    rebuilds after every step and never reads it, and fast mode builds it
    again on its next inducing addition.  ``Kuu~`` is factored once, and a
    jitter escalation of that factor is added to kuu as well, so kuu and
    kuu_inv always describe one matrix."""
    s = bound._window_setup(state.window_x, state.window_y, state.inducing,
                            state.params, state.log_noise, state.weights(),
                            state.jitter)
    state.s_y = s.s_y
    state.s_k = 0.5 * (s.S_k + s.S_k.T)
    state.w_ksum = state.params.variance * float(s.w.sum())
    state.kuu = s.Kuu
    if s.f_k.jitter_used:
        state.kuu = s.Kuu + s.f_k.jitter_used * np.eye(state.k_inducing)
    state.kxu = None
    state.kuu_inv = linalg.inv_from_factor(s.f_k)
    state.b_lam = None


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
    """k(U, x): kernel products between the inducing set and one input."""
    return kernel_column(state.inducing, x, state.params)


def adaptive_predict(state: AdaptiveState, xstar, *,
                     k_new: np.ndarray | None = None) -> PredictiveDist:
    """Adaptive predictive mean/variance at one query (O(M^2) from caches;
    a stale B_lambda is factored first): with v = L^-1 k, mean =
    v^T L^-1 s_y / sig2 and var = kss - k^T kuu_inv k + v^T v.  ``k_new``
    is ``kernel_row(state, xstar)`` when the caller has it."""
    if state.b_lam is None:
        refresh_b_lam(state)
    f, l_s_y = state.b_lam
    ks = kernel_row(state, xstar) if k_new is None else k_new
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
