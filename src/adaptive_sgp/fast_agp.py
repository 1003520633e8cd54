"""Inference-free streaming updates (the fast algorithm): one ingest path
(rank-one data addition and windowed removal), relevance-gated
inducing-point addition, scored before anything is bordered, by block
extension of the cached kernel matrices and ``kuu_inv``, and pruning by
block shrink of the same caches.  Kernel and noise parameters are never
touched here, so no step rebuilds the caches from the window.

A step of every model kind builds one kernel row per sample, k(U, x_new),
in the opening all four kinds share (``_predict_and_slide``), and passes it
to the prediction (the caches', or agp_vsi's explicit q), the slide and
fast mode's admission, each of which builds it itself when it is omitted.
Fast mode carries ``kxu`` from ``from_batch`` on (``adaptive``'s rule: a
rebuild keeps it, only a parameter update drops it, for the reason
``adaptive`` gives), so its slide reads
the departing row from ``kxu`` and its admission builds only the
candidate's column k(X, x_new); the other kinds' slide builds the
departing row as one more ``kernel_row``.  The window and ``kxu`` move
through the state's own methods (``append_sample``, ``evict_sample``,
``add_inducing``, ``remove_inducing``), which write O(D + M) numbers into
its fixed-capacity buffers per sample and one buffer row per admission;
``adaptive`` gives the layout, and the views ``window_x``, ``window_y`` and
``kxu`` hold only until the next move.  Every one-point kernel is a
``kernel_column`` vector, by differences at every D (vectors by
differences, matrices by one product: a matrix stays Gram since one
product beats D passes about 5x at D=8, as ``kernel`` measures), and each
change of s_k or ``kuu_inv`` by one sample or one point is one BLAS
rank-one update (``linalg.add_outer``) of a new array.  Every cache move
marks ``b_lam`` stale; the cache prediction factors B_lambda first
(``refresh_b_lam``) unless a skip left it current.

A fast step makes one O(M^3) round of removal scores, the standing round
of the caches after the slide (``_standing_round``: kuu_inv s_k and the
scores' numerators and denominators), plus one per removal.  It serves
the relevance gate (w_ksum - tr(kuu_inv s_k)), the candidate's scores on
the bordered set, which follow from it in O(M^2) (``_bordered_scores``,
Csato & Opper 2002), and the prune's first round, which the step hands
over as an argument.  Only an admitted candidate borders the caches; a
rejected one, whether its Schur complement or its score refuses it,
moves nothing.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .adaptive import (AdaptiveState, adaptive_predict, kernel_row,
                       refresh_b_lam, relevance_total, removal_scores,
                       skip_nonfinite)
from .errors import KxuNotCarried
# kernel_matrix is not called here; perfbench's tracer test pins its binding.
from .kernel import kernel_column, kernel_matrix
from .vsgp import PredictiveDist


def windowed_add(state: AdaptiveState, x_new, y_new: float, *,
                 k_new: np.ndarray | None = None) -> AdaptiveState:
    """Append one sample, evicting the oldest once the window holds T, and
    update s_y, s_k and w_ksum by rank-one terms (O(M^2)) and kxu, when
    carried, by one row; b_lam is marked stale.

    s_y <- lam*s_y + k_new*y,  s_k <- lam*s_k + k_new k_new^T.  A departing
    sample carries weight lam^T after the new sample's geometric discount,
    so its contribution is removed with that coefficient from every cache.

    ``k_new`` is ``kernel_row(state, x_new)`` when the caller has it.  The
    departing sample's row is its kxu row while kxu is carried, else one
    ``kernel_row``."""
    x = np.asarray(x_new, dtype=float).ravel()
    y_new = float(y_new)
    lam, var = state.lam, state.params.variance
    if k_new is None:
        k_new = kernel_row(state, x)
    s_y = lam * state.s_y + k_new * y_new
    s_k = linalg.add_outer(lam * state.s_k, k_new, k_new)
    w_ksum = lam * state.w_ksum + var
    if state.t_cur == state.window_t:
        x_old, y_old, k_old = state.evict_sample()
        if k_old is None:
            k_old = kernel_row(state, x_old)
        wT = lam ** state.window_t
        s_y = s_y - wT * k_old * float(y_old)
        s_k = linalg.add_outer(s_k, -wT * k_old, k_old)
        w_ksum = w_ksum - wT * var
    state.s_y, state.s_k, state.w_ksum = s_y, s_k, w_ksum
    state.append_sample(x, y_new, k_new)
    state.b_lam = None
    return state


def _predict_and_slide(state: AdaptiveState, x_new, y_new: float,
                       predict=None):
    """The opening of every step: skip an inf or NaN sample
    (``skip_nonfinite``; ``k_new`` is then None and nothing moves), build
    k(U, x_new) once (``kernel_row``), predict from it with
    ``predict(k_new)`` (by default the caches': factor a stale B_lambda,
    then ``adaptive_predict``), then slide (``windowed_add``).  Returns
    ``(pred, k_new)``; the prediction at an inf or NaN input is NaN,
    without evaluating the kernel there."""
    skipped = skip_nonfinite(state, x_new, y_new)
    if skipped and not np.isfinite(x_new).all():
        return PredictiveDist(mean=math.nan, var=math.nan), None
    k_new = kernel_row(state, x_new)
    if predict is None:
        if state.b_lam is None:
            refresh_b_lam(state)
        pred = adaptive_predict(state, x_new, k_new=k_new)
    else:
        pred = predict(k_new)
    if skipped:
        return pred, None
    windowed_add(state, x_new, y_new, k_new=k_new)
    return pred, k_new


def _border(A: np.ndarray, b: np.ndarray, b0: float) -> np.ndarray:
    """The symmetric bordered matrix [[A, b], [b^T, b0]]."""
    k = A.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = A
    out[:k, k] = b
    out[k, :k] = b
    out[k, k] = b0
    return out


def _prune_target(r: np.ndarray, r_th: float, max_k: float):
    """The inducing point one round of the greedy prune removes, given the
    round's removal scores ``r``, or None when the prune stops: at one
    point, else the lowest score goes while it is below ``r_th`` times the
    largest or more than ``max_k`` points remain."""
    m = int(r.argmin())
    if r.size < 2 or r.size <= max_k and r[m] >= r_th * float(r.max()):
        return None
    return m


@dataclass(slots=True)
class _Round:
    """One step's standing round on the caches, made once after the slide
    (``_standing_round``): ``ps`` = kuu_inv s_k, whose trace the relevance
    gate reads, and the removal scores' numerators ``num`` = diag(ps
    kuu_inv) and denominators ``pd`` = diag(kuu_inv).  ``scores`` is what
    the prune's first round reads: num / pd, bit for bit
    ``removal_scores``, until an admission puts the bordered set's scores
    there."""

    ps: np.ndarray
    num: np.ndarray
    pd: np.ndarray
    scores: np.ndarray


def _standing_round(state: AdaptiveState) -> _Round:
    """The caches' one O(M^3) round (``_Round``)."""
    kuu_inv = state.kuu_inv
    ps = kuu_inv @ state.s_k
    num = (ps * kuu_inv).sum(axis=1)
    pd = kuu_inv.diagonal()
    return _Round(ps, num, pd, num / pd)


def _bordered_scores(rnd: _Round, kuu_inv: np.ndarray, s_k: np.ndarray,
                     u: np.ndarray, s: float, r: np.ndarray,
                     d: float) -> np.ndarray:
    """``removal_scores`` of the bordered set, the candidate last, in
    O(M^2) from the standing round ``rnd`` of P = kuu_inv and S = s_k.

    With u = P b and the Schur complement s = b0 - b^T u of the candidate's
    kernel row b and diagonal b0, the bordered inverse is
    [[P, 0], [0, 0]] + v v^T / s with v = [u; -1], and the bordered s_k is
    [[S, r], [r^T, d]].  So with h = P (S u - r), q = v^T [[S, r], [r^T,
    d]] v = u^T S u - 2 r^T u + d and t = u / s, point j scores
    (num_j + t_j (2 h_j + q t_j)) / (pd_j + u_j t_j) and the candidate
    q / s."""
    su = s_k @ u
    h = kuu_inv @ (su - r)
    q = float(u @ su) - 2.0 * float(r @ u) + d
    t = u / s
    out = np.empty(u.shape[0] + 1)
    np.divide(rnd.num + t * (2.0 * h + q * t), rnd.pd + u * t, out=out[:-1])
    out[-1] = q / s
    return out


def maybe_add_inducing(state: AdaptiveState, x_new, r_th_tot: float, *,
                       r_th: float | None = None, max_k: float = math.inf,
                       k_new: np.ndarray | None = None,
                       standing: _Round | None = None):
    """Adopt ``x_new`` as an inducing point when the weighted Nystrom
    residual (``relevance_total``) exceeds ``r_th_tot``; returns
    ``(state, added)``.

    With ``r_th`` given, the candidate is scored before it is committed (the
    basis-vector scoring of Csato & Opper 2002): the prune's first round
    (``prune_inducing`` with ``r_th`` and ``max_k``) is applied to the
    bordered set's removal scores, which follow in O(M^2) from the standing
    round (``_bordered_scores``).  When that round would remove the
    candidate, adding it and then pruning equals not adding it, so every
    cache is left as it was and the candidate is counted in
    ``state.rejected_candidates``.  The defaults never reject.

    The state must carry kxu, as fast mode's does from ``from_batch`` on,
    else ``KxuNotCarried`` is raised before anything moves: the
    candidate's s_k row is ``kxu^T W k(X, x_new)``, so the only kernel
    built here is the column k(X, x_new).  A candidate that cannot be
    bordered (a Schur complement that ``linalg.schur_positive`` refuses,
    e.g. a duplicated inducing point at zero jitter) is rejected and
    counted before that column is built.  Only an admitted candidate
    borders kuu and s_k, writes its kxu column (``add_inducing``), grows
    kuu_inv by bordered block extension (``inv_extend``, O(M^2)) and marks
    b_lam stale.  ``k_new`` is ``kernel_row(state, x_new)`` when the caller
    has it, and ``standing`` the caches' ``_standing_round``, which is made
    here when omitted; an admission writes the bordered scores into it
    for the prune.
    """
    kxu = state.kxu
    if kxu is None:
        raise KxuNotCarried("maybe_add_inducing needs the state's kxu; "
                            "this state carries none (a parameter update "
                            "drops it)")
    if standing is None:
        standing = _standing_round(state)
    if relevance_total(state, standing.ps) <= r_th_tot:
        return state, False

    x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
    kuu_inv = state.kuu_inv
    b = kernel_row(state, x_new) if k_new is None else k_new
    b0 = state.params.variance + state.jitter
    u = kuu_inv @ b
    s = float(b0 - b @ u)
    if not linalg.schur_positive(s, b0):  # x_new is in the inducing set's span
        state.rejected_candidates += 1
        return state, False

    k_x = kernel_column(state.window_x, x_new, state.params)
    wk_x = state.weights() * k_x
    r = kxu.T @ wk_x
    d = float(np.dot(wk_x, k_x))
    scores = _bordered_scores(standing, kuu_inv, state.s_k, u, s, r, d)
    if r_th is not None and _prune_target(scores, r_th,
                                          max_k) == state.k_inducing:
        state.rejected_candidates += 1
        return state, False

    standing.scores = scores
    state.kuu_inv = linalg.inv_extend(kuu_inv, b, b0)
    state.s_k = _border(state.s_k, r, d)
    state.kuu = _border(state.kuu, b, b0)
    state.b_lam = None
    s_y_new = float(np.dot(wk_x, state.window_y))
    state.s_y = np.concatenate((state.s_y, (s_y_new,)))
    state.add_inducing(x_new, k_x)
    return state, True


def prune_inducing(state: AdaptiveState, r_th: float, max_k: int, *,
                   scores: np.ndarray | None = None) -> AdaptiveState:
    """Remove inducing points one at a time, always the one whose removal
    raises the weighted Nystrom residual least (``removal_scores``), while
    that increase is below ``r_th`` times the largest or more than ``max_k``
    points remain; never below one.

    Scores come from the cached s_k and kuu_inv, which must match the
    current window, inducing set and kernel.  Each removal builds one index
    array of the points kept, shrinks kuu_inv by ``inv_shrink`` (O(M^2), no
    refactorisation), restricts kuu, s_k, s_y and the inducing set by that
    array, shifts kxu's later buffer rows up (``remove_inducing``, when
    carried) and marks b_lam stale, so every round scores the remaining set
    exactly and the caches stay exact afterwards.  ``scores`` are the first
    round's when the caller has them (``fast_agp_step`` passes its standing
    round's), so a step scores one O(M^3) round plus one per removal."""
    if scores is None:
        scores = removal_scores(state.kuu_inv, state.s_k)
    m = _prune_target(scores, r_th, max_k)
    while m is not None:
        keep = np.arange(state.k_inducing - 1)     # every index but m
        keep[m:] += 1
        state.kuu_inv = linalg.inv_shrink(state.kuu_inv, m, keep)
        state.b_lam = None
        state.kuu = state.kuu.take(keep, 0).take(keep, 1)
        state.s_k = state.s_k.take(keep, 0).take(keep, 1)
        state.s_y = state.s_y.take(keep)
        state.remove_inducing(m, keep)
        m = _prune_target(removal_scores(state.kuu_inv, state.s_k), r_th,
                          max_k)
    return state


def fast_agp_step(state: AdaptiveState, x_new, y_new: float,
                  r_th: float = 1e-4):
    """One prequential step: predict and slide (``_predict_and_slide``),
    form the caches' standing round once (``_standing_round``), offer the
    sample as an inducing point (gated and scored against the same prune
    rule from that round), then prune, starting from that round's scores
    or, after an admission, the bordered set's.  Returns
    ``(state, pred_before)``, the prediction made before the new target is
    used; a skipped sample moves nothing.  The inducing set is the same
    from the prediction to the admission, so all three share one kernel
    row k(U, x_new)."""
    pred, k_new = _predict_and_slide(state, x_new, y_new)
    if k_new is None:
        return state, pred
    standing = _standing_round(state)
    maybe_add_inducing(state, x_new, state.w_ksum / state.window_t,
                       r_th=r_th, max_k=state.capacity_m, k_new=k_new,
                       standing=standing)
    prune_inducing(state, r_th, state.capacity_m, scores=standing.scores)
    return state, pred
