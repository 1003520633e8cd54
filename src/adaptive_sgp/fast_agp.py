"""Inference-free streaming updates (the fast algorithm): one ingest path
(rank-one data addition and windowed removal), relevance-gated
inducing-point addition, scored before anything moves, and pruning by
block shrink of the cached kernel matrices and ``kuu_inv``.  An admitted
point that the prune's first round follows by a removal takes the removed
point's slot in every cache (the basis-vector replacement of Csato & Opper
2002; ``linalg.inv_replace`` for ``kuu_inv``); any other admission extends
the caches by bordering.  Kernel and noise parameters are never touched
here, so no step rebuilds the caches from the window.

A step of every model kind builds one kernel row per sample, k(U, x_new),
and its product a = kuu_inv k(U, x_new) in the opening all four kinds
share (``_predict_and_slide``), and passes both to the prediction (the
caches', or agp_vsi's explicit q), the slide and fast mode's admission,
each of which builds them itself when they are omitted.
Fast mode carries ``kxu`` from ``from_batch`` on (``adaptive``'s rule: a
rebuild keeps it, only a parameter update drops it, for the reason
``adaptive`` gives), so its slide reads
the departing row from ``kxu`` and its admission builds only the
candidate's column k(X, x_new); the other kinds' slide builds the
departing row as one more ``kernel_row``.  The window and ``kxu`` move
through the state's own methods (``append_sample``, ``evict_sample``,
``add_inducing``, ``replace_inducing``, ``remove_inducing``), which write
O(D + M) numbers into its fixed-capacity buffers per sample and one buffer
row per admission; ``adaptive`` gives the layout, and the views
``window_x``, ``window_y`` and ``kxu`` hold only until the next move;
the three inducing-set edits also keep ``adaptive``'s ledger.
Every one-point kernel is a ``kernel_column`` vector, by differences at
every D (vectors by differences, matrices by one product: a matrix stays
Gram since one product beats D passes about 5x at D=8, as ``kernel``
measures), and each
change of s_k or ``kuu_inv`` by one sample, or by one point added or
removed, is one BLAS rank-one update (``linalg.add_outer``) of a new array;
a replacement's two are written in place.  Every cache move marks
``b_lam`` stale; the cache prediction factors B_lambda first
(``refresh_b_lam``) unless a skip left it current.

Fast mode carries its round of removal scores across slides: the numerators
num = diag(P S P) for P = kuu_inv and S = s_k, the state's ``score_num``;
the denominators are always read as diag(P).  The opening's a = kuu_inv
k(U, x_new) is formed before the slide, which leaves kuu_inv as it is.  The
prediction reads k^T kuu_inv k as k.a, the admission reads a as the
candidate's u, and the slide moves the numerators by rank-one terms (Csato
& Opper 2002), num <- lam num + a*a - lam^T b*b with the departing row's b
= kuu_inv k_old: O(M^2) for b, O(M) for the rest.  These products, and the
candidate's in its O(M^2) scores, are ``ndarray.dot``, the BLAS routine
``@`` calls, at about 0.3 us less per call: at M <= 40 a call's overhead,
not its flops, is what such a product costs.  The one product with the
window's kxu stays ``@``, which BLAS reads in place where ``dot`` would
first copy the strided view.  The admission and the prune read the round
from the state, and nothing else holds it: the candidate's scores on the
bordered set follow from its numerators in O(M^2) (``_bordered_scores``),
and the prune's first round is num / diag(P); the relevance gate reads the
trace tr(P S) in O(M^2) itself (``relevance_total``).  A rejected
candidate, whether its Schur complement or its score refuses it, moves
nothing.  When the prune's first round on the bordered scores names a
point m, as it always does at capacity, the candidate is written into slot
m of kuu, s_k, s_y, kxu and the inducing set, and kuu_inv moves by two
rank-one updates, all in place and O(M^2): no cache is bordered and then
shrunk again.  Only an admission that no removal follows borders the
caches.  Every admission, bordering or replacing, drops the round.  It is
formed fresh (``_standing_round``, O(M^3), bit for bit ``removal_scores``)
and carried by the admission, past its gate, or the prune when the state
carries none, and by the prune after each removal.  So every fast step
ends with its round carried (only the first after ``from_batch`` finds
none), a step that admits nothing and removes no point makes one O(M^3)
call, B_lambda's Cholesky, and a carried round has only ever been slid,
never across a change of the inducing set.  The slide damps the round's
roundoff by lambda only when lambda < 1; at lambda = 1 a stationary stream
can slide one round, undamped, for many steps.
Every public cache move keeps the round exact or drops it;
``adaptive.rebuild_caches`` drops it, so the other kinds, whose every
update rebuilds, never slide one.
"""

import math

import numpy as np

from . import linalg
from .adaptive import (AdaptiveState, adaptive_predict, kernel_row,
                       refresh_b_lam, relevance_total, skip_nonfinite)
from .errors import KxuNotCarried
# kernel_matrix is not called here; perfbench's tracer test pins its binding.
from .kernel import kernel_column, kernel_matrix
from .vsgp import PredictiveDist


def windowed_add(state: AdaptiveState, x_new, y_new: float, *,
                 k_new: np.ndarray | None = None,
                 a: np.ndarray | None = None) -> AdaptiveState:
    """Append one sample, evicting the oldest once the window holds T, and
    update s_y, s_k and w_ksum by rank-one terms (O(M^2)), kxu, when
    carried, by one row and the score round's numerators, when carried,
    by rank-one terms; b_lam is marked stale.

    s_y <- lam*s_y + k_new*y,  s_k <- lam*s_k + k_new k_new^T.  A departing
    sample carries weight lam^T after the new sample's geometric discount,
    so its contribution is removed with that coefficient from every cache.
    So the numerators diag(kuu_inv s_k kuu_inv) move to lam num + a*a -
    lam^T b*b, with a = kuu_inv k_new and b = kuu_inv k_old for the
    departing row k_old: one new array.

    ``k_new`` is ``kernel_row(state, x_new)`` when the caller has it, and
    ``a`` its ``kuu_inv @ k_new``.  The departing sample's row is its kxu
    row while kxu is carried, else one ``kernel_row``."""
    x = np.asarray(x_new, dtype=float).ravel()
    y_new = float(y_new)
    lam, var = state.lam, state.params.variance
    if k_new is None:
        k_new = kernel_row(state, x)
    num = state.score_num
    if num is not None:
        if a is None:
            a = state.kuu_inv.dot(k_new)
        num = lam * num
        num += a * a
    s_y = lam * state.s_y
    s_y += k_new * y_new
    s_k = linalg.add_outer(lam * state.s_k, k_new, k_new)
    w_ksum = lam * state.w_ksum + var
    if state.t_cur == state.window_t:
        x_old, y_old, k_old = state.evict_sample()
        if k_old is None:
            k_old = kernel_row(state, x_old)
        wT = lam ** state.window_t
        s_y -= wT * k_old * float(y_old)
        s_k = linalg.add_outer(s_k, -wT * k_old, k_old)
        w_ksum = w_ksum - wT * var
        if num is not None:
            b = state.kuu_inv.dot(k_old)
            num -= wT * b * b
    state.s_y, state.s_k, state.w_ksum = s_y, s_k, w_ksum
    state.score_num = num
    state.append_sample(x, y_new, k_new)
    state.b_lam = None
    return state


def _predict_and_slide(state: AdaptiveState, x_new, y_new: float,
                       predict=None):
    """The opening of every step: skip an inf or NaN sample
    (``skip_nonfinite``; ``k_new`` is then None and nothing moves), build
    k(U, x_new) once (``kernel_row``) and a = kuu_inv k(U, x_new), predict
    from both with ``predict(k_new, a)`` (by default the caches': factor a
    stale B_lambda, then ``adaptive_predict``), then slide
    (``windowed_add``, which reads a only for a carried score round).
    Returns ``(pred, k_new, a)``; the prediction at an inf or NaN input is
    NaN, without evaluating the kernel there."""
    skipped = skip_nonfinite(state, x_new, y_new)
    if skipped and not np.isfinite(x_new).all():
        return PredictiveDist(mean=math.nan, var=math.nan), None, None
    k_new = kernel_row(state, x_new)
    a = state.kuu_inv.dot(k_new)
    if predict is None:
        if state.b_lam is None:
            refresh_b_lam(state)
        pred = adaptive_predict(state, x_new, k_new=k_new, a=a)
    else:
        pred = predict(k_new, a)
    if skipped:
        return pred, None, None
    windowed_add(state, x_new, y_new, k_new=k_new, a=a)
    return pred, k_new, a


def _border(A: np.ndarray, b: np.ndarray, b0: float) -> np.ndarray:
    """The symmetric bordered matrix [[A, b], [b^T, b0]]."""
    k = A.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = A
    out[:k, k] = b
    out[k, :k] = b
    out[k, k] = b0
    return out


def _put(A: np.ndarray, m: int, b: np.ndarray, b0: float) -> None:
    """Write (b, b0) into row and column ``m`` of the symmetric ``A``, b0 on
    its diagonal."""
    A[m] = b
    A[:, m] = b
    A[m, m] = b0


def _prune_target(r: np.ndarray, r_th: float, max_k: float):
    """The inducing point one round of the greedy prune removes, given the
    round's removal scores ``r``, or None when the prune stops: at one
    point, else the lowest score goes while it is below ``r_th`` times the
    largest or more than ``max_k`` points remain."""
    m = int(r.argmin())
    if r.size < 2 or r.size <= max_k and r[m] >= r_th * float(r.max()):
        return None
    return m


def _standing_round(state: AdaptiveState) -> np.ndarray:
    """Form the caches' score numerators fresh (O(M^3): kuu_inv s_k, then
    diag(kuu_inv s_k kuu_inv)), carry them as the state's ``score_num``
    and return the scores, num / diag(kuu_inv), bit for bit
    ``removal_scores``."""
    kuu_inv = state.kuu_inv
    ps = kuu_inv @ state.s_k
    num = state.score_num = np.add.reduce(
        np.multiply(ps, kuu_inv, out=ps), 1)
    return num / kuu_inv.diagonal()


def _bordered_scores(num: np.ndarray, kuu_inv: np.ndarray, s_k: np.ndarray,
                     u: np.ndarray, s: float, r: np.ndarray,
                     d: float) -> np.ndarray:
    """``removal_scores`` of the bordered set, the candidate last, in
    O(M^2) from the score round's numerators ``num`` = diag(P S P) of P =
    kuu_inv and S = s_k.

    With u = P b and the Schur complement s = b0 - b^T u of the candidate's
    kernel row b and diagonal b0, the bordered inverse is
    [[P, 0], [0, 0]] + v v^T / s with v = [u; -1], and the bordered s_k is
    [[S, r], [r^T, d]].  So with h = P (S u - r), q = v^T [[S, r], [r^T,
    d]] v = u^T S u - 2 r^T u + d and t = u / s, point j scores
    (num_j + t_j (2 h_j + q t_j)) / (P_jj + u_j t_j) and the candidate
    q / s."""
    su = s_k.dot(u)
    h = kuu_inv.dot(su - r)
    q = float(u.dot(su)) - 2.0 * float(r.dot(u)) + d
    t = u / s
    out = np.empty(u.shape[0] + 1)
    np.divide(num + t * (2.0 * h + q * t), kuu_inv.diagonal() + u * t,
              out=out[:-1])
    out[-1] = q / s
    return out


def maybe_add_inducing(state: AdaptiveState, x_new, r_th_tot: float, *,
                       r_th: float | None = None, max_k: float = math.inf,
                       k_new: np.ndarray | None = None,
                       a: np.ndarray | None = None):
    """Adopt ``x_new`` as an inducing point when the weighted Nystrom
    residual (``relevance_total``) exceeds ``r_th_tot``; returns
    ``(state, added)``.

    With ``r_th`` given, the candidate is scored before it is committed (the
    basis-vector scoring of Csato & Opper 2002): the prune's first round
    (``prune_inducing`` with ``r_th`` and ``max_k``) is applied to the
    bordered set's removal scores, which follow in O(M^2) from the score
    round's numerators (``_bordered_scores``), the state's ``score_num``,
    formed fresh and carried past the gate when the state carries none
    (``_standing_round``).  When that round would remove the
    candidate, adding it and then pruning equals not adding it, so every
    cache is left as it was and the candidate is counted in
    ``state.rejected_candidates``.  When it would remove point m, the
    candidate replaces m, which is that add and that first removal with
    the candidate in slot m: it is written into row and column m of kuu
    and s_k, entry m of s_y, kxu's buffer row m (``replace_inducing``) and
    row m of a new inducing array, and kuu_inv is updated in place
    (``linalg.inv_replace``), O(M^2) with nothing bordered.  The defaults
    never reject or replace.

    The state must carry kxu, as fast mode's does from ``from_batch`` on,
    else ``KxuNotCarried`` is raised before anything moves: the
    candidate's s_k row is ``kxu^T W k(X, x_new)``, so the only kernel
    built here is the column k(X, x_new).  A candidate that cannot be
    bordered (a Schur complement that ``linalg.schur_positive`` refuses,
    e.g. a duplicated inducing point at zero jitter) is rejected and
    counted before that column is built.  An admission that replaces no
    point borders kuu and s_k, writes its kxu column (``add_inducing``)
    and grows kuu_inv by bordered block extension (``inv_extend``,
    O(M^2)).  The candidate's diagonal b0 carries the state's jitter and
    the escalation of its last rebuild (``jitter_extra``), as kuu's does.
    Every admission, counted by the state's edit (``adaptive``'s ledger),
    marks b_lam stale and drops the score round, whether it borders or
    replaces.  ``k_new`` is ``kernel_row(state, x_new)`` when the caller
    has it, and ``a`` its ``kuu_inv @ k_new`` (the candidate's u = kuu_inv
    b, which the Schur test, the scores and ``inv_replace`` reuse).
    """
    kxu = state.kxu
    if kxu is None:
        raise KxuNotCarried("maybe_add_inducing needs the state's kxu; "
                            "this state carries none (a parameter update "
                            "drops it)")
    if relevance_total(state) <= r_th_tot:
        return state, False

    x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
    kuu_inv = state.kuu_inv
    b = kernel_row(state, x_new) if k_new is None else k_new
    b0 = state.params.variance + state.jitter + state.jitter_extra
    u = kuu_inv.dot(b) if a is None else a
    s = float(b0 - b.dot(u))
    if not linalg.schur_positive(s, b0):  # x_new is in the inducing set's span
        state.rejected_candidates += 1
        return state, False
    if state.score_num is None:
        _standing_round(state)

    k_x = kernel_column(state.window_x, x_new, state.params)
    wk_x = state.weights() * k_x
    r = kxu.T @ wk_x
    d = float(wk_x.dot(k_x))
    scores = _bordered_scores(state.score_num, kuu_inv, state.s_k, u, s, r,
                              d)
    m = None if r_th is None else _prune_target(scores, r_th, max_k)
    if m == state.k_inducing:
        state.rejected_candidates += 1
        return state, False

    state.score_num = None
    state.b_lam = None
    s_y_new = float(np.dot(wk_x, state.window_y))
    if m is None:
        state.kuu_inv = linalg.inv_extend(kuu_inv, b, b0)
        state.s_k = _border(state.s_k, r, d)
        state.kuu = _border(state.kuu, b, b0)
        state.s_y = np.concatenate((state.s_y, (s_y_new,)))
        state.add_inducing(x_new, k_x)
        return state, True
    # the prune's first round removes point m: the candidate takes its slot
    state.kuu_inv = linalg.inv_replace(kuu_inv, m, u, s)
    _put(state.s_k, m, r, d)
    _put(state.kuu, m, b, b0)
    state.s_y[m] = s_y_new
    state.replace_inducing(m, x_new, k_x)
    return state, True


def prune_inducing(state: AdaptiveState, r_th: float,
                   max_k: int) -> AdaptiveState:
    """Remove inducing points one at a time, always the one whose removal
    raises the weighted Nystrom residual least (``removal_scores``), while
    that increase is below ``r_th`` times the largest or more than ``max_k``
    points remain; never below one.

    Scores come from the cached s_k and kuu_inv, which must match the
    current window, inducing set and kernel.  Each removal builds one index
    array of the points kept, shrinks kuu_inv by ``inv_shrink`` (O(M^2), no
    refactorisation), restricts kuu, s_k and s_y by that array and the
    inducing set by ``remove_inducing`` (which counts the removal and
    shifts kxu's later buffer rows up when carried), marks b_lam stale and
    scores the remaining set afresh, so every round scores it exactly and
    the caches stay exact afterwards.

    The first round is the state's carried score round, num / diag(kuu_inv)
    with num its ``score_num``, when it carries one; every other round, the
    first one too when none is carried, is formed by ``_standing_round``
    (bit for bit ``removal_scores``), which carries it, so a prune always
    leaves a round carried and a fast step's last round serves the next
    step.  agp's state carries none, so its prune forms every round fresh,
    and its update's rebuild drops the last again."""
    num = state.score_num
    scores = (_standing_round(state) if num is None
              else num / state.kuu_inv.diagonal())
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
        scores = _standing_round(state)
        m = _prune_target(scores, r_th, max_k)
    return state


def fast_agp_step(state: AdaptiveState, x_new, y_new: float,
                  r_th: float = 1e-4):
    """One prequential step: predict and slide (``_predict_and_slide``,
    which slides the carried score round), offer the sample as an inducing
    point (gated, then scored against the prune rule from the state's
    round, formed fresh only when the state carries none; at capacity an
    admitted one replaces the point that rule removes first), then prune
    (``prune_inducing``), from the carried round, or from a fresh one after
    an admission, which drops it.  So every step ends with its round
    carried.  Returns ``(state, pred_before)``, the prediction made before
    the new target is used; a skipped sample moves nothing.  The inducing
    set is the same from the prediction to the admission, so all three
    share one kernel row k(U, x_new) and its a = kuu_inv k(U, x_new)."""
    pred, k_new, a = _predict_and_slide(state, x_new, y_new)
    if k_new is None:
        return state, pred
    maybe_add_inducing(state, x_new, state.w_ksum / state.window_t,
                       r_th=r_th, max_k=state.capacity_m, k_new=k_new, a=a)
    prune_inducing(state, r_th, state.capacity_m)
    return state, pred
