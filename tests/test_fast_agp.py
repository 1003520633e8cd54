import copy
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from adaptive_sgp import adaptive, agp, fast_agp, harness, kernel, linalg, vsgp
from adaptive_sgp.errors import KxuNotCarried
from adaptive_sgp.kernel import KernelParams, kernel_matrix

from helpers import (b_lam_inv, builds_between, count_calls, lagged_series,
                     make_state, piecewise_sinusoid, random_instance,
                     record_calls, reference_slide_s_k, rel)


def _fresh(state):
    out = copy.deepcopy(state)
    adaptive.rebuild_caches(out)
    return out


def _cache(state, name):
    """A cache by name; "b_lam" is the B_lambda inverse the state implies."""
    return b_lam_inv(state) if name == "b_lam" else getattr(state, name)


def _caches_match(state, tol=1e-8):
    fresh = _fresh(state)
    for name in ("s_y", "s_k", "b_lam", "kuu_inv", "kuu"):
        assert rel(_cache(state, name), _cache(fresh, name)) < tol, name
    assert abs(state.w_ksum - fresh.w_ksum) < tol * max(1, abs(fresh.w_ksum))
    if state.kxu is not None:
        assert rel(state.kxu, kernel_matrix(state.window_x, state.inducing,
                                            state.params)) < tol


CACHES = ("s_y", "s_k", "b_lam", "kuu_inv", "kuu", "inducing")


# Below T samples windowed_add evicts nothing: a pure rank-one add.


def test_rank1_add_base_case():
    rng = np.random.default_rng(0)
    st = make_state(rng, t_cur=1, k=3, d=1, lam=1.0, window_t=10)
    # start from an empty history
    st.set_window(np.zeros((0, 1)), np.zeros(0))
    adaptive.rebuild_caches(st)
    x1, y1 = np.array([0.4]), 1.3
    fast_agp.windowed_add(st, x1, y1)
    k1 = kernel_matrix(st.inducing, x1[None, :], st.params).ravel()
    assert np.allclose(st.s_y, k1 * y1)
    assert np.allclose(st.s_k, np.outer(k1, k1))


def test_rank1_add_sequence_matches_from_scratch():
    rng = np.random.default_rng(1)
    st = make_state(rng, t_cur=3, k=4, d=2, lam=0.9, window_t=40)
    for _ in range(12):
        fast_agp.windowed_add(st, rng.normal(size=2), float(rng.normal()))
    _caches_match(st)


def test_rank1_add_geometric_accumulation():
    rng = np.random.default_rng(2)
    st = make_state(rng, t_cur=1, k=2, d=1, lam=0.5, window_t=10)
    st.set_window(np.zeros((0, 1)), np.zeros(0))
    adaptive.rebuild_caches(st)
    x, y = np.array([0.2]), 0.7
    fast_agp.windowed_add(st, x, y)
    fast_agp.windowed_add(st, x, y)
    k = kernel_matrix(st.inducing, x[None, :], st.params).ravel()
    assert np.allclose(st.s_y, 1.5 * k * y)


def test_windowed_add_identical_samples_no_forgetting():
    rng = np.random.default_rng(3)
    st = make_state(rng, t_cur=1, k=2, d=1, lam=1.0, window_t=3)
    x, y = np.array([0.1]), 1.0
    st.set_window(np.tile(x, (3, 1)), np.full(3, y))
    adaptive.rebuild_caches(st)
    before = (st.s_y.copy(), st.s_k.copy(), st.w_ksum)
    fast_agp.windowed_add(st, x, y)
    assert np.allclose(st.s_y, before[0])
    assert np.allclose(st.s_k, before[1])
    assert st.w_ksum == pytest.approx(before[2])


def test_windowed_add_stream_matches_from_scratch():
    rng = np.random.default_rng(4)
    st = make_state(rng, t_cur=10, k=4, d=2, lam=0.9, window_t=10)
    for _ in range(30):
        fast_agp.windowed_add(st, rng.normal(size=2), float(rng.normal()))
        _caches_match(st)
    assert st.window_y.shape[0] == 10


def test_windowed_add_degenerate_window():
    rng = np.random.default_rng(5)
    st = make_state(rng, t_cur=1, k=2, d=1, lam=0.8, window_t=1)
    for _ in range(5):
        x, y = rng.normal(size=1), float(rng.normal())
        fast_agp.windowed_add(st, x, y)
        assert st.window_y.shape[0] == 1
        assert st.window_y[0] == y
        _caches_match(st)


def test_maybe_add_gate_closed():
    rng = np.random.default_rng(7)
    st = make_state(rng, t_cur=8, k=3, d=2)
    before = copy.deepcopy(st)
    out, added = fast_agp.maybe_add_inducing(st, rng.normal(size=2), np.inf)
    assert not added
    assert np.array_equal(out.inducing, before.inducing)
    assert np.array_equal(out.s_y, before.s_y)


def test_maybe_add_extension_matches_from_scratch():
    rng = np.random.default_rng(8)
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2)
        x_new = st.window_x[-1]
        _, added = fast_agp.maybe_add_inducing(st, x_new, -1.0)
        assert added
        assert st.k_inducing == 4
        _caches_match(st, tol=1e-7)


def test_maybe_add_carries_kxu_through_slides_adds_and_prunes(monkeypatch):
    # The rebuild that made the state keeps kxu; every slide, admission and
    # prune moves it exactly, and no admission builds a kernel_matrix.
    rng = np.random.default_rng(19)
    st = make_state(rng, t_cur=10, k=3, d=2, lam=0.9, window_t=10)
    matrices = count_calls(monkeypatch, kernel, "kernel_matrix")
    for i in range(30):
        x = rng.normal(size=2)
        fast_agp.windowed_add(st, x, float(rng.normal()))
        if i % 2 == 0:
            fast_agp.maybe_add_inducing(st, x, -1.0)
        if i % 5 == 0:
            fast_agp.prune_inducing(st, 1e-4, 4)
        assert matrices[0] == 0, i
        assert st.kxu is not None, i
        _caches_match(st)


def test_maybe_add_rejects_candidate_the_prune_would_remove_first():
    # At capacity, a candidate far from every window input covers nothing,
    # so the prune's first round would remove it: no cache moves.
    rng = np.random.default_rng(20)
    st = make_state(rng, t_cur=12, k=4, d=2)
    before = copy.deepcopy(st)
    _, added = fast_agp.maybe_add_inducing(st, np.array([50.0, 50.0]), -1.0,
                                           r_th=1e-4, max_k=4)
    assert not added
    assert st.rejected_candidates == 1
    for name in CACHES:
        assert np.array_equal(_cache(st, name), _cache(before, name)), name
    # the window kernel built for scoring is kept, exact
    _caches_match(st)


def _scripted_prune(monkeypatch, *targets):
    """Make the prune's rounds, the candidate's scored one included, name
    ``targets`` in turn, whatever they score."""
    names = iter(targets)
    monkeypatch.setattr(fast_agp, "_prune_target", lambda *_: next(names))


def _slot_order(m, k):
    """The slots of a set whose slot ``m`` holds a candidate, in the order
    of bordering it (the candidate last) and then removing point m."""
    return np.r_[:m, m + 1:k, m]


def test_maybe_add_scored_admission_equals_unscored_add(monkeypatch):
    # A scored admission that the prune's first round follows by no removal
    # borders every cache as the unscored add does, bit for bit.  One that
    # it follows by removing point m puts the candidate in slot m instead:
    # the unscored add, then that removal, copies the same kernel values,
    # targets and kxu column, in another slot order (kuu_inv:
    # test_replacement_equals_border_then_first_removal).
    rng = np.random.default_rng(21)
    replaced = 0
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2)
        ref = copy.deepcopy(st)
        x_new = st.window_x[-1]
        _, added = fast_agp.maybe_add_inducing(st, x_new, -1.0, r_th=1e-4,
                                               max_k=10)
        fast_agp.maybe_add_inducing(ref, x_new, -1.0)
        assert added and st.rejected_candidates == 0
        if st.removed_points == 0:
            for name in CACHES + ("kxu",):
                assert np.array_equal(_cache(st, name),
                                      _cache(ref, name)), name
            continue
        replaced += 1
        m = int(np.flatnonzero((st.inducing != ref.inducing[:3]).any(1))[0])
        with monkeypatch.context() as mp:
            _scripted_prune(mp, m, None)
            fast_agp.prune_inducing(ref, 1e-4, 10)
        order = _slot_order(m, 3)
        assert np.array_equal(st.inducing[order], ref.inducing)
        assert np.array_equal(st.s_y[order], ref.s_y)
        assert np.array_equal(st.kxu[:, order], ref.kxu)
        for name in ("s_k", "kuu"):
            assert np.array_equal(getattr(st, name)[np.ix_(order, order)],
                                  getattr(ref, name)), name
    assert 0 < replaced < 10


def test_maybe_add_duplicate_point_falls_back():
    rng = np.random.default_rng(9)
    st = make_state(rng, t_cur=8, k=3, d=2)
    dup = st.inducing[0]
    _, added = fast_agp.maybe_add_inducing(st, dup, -1.0)
    assert added
    assert st.k_inducing == 4
    _caches_match(st, tol=1e-6)


def test_unborderable_candidate_is_rejected_with_caches_kept(monkeypatch):
    # At zero jitter a copy of an inducing point makes the bordered Kuu
    # singular, so its Schur complement is roundoff and the border is
    # refused.  Fast mode tests the complement first: it rejects the
    # candidate and counts it before building its window column k(X, x),
    # never extends or rebuilds, and every cache stays as it was, bit for
    # bit.
    rng = np.random.default_rng(9)
    st = make_state(rng, t_cur=8, k=3, d=2)
    st.jitter = 0.0
    adaptive.rebuild_caches(st)
    before = copy.deepcopy(st)
    extends = count_calls(monkeypatch, linalg, "inv_extend")
    rebuilds = count_calls(monkeypatch, adaptive, "rebuild_caches")
    kernel_calls = record_calls(monkeypatch, kernel, "kernel_column")
    dup = st.inducing[0].copy()
    _, added = fast_agp.maybe_add_inducing(st, dup, -1.0)
    assert not added and st.rejected_candidates == 1
    assert extends[0] == 0 and rebuilds[0] == 0
    assert builds_between(kernel_calls, before.window_x, dup) == 0
    assert builds_between(kernel_calls, before.inducing, dup) == 1
    for name in ("inducing", "window_x", "window_y", "s_y", "s_k", "kuu",
                 "kuu_inv", "kxu"):
        assert np.array_equal(getattr(st, name), getattr(before, name)), name
    assert st.w_ksum == before.w_ksum and st.b_lam is None


def test_prune_keeps_equally_relevant_set():
    rng = np.random.default_rng(10)
    st = make_state(rng, t_cur=6, k=1, d=1)
    # symmetric placement: equal relevance for both points
    st.set_window(np.array([[0.0]] * 6), st.window_y)
    st.inducing = np.array([[-0.5], [0.5]])
    adaptive.rebuild_caches(st)
    fast_agp.prune_inducing(st, 1e-4, 4)
    assert st.k_inducing == 2


def test_prune_removes_orthogonal_point():
    rng = np.random.default_rng(11)
    st = make_state(rng, t_cur=6, k=3, d=1)
    st.inducing = np.vstack([st.inducing, [[1e6]]])
    adaptive.rebuild_caches(st)
    fast_agp.prune_inducing(st, 1e-4, 10)
    assert st.k_inducing == 3
    assert not np.any(st.inducing == 1e6)
    _caches_match(st)


def test_prune_enforces_capacity_and_floor():
    rng = np.random.default_rng(12)
    st = make_state(rng, t_cur=10, k=5, d=2)
    fast_agp.prune_inducing(st, 2.0, 3)  # threshold removes all but the max
    assert 1 <= st.k_inducing <= 3
    _caches_match(st)


def test_prune_matches_greedy_remove_and_rebuild_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        st = make_state(rng, t_cur=int(rng.integers(8, 20)),
                        k=int(rng.integers(3, 8)))
        max_k = int(rng.integers(1, st.k_inducing))
        ref = copy.deepcopy(st)
        while ref.k_inducing > 1:
            r = adaptive.removal_scores(ref.kuu_inv, ref.s_k)
            m = int(np.argmin(r))
            if ref.k_inducing <= max_k and r[m] >= 1e-4 * np.max(r):
                break
            ref.inducing = np.delete(ref.inducing, m, axis=0)
            adaptive.rebuild_caches(ref)
        fast_agp.prune_inducing(st, 1e-4, max_k)
        assert np.array_equal(st.inducing, ref.inducing)
        _caches_match(st)


def test_prune_keeps_one_of_duplicated_points():
    rng = np.random.default_rng(18)
    st = make_state(rng, t_cur=12, k=3, d=1)
    dup = st.inducing[:1].copy()
    st.inducing = np.vstack([st.inducing, dup])
    adaptive.rebuild_caches(st)
    # each copy alone is redundant given the other, but not both together
    fast_agp.prune_inducing(st, 1e-4, 10)
    assert st.k_inducing == 3
    assert np.sum(np.all(st.inducing == dup, axis=1)) == 1
    _caches_match(st)


def test_step_add_rate_low_on_stationary_stream():
    rng = np.random.default_rng(13)
    x_all = rng.uniform(-1, 1, 160)
    y_all = np.sin(2 * x_all) + 0.1 * rng.normal(size=160)
    model = vsgp.fit_batch(x_all[:40, None], y_all[:40], M=8, iters=100, seed=0)
    st = adaptive.from_batch(model, x_all[:40, None], y_all[:40],
                             lam=1.0, window_t=40, capacity_m=8)
    adds = 0
    for i in range(40, 160):
        k_before = st.k_inducing
        u_before = st.inducing.copy()
        fast_agp.fast_agp_step(st, x_all[i], y_all[i])
        if st.k_inducing != k_before or not np.array_equal(st.inducing[:k_before],
                                                           u_before[:st.k_inducing][:k_before]):
            adds += 1
    assert adds / 120 < 0.10


def test_step_recovers_batch_solution():
    rng = np.random.default_rng(14)
    x_all = np.sort(rng.uniform(-2, 2, 30))
    y_all = np.sin(x_all) + 0.1 * rng.normal(size=30)
    model = vsgp.fit_batch(x_all[:10, None], y_all[:10], M=5, iters=50, seed=1)
    st = adaptive.from_batch(model, x_all[:10, None], y_all[:10],
                             lam=1.0, window_t=100, capacity_m=5)
    for i in range(10, 30):
        pred = adaptive.adaptive_predict(st, x_all[i])
        fast_agp.windowed_add(st, x_all[i], y_all[i])  # no add/prune path
        del pred
    # the batch model's q on all data, with a directly inverted Kuu~
    mu, A = vsgp.optimal_q(x_all[:, None], y_all, model.inducing,
                           model.params, model.log_noise, model.jitter)
    kuu = kernel_matrix(model.inducing, model.inducing, model.params)
    batch = vsgp.VsgpModel(
        inducing=model.inducing, params=model.params,
        log_noise=model.log_noise, q_mean=mu, q_cov=A,
        kuu_inv=np.linalg.inv(kuu + model.jitter * np.eye(kuu.shape[0])),
        jitter=model.jitter)
    for xq in np.linspace(-2, 2, 9):
        pa = adaptive.adaptive_predict(st, np.array([xq]))
        pb = vsgp.predict(batch, np.array([xq]))
        assert pa.mean == pytest.approx(pb.mean, abs=1e-7)
        assert pa.var == pytest.approx(pb.var, abs=1e-7)


def test_step_toy_stream_fast_enough():
    t, y = harness.synth_toy(0)
    model = vsgp.fit_batch(t[:100, None], y[:100], M=10, iters=200, seed=0)
    st = adaptive.from_batch(model, t[:100, None], y[:100],
                             lam=0.97724, window_t=100, capacity_m=10)
    t0 = time.perf_counter()
    for i in range(100, 500):
        fast_agp.fast_agp_step(st, t[i], y[i])
    assert time.perf_counter() - t0 < 1.0


def test_step_inducing_count_bounds_and_determinism():
    def run():
        rng = np.random.default_rng(15)
        st = make_state(rng, t_cur=12, k=3, d=1, lam=0.9, window_t=12)
        st.capacity_m = 5
        decisions = []
        for _ in range(80):
            fast_agp.fast_agp_step(st, rng.normal(size=1), float(rng.normal()))
            assert 1 <= st.k_inducing <= 5
            decisions.append(st.k_inducing)
        return decisions, st.inducing.copy()

    d1, u1 = run()
    d2, u2 = run()
    assert d1 == d2
    assert np.array_equal(u1, u2)


def _stream_state(X, y, T, M, lam, iters):
    model = vsgp.fit_batch(X[:T], y[:T], M, iters, seed=0)
    return adaptive.from_batch(model, X[:T], y[:T], lam, T, M)


def _newcomer_pruned_first(st, r_th):
    """Whether the prune's first round removes the last inducing point,
    computed here from the removal scores and the prune's stopping rule."""
    r = adaptive.removal_scores(st.kuu_inv, st.s_k)
    m = int(np.argmin(r))
    stops = st.k_inducing <= st.capacity_m and r[m] >= r_th * np.max(r)
    return not stops and m == st.k_inducing - 1


def _same_rows(A, B):
    """Whether A and B hold the same rows, in any order."""
    return np.array_equal(A[np.lexsort(A.T)], B[np.lexsort(B.T)])


# The D=1 stream rejects no candidate (its 129 inducing-set changes are all
# admissions), so it checks the admitted path; the D=8 stream rejects 692
# of its candidates.
@pytest.mark.parametrize("stream, T, M, lam, n_steps, min_rejected", [
    (lambda: piecewise_sinusoid(2100, 0), 100, 10, 0.97724, 2000, 0),
    (lambda: lagged_series(1400, 0), 400, 40, 0.1 ** (1 / 400), 1000, 500),
], ids=["d1", "lag8"])
def test_scoring_first_equals_add_then_prune(stream, T, M, lam, n_steps,
                                             min_rejected):
    # Reference: admit every candidate past the relevance gate, then prune.
    # A candidate the prune removes first is exactly one fast_agp_step
    # rejects, so the inducing sets agree at every step and the rejections
    # equal a hand count of those candidates.  fast_agp_step puts an
    # admitted candidate in the slot of the point the prune's first round
    # removes, the reference last, so the sets agree up to slot order.
    X, y = stream()
    st = _stream_state(X, y, T, M, lam, 50)
    ref = copy.deepcopy(st)
    hand_count = 0
    for i in range(T, T + n_steps):
        fast_agp.fast_agp_step(st, X[i], y[i])
        fast_agp.windowed_add(ref, X[i], y[i])
        _, added = fast_agp.maybe_add_inducing(ref, X[i],
                                               ref.w_ksum / ref.window_t)
        hand_count += added and _newcomer_pruned_first(ref, 1e-4)
        fast_agp.prune_inducing(ref, 1e-4, M)
        assert _same_rows(st.inducing, ref.inducing), i
        assert st.rejected_candidates == hand_count, i
    assert hand_count >= min_rejected
    assert ref.rejected_candidates == 0


def test_a_fast_step_forms_a_round_only_per_removal_or_when_none_is_carried(
        monkeypatch):
    # The state carries its score round across slides, which move it by
    # rank-one terms.  A fast step forms a round fresh (_standing_round,
    # O(M^3)) only when its state carries none, after each removal and
    # after a bordering admission; the gate, the candidate's bordered
    # scores and the prune's first round read the state's round.  Every
    # admission drops the round and the prune forms it again, so the round
    # is never None after a step.  removal_scores is never called.
    X, y = piecewise_sinusoid(700, 0)
    st = _stream_state(X, y, 100, 10, 0.97724, 50)
    fresh = count_calls(monkeypatch, fast_agp, "_standing_round")
    scores = count_calls(monkeypatch, adaptive, "removal_scores")
    borders = count_calls(monkeypatch, linalg, "inv_extend")
    admit, added = fast_agp.maybe_add_inducing, []

    def recorded(*args, **kwargs):
        out = admit(*args, **kwargs)
        added.append(out[1])
        return out

    monkeypatch.setattr(fast_agp, "maybe_add_inducing", recorded)
    pruned_admissions = quiet_steps = 0
    for i in range(100, 700):
        k, rounds, bordered = st.k_inducing, fresh[0], borders[0]
        carried = st.score_num is not None
        fast_agp.fast_agp_step(st, X[i], y[i])
        removed = k + added[-1] - st.k_inducing
        bordered = borders[0] - bordered
        pruned_admissions += added[-1] and removed > 0
        quiet_steps += carried and removed == 0
        assert fresh[0] - rounds == (not carried) + removed + bordered, i
        assert st.score_num is not None, i
    assert scores[0] == 0
    assert len(added) == 600 and pruned_admissions > 0 and quiet_steps > 0
    assert not all(added)


def test_a_bordering_fast_step_forms_one_round_and_ends_with_it_carried(
        monkeypatch):
    # Below capacity an admission that the prune's first round follows by
    # no removal borders the caches.  It drops the score round like every
    # admission, and the step's prune forms it again: one fresh round, the
    # same count as a replacement, and the state ends every step with a
    # round carried that a fresh _standing_round on its caches matches.
    X, y = piecewise_sinusoid(700, 0)
    model = vsgp.fit_batch(X[:100], y[:100], 6, 200, seed=1)
    st = adaptive.from_batch(model, X[:100], y[:100], 0.97724, 100, 10)
    fresh = count_calls(monkeypatch, fast_agp, "_standing_round")
    borders = count_calls(monkeypatch, linalg, "inv_extend")
    bordering_steps = 0
    for i in range(100, 700):
        rounds, bordered = fresh[0], borders[0]
        carried = st.score_num is not None
        fast_agp.fast_agp_step(st, X[i], y[i])
        if borders[0] > bordered:
            assert carried, i
            assert fresh[0] - rounds == 1, i
            bordering_steps += 1
        assert st.score_num is not None, i
        assert _round_gap(st) < ROUND_COND_RTOL, i
    assert bordering_steps >= 3


def test_step_factors_once_and_never_rebuilds(monkeypatch):
    # Extension and shrink keep the caches exact, so the only factorization
    # of a fast step is B_lambda's, for the prediction, and no step forms an
    # inverse.  The step builds the kernel row k(U, x_new) once for the
    # prediction, the slide and the admission.  kxu is carried from
    # from_batch on, so the departing row is never built and no step builds
    # a kernel_matrix.  The hot path calls neither np.ix_ nor
    # np.linalg.norm.
    X, y = piecewise_sinusoid(500, 1)
    st = _stream_state(X, y, 100, 10, 0.97724, 50)
    chol = count_calls(monkeypatch, linalg, "cholesky_psd")
    inverses = count_calls(monkeypatch, linalg, "inv_from_factor")
    rebuilds = count_calls(monkeypatch, adaptive, "rebuild_caches")
    scipy_calls = [count_calls(monkeypatch, scipy.linalg, name)
                   for name in ("cholesky", "cho_solve")]
    wrappers = [count_calls(monkeypatch, np, "ix_"),
                count_calls(monkeypatch, np.linalg, "norm")]
    matrices = count_calls(monkeypatch, kernel, "kernel_matrix")
    kernel_calls = record_calls(monkeypatch, kernel, "kernel_column")
    changes = 0
    for i in range(100, 500):
        before, oldest = st.inducing.copy(), st.window_x[:1].copy()
        assert st.kxu is not None, i
        del kernel_calls[:]
        fast_agp.fast_agp_step(st, X[i], y[i])
        changes += not np.array_equal(st.inducing, before)
        assert builds_between(kernel_calls, before, X[i]) == 1, i
        assert builds_between(kernel_calls, before, oldest) == 0, i
    assert changes > 0
    assert matrices[0] == 0
    assert rebuilds[0] == 0
    assert chol[0] == 400
    assert inverses[0] == 0
    # every factorization and solve calls LAPACK directly (linalg)
    assert [c[0] for c in scipy_calls] == [0, 0]
    assert [c[0] for c in wrappers] == [0, 0]


# A replacement's kuu_inv against bordering and then removing, in units of
# eps * cond(Kuu~) of the largest entry: measured worst 1.2 at D=1 (cond up
# to 6.3e6) and 0.009 at D=8 (cond up to 1.7).
REPLACE_COND_RTOL = 10.0


@pytest.mark.parametrize("d", [1, 8])
def test_replacement_equals_border_then_first_removal(monkeypatch, d):
    # A candidate whose scored round names point m for removal takes slot
    # m of every cache in place.  That equals bordering every cache and then
    # removing m, with the candidate moved from the last slot to slot m:
    # kuu, s_k, s_y, kxu and the inducing set bit for bit (both copy the
    # same values), kuu_inv within REPLACE_COND_RTOL * eps * cond(Kuu~).
    # Each counts one admission and one removal.
    rng = np.random.default_rng(40 + d)
    eps = np.finfo(float).eps
    for _ in range(10):
        st = make_state(rng, t_cur=20, k=6, d=d)
        x_new = st.window_x[-1]
        for m in (0, 3, 5):
            rep, ref = copy.deepcopy(st), copy.deepcopy(st)
            with monkeypatch.context() as mp:
                _scripted_prune(mp, m)
                _, added = fast_agp.maybe_add_inducing(rep, x_new, -1.0,
                                                       r_th=1e-4, max_k=6)
            assert added and rep.k_inducing == 6
            fast_agp.maybe_add_inducing(ref, x_new, -1.0)
            with monkeypatch.context() as mp:
                _scripted_prune(mp, m, None)
                fast_agp.prune_inducing(ref, 1e-4, 6)
            order = _slot_order(m, 6)
            assert np.array_equal(rep.inducing[order], ref.inducing)
            assert np.array_equal(rep.inducing[m], x_new)
            assert np.array_equal(rep.s_y[order], ref.s_y)
            assert np.array_equal(rep.kxu[:, order], ref.kxu)
            for name in ("s_k", "kuu", "kuu_inv"):
                out = getattr(rep, name)[np.ix_(order, order)]
                gap = np.max(np.abs(out - getattr(ref, name)))
                tol = 0.0 if name != "kuu_inv" else (
                    REPLACE_COND_RTOL * eps * np.linalg.cond(rep.kuu)
                    * np.max(np.abs(ref.kuu_inv)))
                assert gap <= tol, (name, m)
            assert rep.w_ksum == ref.w_ksum and rep.b_lam is None
            assert rep.score_num is None
            for out in (rep, ref):
                assert (out.admitted_candidates, out.removed_points) == (1, 1)


def test_replacement_matches_direct_inversion():
    # Criterion 3's oracle for the replacement: 100 random states at
    # capacity, sets of up to 32 points, each offered a candidate scored
    # against that capacity; every admission takes a pruned point's slot,
    # and kuu_inv and the B_lambda inverse it implies match a rebuild.
    # Measured: 100 of 100 admitted, worst relative error 2.0e-11.
    rng = np.random.default_rng(3003)
    worst, replaced = 0.0, 0
    for _ in range(100):
        k = int(rng.integers(2, 33))
        n = int(rng.integers(k + 1, 45))
        side = 1.5 * np.sqrt(k + 1)
        X = rng.uniform(-side, side, size=(n, 2))
        st = adaptive.AdaptiveState(
            window_x=X, window_y=rng.normal(size=n),
            inducing=rng.uniform(-side, side, size=(k, 2)),
            params=KernelParams(float(rng.uniform(-0.5, 0.7)),
                                float(rng.uniform(-0.7, -0.2))),
            log_noise=float(rng.uniform(-2.5, -0.5)),
            lam=float(rng.uniform(0.7, 1.0)), capacity_m=k, window_t=n,
            jitter=1e-6)
        adaptive.rebuild_caches(st)
        _, added = fast_agp.maybe_add_inducing(st, X[rng.integers(n)], -1.0,
                                               r_th=1e-4, max_k=k)
        if not added:
            continue
        assert st.k_inducing == k and st.removed_points == 1
        replaced += 1
        worst = max(worst, rel(b_lam_inv(st), b_lam_inv(_fresh(st))),
                    rel(st.kuu_inv, _fresh(st).kuu_inv))
    assert replaced >= 50
    assert worst < 1e-7


@pytest.mark.parametrize("replace", [False, True], ids=["border", "replace"])
def test_an_admission_carries_the_escalated_jitter(replace):
    # At zero jitter a duplicated inducing point makes the rebuild's factor
    # escalate the jitter, and kuu carries that escalation on its diagonal.
    # An admitted point's diagonal must carry it too, whether it borders
    # the set or replaces one of the duplicates, so that kuu and kuu_inv
    # stay a rebuild's.  The rebuild of the set after the admission, which
    # still holds a duplicate, escalates alike.
    rng = np.random.default_rng(31)
    X = rng.uniform(-1.0, 3.0, size=(30, 1))
    U = np.array([[0.0], [0.0], [0.0], [1.0]] if replace else
                 [[0.0], [0.0], [1.0]])
    k = U.shape[0]
    st = adaptive.AdaptiveState(
        window_x=X, window_y=np.sin(2.0 * X[:, 0]) + 0.1 * rng.normal(size=30),
        inducing=U, params=KernelParams(0.0, 0.0), log_noise=-2.0, lam=0.95,
        capacity_m=k, window_t=30, jitter=0.0)
    adaptive.rebuild_caches(st)
    _, added = fast_agp.maybe_add_inducing(
        st, [2.5], -1.0, r_th=1e-4 if replace else None, max_k=k)
    assert added and st.k_inducing == (k if replace else k + 1)
    assert st.removed_points == replace
    fresh = _fresh(st)
    assert (np.diag(fresh.kuu) > 1.0).all()        # the rebuild escalated
    assert rel(st.kuu, fresh.kuu) <= KERNEL_CACHE_RTOL
    tol = (REPLACE_COND_RTOL * np.finfo(float).eps * np.linalg.cond(st.kuu)
           * np.max(np.abs(fresh.kuu_inv)))
    assert np.max(np.abs(st.kuu_inv - fresh.kuu_inv)) <= tol


def _lag8_stream_state(n):
    X, y = lagged_series(400 + n, 0)
    return X, y, _stream_state(X, y, 400, 40, 0.1 ** (1 / 400), 50)


def test_a_full_set_admission_borders_nothing_and_forms_one_round(
        monkeypatch):
    # On lag8 the inducing set stays full, so every admission takes the
    # pruned point's slot: a step that admits a candidate and removes one
    # point calls none of inv_extend, inv_shrink or _border, and forms one
    # fresh round (the prune's, after the removal) when its state carried
    # one.
    X, y, st = _lag8_stream_state(300)
    calls = [count_calls(monkeypatch, owner, name)
             for owner, name in ((linalg, "inv_extend"),
                                 (linalg, "inv_shrink"),
                                 (fast_agp, "_border"),
                                 (fast_agp, "_standing_round"))]
    swaps = 0
    for i in range(400, 700):
        before = [c[0] for c in calls]
        admitted, removed = st.admitted_candidates, st.removed_points
        carried = st.score_num is not None
        fast_agp.fast_agp_step(st, X[i], y[i])
        assert st.k_inducing == 40, i
        if st.admitted_candidates == admitted + 1:
            assert st.removed_points == removed + 1, i
            assert [c[0] - b for c, b in zip(calls, before)] == [
                0, 0, 0, 2 - carried], i
            swaps += carried
    assert swaps >= 50


def test_admission_and_removal_counters_equal_a_hand_count(monkeypatch):
    # The state counts admissions and removals; a replacement counts one
    # of each.  By hand: an admission is a True from maybe_add_inducing,
    # and a removal a point of the set before the step, or an admitted
    # candidate, that the set after it does not hold.
    X, y, st = _lag8_stream_state(300)
    admit, added = fast_agp.maybe_add_inducing, []

    def recorded(*args, **kwargs):
        out = admit(*args, **kwargs)
        added.append(out[1])
        return out

    monkeypatch.setattr(fast_agp, "maybe_add_inducing", recorded)
    admissions = removals = 0
    for i in range(400, 700):
        before = st.inducing.copy()
        fast_agp.fast_agp_step(st, X[i], y[i])
        after = st.inducing

        def gone(z):
            return not (after == z).all(axis=1).any()

        admissions += added[-1]
        removals += sum(map(gone, before)) + (added[-1] and gone(X[i]))
        assert st.admitted_candidates == admissions, i
        assert st.removed_points == removals, i
    assert 50 <= admissions == removals


@pytest.mark.parametrize("evict", [False, True])
def test_slide_s_k_equals_its_elementwise_form_and_keeps_its_input(evict):
    # lam s_k + k k^T (less the departing row's term) is one rank-one update
    # of a new array each: the state's previous s_k is never written.
    rng = np.random.default_rng(30 + evict)
    for i in range(50):
        st = make_state(rng, t_cur=8, window_t=8 if evict else 12)
        x = rng.normal(size=st.window_x.shape[1])
        k_new = adaptive.kernel_row(st, x)
        k_old = adaptive.kernel_row(st, st.window_x[0]) if evict else None
        s_k, s_k0 = st.s_k, st.s_k.copy()
        expected = reference_slide_s_k(s_k0, st.lam, k_new, k_old,
                                       st.lam ** st.window_t)
        fast_agp.windowed_add(st, x, float(rng.normal()))
        assert np.array_equal(s_k, s_k0), i
        dev = np.max(np.abs(st.s_k - expected)) / np.max(np.abs(expected))
        assert dev < 1e-13, i


def test_a_skipped_target_leaves_b_lam_factored_for_the_next_step(monkeypatch):
    # A sample skipped for a NaN target still predicts, which factors
    # B_lambda; the next step finds that factor current and does not factor
    # it again: 10 factorizations in 20 steps, not 20.  Predictions equal
    # those of steps that each factor B_lambda afresh, bit for bit.
    X, y = piecewise_sinusoid(120, 1)
    y[100::2] = np.nan
    st = _stream_state(X, y, 100, 10, 0.97724, 50)
    ref = copy.deepcopy(st)
    chol = count_calls(monkeypatch, linalg, "cholesky_psd")
    preds = [fast_agp.fast_agp_step(st, X[i], y[i])[1] for i in range(100, 120)]
    assert chol[0] == 10
    for i, pred in zip(range(100, 120), preds):
        adaptive.refresh_b_lam(ref)
        expected = fast_agp.fast_agp_step(ref, X[i], y[i])[1]
        assert (pred.mean, pred.var) == (expected.mean, expected.var), i
    assert st.skipped_samples == 10


@pytest.mark.parametrize("carry", [False, True], ids=["kxu_none", "kxu"])
def test_passed_kernel_row_equals_omitted(carry):
    # Handing k(U, x_new) to the prediction, the slide and the admission,
    # and fast mode's a = kuu_inv k(U, x_new) to the slide of its score
    # round and the admission, is a value handed over: every cache equals
    # the one each computes itself.  Without kxu (full mode after an
    # update) the state slides, and only fast mode, which carries kxu and
    # its score round, offers the admission.
    rng = np.random.default_rng(22)
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2, lam=0.9, window_t=12)
        if not carry:
            st.kxu = None
        else:
            fast_agp._standing_round(st)
        ref = copy.deepcopy(st)
        x_new, y_new = rng.normal(size=2), float(rng.normal())
        k_new = adaptive.kernel_row(st, x_new)
        a = st.kuu_inv @ k_new if carry else None
        assert (adaptive.adaptive_predict(st, x_new, k_new=k_new)
                == adaptive.adaptive_predict(ref, x_new))
        fast_agp.windowed_add(st, x_new, y_new, k_new=k_new, a=a)
        fast_agp.windowed_add(ref, x_new, y_new)
        if carry:
            assert np.array_equal(st.score_num, ref.score_num)
            fast_agp.maybe_add_inducing(st, x_new, -1.0, k_new=k_new, a=a)
            fast_agp.maybe_add_inducing(ref, x_new, -1.0)
            assert st.score_num is None and ref.score_num is None
        for name in CACHES + ("kxu", "window_x", "window_y"):
            assert np.array_equal(_cache(st, name), _cache(ref, name)), name
        assert st.w_ksum == ref.w_ksum
        _caches_match(st)


def test_moves_leave_a_dropped_b_lam_dropped():
    # B_lambda is factored only for a prediction: the slide, the admission
    # and the prune each mark a carried factor stale, and move every other
    # cache exactly as when it is stale already.
    rng = np.random.default_rng(23)
    moves = (lambda s, x, y: fast_agp.windowed_add(s, x, y),
             lambda s, x, y: fast_agp.maybe_add_inducing(s, x, -1.0),
             lambda s, x, y: fast_agp.prune_inducing(s, 1e-4, 3))
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2, lam=0.9, window_t=12)
        ref = copy.deepcopy(st)
        x_new, y_new = rng.normal(size=2), float(rng.normal())
        for move in moves:
            adaptive.refresh_b_lam(st)
            move(st, x_new, y_new)
            move(ref, x_new, y_new)
            assert st.b_lam is None and ref.b_lam is None
        assert st.k_inducing == 3
        for name in ("s_y", "s_k", "kuu_inv", "kuu", "inducing", "kxu"):
            assert np.array_equal(getattr(st, name), getattr(ref, name)), name


def _round_gap(st):
    """Gap of the state's carried score round from a fresh
    ``_standing_round`` on the same caches, relative to the largest fresh
    score, in units of cond(Kuu~) * eps."""
    fresh = fast_agp._standing_round(copy.deepcopy(st))
    carried = st.score_num / st.kuu_inv.diagonal()
    gap = np.max(np.abs(carried - fresh)) / np.max(np.abs(fresh))
    return gap / (np.linalg.cond(st.kuu) * np.finfo(float).eps)


def _round_ref_err(st):
    """Worst error of the carried numerators against diag(P S P) summed in
    extended precision from kxu and the weights, per component in units
    of eps * (|P| S |P|)_jj, the scale of the rounding of either form (the
    kernel is positive, so S = |S|)."""
    P, w = st.kuu_inv, st.weights()
    a = st.kxu.astype(np.longdouble) @ P.astype(np.longdouble)
    ref = (w[:, None] * a * a).sum(0)
    b = st.kxu @ np.abs(P)
    scale = (w[:, None] * b * b).sum(0)
    err = np.max(np.abs(st.score_num - ref) / scale)
    return float(err) / np.finfo(float).eps


def _max_drift(X, y, T, M, lam, iters, every):
    """Worst gap between predictions from the streamed caches and from
    caches rebuilt from the window, worst relative gap of the carried
    kernel matrices kuu and kxu from ``kernel_matrix``, and worst
    ``_round_gap`` and ``_round_ref_err`` of the carried score round,
    checked every ``every`` steps; the number of steps that changed the
    inducing set, and of checks that found a round carried."""
    st = _stream_state(X, y, T, M, lam, iters)
    d_mean = d_var = d_kern = d_round = d_ref = 0.0
    changes = rounds = 0
    for i in range(T, y.shape[0] - 1):
        before = st.inducing.copy()
        fast_agp.fast_agp_step(st, X[i], y[i])
        changes += not np.array_equal(st.inducing, before)
        if (i - T) % every == 0:
            ref = copy.deepcopy(st)
            adaptive.rebuild_caches(ref)
            a = adaptive.adaptive_predict(st, X[i + 1])
            b = adaptive.adaptive_predict(ref, X[i + 1])
            d_mean = max(d_mean, abs(a.mean - b.mean))
            d_var = max(d_var, abs(a.var - b.var) / b.var)
            kxu = kernel_matrix(st.window_x, st.inducing, st.params)
            d_kern = max(d_kern, rel(st.kuu, ref.kuu), rel(st.kxu, kxu))
            if st.score_num is not None:
                rounds += 1
                d_round = max(d_round, _round_gap(st))
                d_ref = max(d_ref, _round_ref_err(st))
    return d_mean, d_var, d_kern, d_round, d_ref, changes, rounds


def _stationary(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    return x[:, None], np.sin(2 * x) + 0.1 * rng.normal(size=n)


# Fast mode never rebuilds, so kuu_inv lives on extension, replacement and
# shrink alone.  Measured worst gaps: 7.7e-9 / 9.5e-9 (mean / relative var) on
# the D=1 stream; 2.4e-12 / 3.2e-11 on the D=8 stream, where every admission is
# a replacement.  The gap does not grow with stream length, so no periodic
# re-anchor is needed.  The carried kernel matrices kuu and kxu are moved by
# copying kernel values, never by arithmetic, so they stay at roundoff:
# measured worst gaps 0 (D=1) and 2.8e-16 (D=8).  The score round a fast step
# carries across slides moves by rank-one terms and is formed afresh at every
# change of the inducing set.  Against diag(P S P) summed in extended precision
# its error stays at the scale of one rounding of either form, eps * (|P| S
# |P|)_jj per component: measured worst 14.6 (D=1), 2.2 (D=8) and 0.95 (lam =
# 1).  The lam = 1 stationary stream keeps one inducing set for all but one of
# its 3000 steps, so its round is slid, undamped, for thousands of steps; over
# 20000 steps, checked every 7th, it stayed at 0.65.  Its gap from a fresh
# round: 151 (D=1, 9.9e-9 of the largest score at cond 3.0e5, step 5) and 40
# (D=8) times cond(Kuu~) * eps.  At lam = 1 that gap reads 8.0e3: there the
# fresh round is the inexact one, 6.7e3 times cond(Kuu~) * eps from the
# extended-precision sum where the carried round is 4.6e3, so the gap from a
# fresh round is held only where lam < 1.
DRIFT_MEAN_TOL = 1e-5
DRIFT_VAR_RTOL = 1e-4
KERNEL_CACHE_RTOL = 1e-12
ROUND_COND_RTOL = 1e3
ROUND_EPS_RTOL = 1e2


@pytest.mark.parametrize("stream, T, M, lam, iters, every, min_changes", [
    (lambda: piecewise_sinusoid(10_101, 0), 100, 10, 0.97724, 200, 5, 201),
    (lambda: lagged_series(3401, 0), 400, 40, 0.1 ** (1 / 400), 50, 10, 201),
    (lambda: _stationary(3040, 13), 40, 8, 1.0, 100, 5, 0),
], ids=["d1", "lag8", "lam1"])
def test_long_stream_caches_do_not_drift(stream, T, M, lam, iters, every,
                                         min_changes):
    X, y = stream()
    d_mean, d_var, d_kern, d_round, d_ref, changes, rounds = _max_drift(
        X, y, T, M, lam, iters, every)
    assert changes >= min_changes
    assert d_mean < DRIFT_MEAN_TOL
    assert d_var < DRIFT_VAR_RTOL
    assert d_kern < KERNEL_CACHE_RTOL
    assert rounds > 200
    assert d_ref < ROUND_EPS_RTOL
    if lam < 1:
        assert d_round < ROUND_COND_RTOL


# The window, its targets and kxu live in buffers the state owns; a slide
# writes one sample and a compaction, once every >= T/4 slides, copies the
# window to the front of new buffers.


def test_maybe_add_without_kxu_raises_before_anything_moves():
    # A full-mode step drops kxu with its update, so an admission on the
    # state it leaves has no s_k row to read: a library error that names
    # kxu, with the state as it was.
    X, y = piecewise_sinusoid(140, 2)
    st = _stream_state(X, y, 100, 10, 0.97724, 20)
    opt = agp.adam_params()
    for i in range(100, 103):
        agp.agp_step(st, opt, X[i], y[i])
    assert st.kxu is None
    before = copy.deepcopy(st)
    with pytest.raises(KxuNotCarried, match="kxu"):
        fast_agp.maybe_add_inducing(st, X[103], -1.0)
    for name in CACHES + ("window_x", "window_y"):
        assert np.array_equal(_cache(st, name), _cache(before, name)), name
    assert st.kxu is None and st.b_lam is None
    assert (st.w_ksum, st.rejected_candidates) == (before.w_ksum, 0)


def _small_d8_state(rng, T=12, M=4):
    X, y, U, params, ln = random_instance(rng, n=T, m=M, d=8)
    params = KernelParams(0.0, float(np.log(3.0)))   # neighbours overlap
    st = adaptive.AdaptiveState(window_x=X, window_y=y, inducing=U,
                                params=params, log_noise=ln, lam=0.95,
                                capacity_m=M, window_t=T)
    adaptive.rebuild_caches(st)
    return st


def test_buffers_equal_a_concatenated_window_through_compactions(monkeypatch):
    # D=8, T=12, M=4: fast steps through many compactions, admissions and
    # prunes, and a run of direct default admissions that grows the
    # inducing set past capacity_m + 1, which the kxu buffer must follow.
    rng = np.random.default_rng(40)
    st = _small_d8_state(rng)
    ref_x, ref_y = st.window_x.copy(), st.window_y.copy()
    compactions = count_calls(monkeypatch, adaptive.AdaptiveState, "_compact")
    sizes = set()
    for i in range(60):
        x, y = rng.normal(size=8), float(rng.normal())
        if 25 <= i < 29:
            fast_agp.windowed_add(st, x, y)
            _, added = fast_agp.maybe_add_inducing(st, x, -1.0)
            assert added, i
        else:
            fast_agp.fast_agp_step(st, x, y)
        sizes.add(st.k_inducing)
        ref_x = np.concatenate((ref_x, x[None]))[-12:]
        ref_y = np.concatenate((ref_y, [y]))[-12:]
        assert np.array_equal(st.window_x, ref_x), i
        assert np.array_equal(st.window_y, ref_y), i
        kxu = kernel_matrix(st.window_x, st.inducing, st.params)
        assert st.kxu.shape == kxu.shape, i
        assert rel(st.kxu, kxu) <= KERNEL_CACHE_RTOL, i
    assert compactions[0] >= 10
    assert max(sizes) > st.capacity_m + 1 and min(sizes) <= st.capacity_m
    _caches_match(st, tol=1e-7)


def test_interleaved_moves_keep_the_score_round_exact_or_drop_it():
    # D=8, T=12, M=4: fast steps mixed at random with direct slides,
    # scored and unscored admissions and prunes.  After every move the
    # state's score round is dropped or equal to a fresh _standing_round on
    # its caches: a slide moves a carried round, every admission drops it,
    # whether it replaces or borders, and a prune starts from a carried
    # round or forms its first round fresh, and leaves a fresh round after
    # each removal, so it always leaves a round.
    rng = np.random.default_rng(42)
    st = _small_d8_state(rng)
    moved = dict.fromkeys(range(5), 0)
    slid = dropped = 0
    for i in range(400):
        x, y = rng.normal(size=8), float(rng.normal())
        move = int(rng.integers(5))
        carried = st.score_num is not None
        if move == 0:
            fast_agp.fast_agp_step(st, x, y)
        elif move == 1:
            fast_agp.windowed_add(st, x, y)
            assert (st.score_num is not None) == carried, i
            slid += carried
        elif move == 2:
            _, added = fast_agp.maybe_add_inducing(st, x, -1.0, r_th=1e-4,
                                                   max_k=st.capacity_m)
            if added:
                assert st.score_num is None, i
            elif carried:
                assert st.score_num is not None, i
        elif move == 3:
            _, added = fast_agp.maybe_add_inducing(st, x, -1.0)
            if added:
                assert st.score_num is None, i
            elif carried:
                assert st.score_num is not None, i
        else:
            fast_agp.prune_inducing(st, 1e-4, 2)
            assert st.score_num is not None, i
        moved[move] += 1
        dropped += carried and st.score_num is None
        if st.score_num is not None:
            assert _round_gap(st) < ROUND_COND_RTOL, i
    assert min(moved.values()) > 50 and slid > 20 and dropped > 20
    _caches_match(st, tol=1e-7)
    for drop in (adaptive.rebuild_caches,
                 lambda s: s.set_window(s.window_x.copy(), s.window_y.copy())):
        fast_agp._standing_round(st)
        drop(st)
        assert st.score_num is None


def test_a_deep_copy_streams_alone():
    # perfbench and tools/ab_steps.py deep-copy states: the copy owns its
    # buffers, streams bit-identically, and each leaves the other's views
    # as they were.
    rng = np.random.default_rng(41)
    st = _small_d8_state(rng)
    for _ in range(30):
        fast_agp.fast_agp_step(st, rng.normal(size=8), float(rng.normal()))
    twin = copy.deepcopy(st)
    stream = [(rng.normal(size=8), float(rng.normal())) for _ in range(20)]
    for a, b in ((st, twin), (twin, st)):
        kept = {name: getattr(b, name).copy()
                for name in ("window_x", "window_y", "kxu")}
        for x, y in stream[:10]:
            fast_agp.fast_agp_step(a, x, y)
        for name, value in kept.items():
            assert np.array_equal(getattr(b, name), value), name
    for x, y in stream[10:]:
        pa = fast_agp.fast_agp_step(st, x, y)[1]
        pb = fast_agp.fast_agp_step(twin, x, y)[1]
        assert (pa.mean, pa.var) == (pb.mean, pb.var)
    for name in CACHES + ("window_x", "window_y", "kxu"):
        assert np.array_equal(_cache(st, name), _cache(twin, name)), name


def test_warm_fast_step_allocates_no_window_copy():
    # At lag8-fast's shapes (T=400, M=40, D=8) the per-step peak of traced
    # memory is the O(M^2) caches and the candidate's O(T) column; a copy
    # of kxu alone would be 128 KB.
    T, M = 400, 40
    X, y = lagged_series(T + 450, 0)
    st = _stream_state(X, y, T, M, 0.1 ** (1 / T), 30)
    for i in range(T, T + 50):
        fast_agp.fast_agp_step(st, X[i], y[i])
    peaks = []
    tracemalloc.start()
    try:
        for i in range(T + 50, T + 450):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fast_agp.fast_agp_step(st, X[i], y[i])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert np.median(peaks) <= 5 * T * M
