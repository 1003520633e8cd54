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


def test_maybe_add_scored_admission_equals_unscored_add():
    rng = np.random.default_rng(21)
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2)
        ref = copy.deepcopy(st)
        x_new = st.window_x[-1]
        _, added = fast_agp.maybe_add_inducing(st, x_new, -1.0, r_th=1e-4,
                                               max_k=10)
        fast_agp.maybe_add_inducing(ref, x_new, -1.0)
        assert added and st.rejected_candidates == 0
        for name in CACHES + ("kxu",):
            assert np.array_equal(_cache(st, name), _cache(ref, name)), name


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
    # equal a hand count of those candidates.
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
        assert np.array_equal(st.inducing, ref.inducing), i
        assert st.rejected_candidates == hand_count, i
    assert hand_count >= min_rejected
    assert ref.rejected_candidates == 0


def test_a_fast_step_scores_one_round_plus_one_per_removal(monkeypatch):
    # The step forms the caches' standing round once, after the slide; the
    # relevance gate, the candidate's bordered scores (O(M^2)) and the
    # prune's first round all read it.  So a step forms exactly one
    # O(M^3) round, plus one removal_scores round per removal, whether its
    # candidate is gated out or admitted.
    X, y = piecewise_sinusoid(700, 0)
    st = _stream_state(X, y, 100, 10, 0.97724, 50)
    standing = count_calls(monkeypatch, fast_agp, "_standing_round")
    scores = count_calls(monkeypatch, adaptive, "removal_scores")
    admit, added = fast_agp.maybe_add_inducing, []

    def recorded(*args, **kwargs):
        out = admit(*args, **kwargs)
        added.append(out[1])
        return out

    monkeypatch.setattr(fast_agp, "maybe_add_inducing", recorded)
    pruned_admissions = 0
    for i in range(100, 700):
        k, rounds = st.k_inducing, standing[0] + scores[0]
        fast_agp.fast_agp_step(st, X[i], y[i])
        removed = k + added[-1] - st.k_inducing
        pruned_admissions += added[-1] and removed > 0
        assert standing[0] == i - 99, i
        assert standing[0] + scores[0] - rounds == 1 + removed, i
    assert len(added) == 600 and pruned_admissions > 0
    assert not all(added)


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
    # Handing k(U, x_new) to the prediction, the slide and the admission is
    # a value handed over: every cache equals the one each computes itself.
    # Without kxu (full mode after an update) the state slides, and only
    # fast mode, which carries kxu, offers the admission.
    rng = np.random.default_rng(22)
    for _ in range(10):
        st = make_state(rng, t_cur=12, k=3, d=2, lam=0.9, window_t=12)
        if not carry:
            st.kxu = None
        ref = copy.deepcopy(st)
        x_new, y_new = rng.normal(size=2), float(rng.normal())
        k_new = adaptive.kernel_row(st, x_new)
        assert (adaptive.adaptive_predict(st, x_new, k_new=k_new)
                == adaptive.adaptive_predict(ref, x_new))
        fast_agp.windowed_add(st, x_new, y_new, k_new=k_new)
        fast_agp.windowed_add(ref, x_new, y_new)
        if carry:
            fast_agp.maybe_add_inducing(st, x_new, -1.0, k_new=k_new)
            fast_agp.maybe_add_inducing(ref, x_new, -1.0)
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


def _max_drift(X, y, T, M, lam, iters, every):
    """Worst gap between predictions from the streamed caches and from
    caches rebuilt from the window, and worst relative gap of the carried
    kernel matrices kuu and kxu from ``kernel_matrix``, checked every
    ``every`` steps; and the number of steps that changed the inducing
    set."""
    st = _stream_state(X, y, T, M, lam, iters)
    d_mean = d_var = d_kern = 0.0
    changes = 0
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
    return d_mean, d_var, d_kern, changes


# Fast mode never rebuilds, so kuu_inv lives on extension and shrink alone.
# Measured worst gaps: 1.2e-6 / 3.6e-6 (mean / relative var) on the D=1
# stream, all in its first 2000 steps (Kuu condition number near 1e6) and
# flat at ~1e-8 after; 7.6e-10 / 7.6e-9 on the D=8 stream.  The gap does not
# grow with stream length, so no periodic re-anchor is needed.  The carried
# kernel matrices kuu and kxu are moved by copying kernel values, never by
# arithmetic, so they stay at roundoff: measured worst gaps 0 (D=1) and
# 2.8e-16 (D=8).
DRIFT_MEAN_TOL = 1e-5
DRIFT_VAR_RTOL = 1e-4
KERNEL_CACHE_RTOL = 1e-12


@pytest.mark.parametrize("stream, T, M, lam, iters, every", [
    (lambda: piecewise_sinusoid(10_101, 0), 100, 10, 0.97724, 200, 5),
    (lambda: lagged_series(3401, 0), 400, 40, 0.1 ** (1 / 400), 50, 10),
], ids=["d1", "lag8"])
def test_long_stream_caches_do_not_drift(stream, T, M, lam, iters, every):
    X, y = stream()
    d_mean, d_var, d_kern, changes = _max_drift(X, y, T, M, lam, iters, every)
    assert changes > 200
    assert d_mean < DRIFT_MEAN_TOL
    assert d_var < DRIFT_VAR_RTOL
    assert d_kern < KERNEL_CACHE_RTOL


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
