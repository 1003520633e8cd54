"""Oracle for fast mode's candidate scores in O(M^2).

A fast step scores its candidate by ``fast_agp._bordered_scores``: the
removal scores of the bordered inducing set, read from the numerators of
the unbordered caches' score round, which the state carries across
slides.  The reference is the same bordered round evaluated at 30 digits
with mpmath, from the same float inputs: the cached ``kuu_inv`` (P) and
``s_k`` (S), the candidate's kernel row b and diagonal b0, and its s_k row
r and diagonal d.  The parent form, one
O(M^3) ``removal_scores`` round on the ``inv_extend`` and ``_border``
arrays, is measured against the same reference.  Errors are relative to
the largest reference score, and the O(M^2) form passes where its largest
error over a set of states is within 3x the O(M^3) form's.

The states are every scored candidate of a toy-fast stream (T=100, M=10,
cond(Kuu~) up to about 1e5), five of a lag8-fast stream (T=400, M=40) and
hypothesis-drawn near-duplicate candidates, whose Schur complements reach
down to the jitter's scale.
"""

from functools import lru_cache
from types import SimpleNamespace

import mpmath
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptive_sgp import adaptive, fast_agp, linalg, vsgp

from helpers import lagged_series, make_state, piecewise_sinusoid

DIGITS = 30
SLACK = 3.0         # the O(M^2) form's error over the O(M^3) form's


def _scored(state, offers):
    """Run ``offers`` with ``_bordered_scores`` recorded; returns one dict
    of float inputs and outputs per scored candidate.  ``offers`` is a
    generator that yields each candidate x before the call that scores
    it."""
    cases, current = [], {}
    original = fast_agp._bordered_scores

    def recorded(num, P, S, u, s, r, d):
        out = original(num, P, S, u, s, r, d)
        b = adaptive.kernel_row(state, current["x"])
        assert np.array_equal(P @ b, u)       # b is the row the step used
        cases.append(dict(P=P.copy(), S=S.copy(), b=b,
                          b0=state.params.variance + state.jitter,
                          r=r.copy(), d=d, fast=out.copy()))
        return out

    fast_agp._bordered_scores = recorded
    try:
        for x in offers:
            current["x"] = x
    finally:
        fast_agp._bordered_scores = original
    return cases


def _stream_cases(X, y, T, M, lam, iters, n_steps):
    model = vsgp.fit_batch(X[:T], y[:T], M, iters, seed=0)
    state = adaptive.from_batch(model, X[:T], y[:T], lam, T, M)

    def offers():
        for i in range(T, T + n_steps):
            yield X[i]
            fast_agp.fast_agp_step(state, X[i], y[i])

    return _scored(state, offers())


@lru_cache(maxsize=None)
def _streams():
    toy = _stream_cases(*piecewise_sinusoid(1100, 0), 100, 10, 0.97724,
                        200, 1000)
    lag8 = _stream_cases(*lagged_series(460, 0), 400, 40, 0.1 ** (1 / 400),
                         10, 50)
    return toy + lag8[::10]


def _reference(case) -> np.ndarray:
    """The bordered round at ``DIGITS`` digits: P' = [[P + u u^T/s, -u/s],
    [-u^T/s, 1/s]] with u = P b and s = b0 - b^T u, S' = [[S, r], [r^T,
    d]], and diag(P' S' P') / diag(P')."""
    with mpmath.workdps(DIGITS):
        mp = np.vectorize(mpmath.mpf, otypes=[object])
        P, S, b, r = mp(case["P"]), mp(case["S"]), mp(case["b"]), mp(case["r"])
        b0, d = mpmath.mpf(case["b0"]), mpmath.mpf(case["d"])
        k = b.shape[0]
        u = P @ b
        s = b0 - b @ u
        Pb = np.empty((k + 1, k + 1), dtype=object)
        Pb[:k, :k] = P + np.outer(u, u) / s
        Pb[:k, k] = Pb[k, :k] = -u / s
        Pb[k, k] = 1 / s
        Sb = np.empty((k + 1, k + 1), dtype=object)
        Sb[:k, :k] = S
        Sb[:k, k] = Sb[k, :k] = r
        Sb[k, k] = d
        scores = ((Pb @ Sb) * Pb).sum(axis=1) / Pb.diagonal()
        return np.array([float(v) for v in scores])


def _errors(cases):
    """Per case: (O(M^2) error, O(M^3) error, reference gap between the two
    smallest scores), each relative to the largest reference score, and
    whether the O(M^2) argmin is the reference's."""
    out = []
    for c in cases:
        ref = _reference(c)
        parent = adaptive.removal_scores(
            linalg.inv_extend(c["P"], c["b"], c["b0"]),
            fast_agp._border(c["S"], c["r"], c["d"]))
        scale = float(np.abs(ref).max())
        low = np.sort(ref)[:2]
        out.append((float(np.abs(c["fast"] - ref).max()) / scale,
                    float(np.abs(parent - ref).max()) / scale,
                    float(low[1] - low[0]) / scale,
                    int(c["fast"].argmin()) == int(ref.argmin())))
    return out


def _check(cases):
    errs = _errors(cases)
    fast = max(e[0] for e in errs)
    parent = max(e[1] for e in errs)
    assert fast <= SLACK * parent, (fast, parent)
    tol = SLACK * parent
    assert all(same for _, _, gap, same in errs if gap > 2.0 * tol)


def test_stream_states_score_as_the_parent_round_does():
    cases = _streams()
    assert len(cases) >= 20
    _check(cases)


def test_standing_round_is_removal_scores_bit_for_bit():
    # The round each removal forms fresh, and the state then carries, scores
    # as removal_scores does, bit for bit, on every recorded state.
    for c in _streams():
        state = SimpleNamespace(kuu_inv=c["P"], s_k=c["S"], score_num=None)
        scores = fast_agp._standing_round(state)
        assert np.array_equal(scores, adaptive.removal_scores(c["P"], c["S"]))
        assert np.array_equal(state.score_num / c["P"].diagonal(), scores)


@st.composite
def near_duplicates(draw):
    """A random state and a candidate at a tiny offset from one of its
    inducing points, so that the bordered Kuu is nearly singular."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = make_state(rng, t_cur=draw(st.integers(5, 30)),
                       k=draw(st.integers(2, 8)), d=draw(st.integers(1, 2)))
    j = draw(st.integers(0, state.k_inducing - 1))
    offset = 10.0 ** draw(st.floats(-7.0, -1.0))
    x = state.inducing[j] + offset * rng.normal(size=state.inducing.shape[1])
    return state, x


@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(near_duplicates(), min_size=20, max_size=20))
def test_near_duplicate_candidates_score_as_the_parent_round_does(draws):
    cases = []
    for state, x in draws:
        def offers():
            yield x
            fast_agp.maybe_add_inducing(state, x, -1.0, r_th=1e-4,
                                        max_k=state.capacity_m)
        cases += _scored(state, offers())
    if cases:
        _check(cases)
