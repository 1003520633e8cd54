import logging

import numpy as np
import pytest
import scipy.linalg

from adaptive_sgp import linalg
from adaptive_sgp.errors import (DimensionMismatch, NotPsd, NotSymmetric,
                                 SchurNotPositive)

from helpers import reference_inv_extend, reference_inv_shrink, spd_matrix


def test_cholesky_identity():
    f = linalg.cholesky_psd(np.eye(3), 0.0)
    assert np.allclose(f.lower, np.eye(3))
    assert f.jitter_used == 0.0


def test_cholesky_hand_2x2():
    f = linalg.cholesky_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), 0.0)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(f.lower, expected)


def test_cholesky_singular_needs_jitter():
    f = linalg.cholesky_psd(np.ones((2, 2)), 1e-6)
    assert f.jitter_used >= 1e-6


def test_cholesky_rejects_asymmetric():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        linalg.cholesky_psd(A, 0.0)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_cholesky_rejects_a_non_square_input(shape):
    with pytest.raises(DimensionMismatch):
        linalg.cholesky_psd(np.ones(shape), 0.0)


def test_cholesky_fails_on_hopeless_matrix():
    with pytest.raises(NotPsd):
        linalg.cholesky_psd(-np.eye(2), 0.0)


def test_cholesky_deterministic():
    A = spd_matrix(np.random.default_rng(0), 6)
    f1 = linalg.cholesky_psd(A, 1e-8)
    f2 = linalg.cholesky_psd(A, 1e-8)
    assert np.array_equal(f1.lower, f2.lower)
    assert f1.jitter_used == f2.jitter_used


def test_factor_reconstructs_input():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = spd_matrix(rng, int(rng.integers(2, 12)))
        f = linalg.cholesky_psd(A, 0.0)
        R = f.lower @ f.lower.T
        assert np.linalg.norm(R - A) / np.linalg.norm(A) < 1e-10


def test_logdet_identity_and_hand_values():
    assert linalg.logdet(linalg.cholesky_psd(np.eye(3), 0.0)) == pytest.approx(0.0)
    f = linalg.cholesky_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), 0.0)
    assert linalg.logdet(f) == pytest.approx(np.log(8.0))
    c, n = 2.7, 5
    f = linalg.cholesky_psd(c * np.eye(n), 0.0)
    assert linalg.logdet(f) == pytest.approx(n * np.log(c))


def test_inv_extend_block_diagonal():
    out = linalg.inv_extend(np.eye(1), np.array([0.0]), 1.0)
    assert np.allclose(out, np.eye(2))


def test_inv_extend_hand_2x2():
    # inverse of [[4, 2], [2, 3]] built from the 1x1 corner
    out = linalg.inv_extend(np.array([[0.25]]), np.array([2.0]), 3.0)
    assert np.allclose(out, np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0)


def test_inv_extend_matches_direct_inverse():
    rng = np.random.default_rng(3)
    A = spd_matrix(rng, 6)
    Ainv = np.linalg.inv(A[:5, :5])
    out = linalg.inv_extend(Ainv, A[:5, 5], float(A[5, 5]))
    direct = np.linalg.inv(A)
    assert np.max(np.abs(out - direct)) / np.max(np.abs(direct)) < 1e-9


def test_inv_extend_product_is_identity_up_to_64():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 65))
        A = spd_matrix(rng, n)
        Ainv = np.linalg.inv(A[:n - 1, :n - 1])
        out = linalg.inv_extend(Ainv, A[:n - 1, n - 1], float(A[n - 1, n - 1]))
        prod = out @ A
        assert np.max(np.abs(prod - np.eye(n))) < 1e-8


def test_inv_extend_rejects_nonpositive_schur():
    # duplicated direction: bordered matrix is singular
    with pytest.raises(SchurNotPositive):
        linalg.inv_extend(np.eye(1), np.array([1.0]), 1.0)


def test_inv_extend_rejects_a_border_of_another_length():
    with pytest.raises(DimensionMismatch):
        linalg.inv_extend(np.eye(2), np.array([0.1, 0.2, 0.3]), 1.0)


def test_inv_shrink_matches_direct_inverse_up_to_64():
    rng = np.random.default_rng(5)
    for n in [2, 3, 5, 8, 13, 21, 34, 64]:
        A = spd_matrix(rng, n)
        Ainv = np.linalg.inv(A)
        for m in range(n):
            keep = np.arange(n) != m
            direct = np.linalg.inv(A[np.ix_(keep, keep)])
            out = linalg.inv_shrink(Ainv, m, np.flatnonzero(keep))
            assert out.shape == (n - 1, n - 1)
            assert np.max(np.abs(out - direct)) / np.max(np.abs(direct)) < 1e-9


def test_inv_shrink_undoes_inv_extend():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 64))
        A = spd_matrix(rng, k + 1)
        Ainv = np.linalg.inv(A[:k, :k])
        ext = linalg.inv_extend(Ainv, A[:k, k], float(A[k, k]))
        out = linalg.inv_shrink(ext, k, np.arange(k))
        assert np.max(np.abs(out - Ainv)) / np.max(np.abs(Ainv)) < 1e-10


def _rel_to(out, ref):
    return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))


def test_inv_extend_equals_its_elementwise_form_and_keeps_its_inputs():
    # One rank-one update of a new array: the caller's Ainv and b stay.
    rng = np.random.default_rng(12)
    for n in range(2, 65):
        A = spd_matrix(rng, n)
        Ainv, b, b0 = np.linalg.inv(A[:-1, :-1]), A[:-1, -1].copy(), A[-1, -1]
        Ainv_in, b_in = Ainv.copy(), b.copy()
        out = linalg.inv_extend(Ainv_in, b_in, b0)
        assert _rel_to(out, reference_inv_extend(Ainv, b, b0)) < 1e-13, n
        assert np.array_equal(Ainv_in, Ainv) and np.array_equal(b_in, b), n


def test_inv_shrink_equals_its_elementwise_form_and_keeps_its_input():
    rng = np.random.default_rng(13)
    for n in range(2, 65):
        Ainv = np.linalg.inv(spd_matrix(rng, n))
        for m in {0, int(rng.integers(n)), n - 1}:
            Ainv_in = Ainv.copy()
            keep = np.flatnonzero(np.arange(n) != m)
            out = linalg.inv_shrink(Ainv_in, m, keep)
            assert _rel_to(out, reference_inv_shrink(Ainv, m)) < 1e-13, (n, m)
            assert np.array_equal(Ainv_in, Ainv), (n, m)


# The factor core calls LAPACK's dpotrf/dpotrs directly; scipy.linalg's
# cholesky/cho_solve call the same routines with the same arguments, so
# they are the bit-for-bit oracle.


def test_cholesky_equals_scipy_bit_for_bit_up_to_64():
    # At zero jitter A itself goes to dpotrf, which must leave it intact,
    # in either memory order.
    rng = np.random.default_rng(7)
    for n in range(1, 65):
        A = spd_matrix(rng, n)
        for A_in in (A.copy(), np.asfortranarray(A)):
            assert np.array_equal(linalg.cholesky_psd(A_in, 0.0).lower,
                                  scipy.linalg.cholesky(A, lower=True)), n
            assert np.array_equal(A_in, A), n
        assert np.array_equal(linalg.cholesky_psd(A, 1e-6).lower,
                              scipy.linalg.cholesky(A + 1e-6 * np.eye(n), lower=True)), n


def test_solve_lower_equals_solve_triangular_bit_for_bit():
    # solve_triangular calls dtrtrs with the same arguments; the right-hand
    # side is left intact.
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        f = linalg.cholesky_psd(spd_matrix(rng, n), 0.0)
        for B in (rng.normal(size=n), rng.normal(size=(n, 3)), np.eye(n)):
            B_in = B.copy()
            out = linalg.solve_lower(f, B_in)
            expected = scipy.linalg.solve_triangular(f.lower, B, lower=True)
            assert out.shape == expected.shape
            assert np.array_equal(out, expected), n
            assert np.array_equal(B_in, B), n


def test_inv_from_factor_equals_cholesky_solve_formula():
    # the formula the inverse had when it went through scipy.linalg
    rng = np.random.default_rng(9)
    for n in range(1, 65):
        A = spd_matrix(rng, n)
        inv = scipy.linalg.cho_solve((scipy.linalg.cholesky(A, lower=True), True),
                                     np.eye(n))
        got = linalg.inv_from_factor(linalg.cholesky_psd(A, 0.0))
        assert np.array_equal(got, 0.5 * (inv + inv.T)), n


def test_inv_from_factor_keeps_one_read_only_identity_per_size():
    # The right-hand side is cached per size; writing into a returned
    # inverse must not reach it, and nothing may write into it.
    rng = np.random.default_rng(14)
    mats = {n: spd_matrix(rng, n) for n in (1, 10, 40)}
    refs = {n: np.linalg.inv(A) for n, A in mats.items()}
    for _ in range(3):
        for n, A in mats.items():
            inv = linalg.inv_from_factor(linalg.cholesky_psd(A, 0.0))
            assert _rel_to(inv, refs[n]) < 1e-12, n
            inv[...] = 7.0
            eye = linalg._identity(n)
            assert not eye.flags.writeable
            assert np.array_equal(eye, np.eye(n))
            with pytest.raises(ValueError):
                eye[0, 0] = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_value_error(bad):
    A = spd_matrix(np.random.default_rng(10), 4)
    A_bad = A.copy()
    A_bad[2, 1] = A_bad[1, 2] = bad
    for call in (lambda: linalg.cholesky_psd(A_bad, 0.0),
                 lambda: linalg.inv_from_factor(linalg.cholesky_psd(A_bad, 0.0))):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()
    A_bad = A.copy()
    A_bad[3, 3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        linalg.cholesky_psd(A_bad, 0.0)


@pytest.mark.parametrize("A, base, used", [
    (np.ones((2, 2)), 0.0, 1e-06),
    (np.ones((2, 2)), 1e-6, 1e-06),
    (np.ones((3, 3)) - 1e-4 * np.eye(3), 0.0, 0.0009999),
    (np.ones((3, 3)) - 1e-4 * np.eye(3), 1e-6, 0.001),
    (np.diag([1.0, -1e-3]), 0.0, 0.005004999999999999),
])
def test_escalation_reports_the_same_jitter_as_before(A, base, used):
    # values reported when the factor went through scipy.linalg.cholesky
    assert linalg.cholesky_psd(A, base).jitter_used == used


def _linalg_records(caplog):
    return [r for r in caplog.records if r.name == "adaptive_sgp.linalg"]


def test_escalation_logs_one_warning_with_base_and_used_jitter(caplog):
    with caplog.at_level(logging.DEBUG, logger="adaptive_sgp.linalg"):
        f = linalg.cholesky_psd(np.ones((3, 3)) - 1e-4 * np.eye(3), 0.0)
    records = _linalg_records(caplog)
    assert [r.levelno for r in records] == [logging.WARNING]
    assert f.jitter_used == 0.0009999
    assert "jitter 0.0009999 (base 0)" in records[0].getMessage()


def test_roundoff_level_escalation_logs_at_info(caplog):
    # The first escalation from a zero base, to 1e-6 of the mean |diagonal|.
    with caplog.at_level(logging.DEBUG, logger="adaptive_sgp.linalg"):
        f = linalg.cholesky_psd(np.ones((2, 2)), 0.0)
    records = _linalg_records(caplog)
    assert [r.levelno for r in records] == [logging.INFO]
    assert f.jitter_used == 1e-6
    assert "jitter 1e-06 (base 0)" in records[0].getMessage()


def test_well_conditioned_factor_logs_nothing(caplog):
    rng = np.random.default_rng(11)
    with caplog.at_level(logging.DEBUG, logger="adaptive_sgp.linalg"):
        for n in (1, 5, 40):
            linalg.inv_from_factor(linalg.cholesky_psd(spd_matrix(rng, n), 0.0))
            linalg.cholesky_psd(spd_matrix(rng, n), 1e-6)
    assert _linalg_records(caplog) == []
