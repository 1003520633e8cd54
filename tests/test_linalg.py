import numpy as np
import pytest

from adaptive_sgp import linalg
from adaptive_sgp.errors import NotPsd, NotSymmetric, SchurNotPositive

from helpers import spd_matrix


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


def test_solve_identity():
    f = linalg.cholesky_psd(np.eye(3), 0.0)
    B = np.arange(6.0).reshape(3, 2)
    assert np.allclose(linalg.solve_psd(f, B), B)


def test_solve_hand_2x2():
    f = linalg.cholesky_psd(np.array([[4.0, 2.0], [2.0, 3.0]]), 0.0)
    x = linalg.solve_psd(f, np.array([[1.0], [0.0]]))
    assert np.allclose(x, np.array([[3.0 / 8.0], [-1.0 / 4.0]]))


def test_solve_self_gives_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = spd_matrix(rng, int(rng.integers(2, 16)))
        f = linalg.cholesky_psd(A, 0.0)
        X = linalg.solve_psd(f, A)
        assert np.max(np.abs(X - np.eye(A.shape[0]))) < 1e-8


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


def test_inv_shrink_matches_direct_inverse_up_to_64():
    rng = np.random.default_rng(5)
    for n in [2, 3, 5, 8, 13, 21, 34, 64]:
        A = spd_matrix(rng, n)
        Ainv = np.linalg.inv(A)
        for m in range(n):
            keep = np.arange(n) != m
            direct = np.linalg.inv(A[np.ix_(keep, keep)])
            out = linalg.inv_shrink(Ainv, m)
            assert out.shape == (n - 1, n - 1)
            assert np.max(np.abs(out - direct)) / np.max(np.abs(direct)) < 1e-9


def test_inv_shrink_undoes_inv_extend():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 64))
        A = spd_matrix(rng, k + 1)
        Ainv = np.linalg.inv(A[:k, :k])
        ext = linalg.inv_extend(Ainv, A[:k, k], float(A[k, k]))
        out = linalg.inv_shrink(ext, k)
        assert np.max(np.abs(out - Ainv)) / np.max(np.abs(Ainv)) < 1e-10
