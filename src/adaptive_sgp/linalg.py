"""Dense SPD linear algebra: jittered Cholesky, solves, log-determinants,
and the bordered block-inverse extension (``inv_extend``) and shrink
(``inv_shrink``) of ``Kuu~^-1``, the one inverse the streaming state keeps,
each one BLAS rank-one update (``add_outer``) of a new array, O(M^2);
B_lambda is read through triangular solves.

Factorizations and solves call LAPACK's ``dpotrf``/``dpotrs``/``dtrtrs``
directly.  With M around 10 a streaming step is bound by per-call
overhead, not flops, and ``scipy.linalg.cholesky``/``cho_solve`` spend
several times the cost of these routines on input validation and batch
dispatch around them.  They call them with the same arguments as here
(lower triangle, upper part zeroed), so factors and solutions are
bit-identical to theirs.  The checks they made are kept: square and
symmetric input (``DimensionMismatch``, ``NotSymmetric``), ``ValueError``
for an inf or NaN in a matrix or right-hand side, and ``ValueError`` when
LAPACK reports an illegal argument.  Nothing else is built around the
routines: at zero jitter ``A`` itself is factored, and an inverse
(``inv_from_factor``) or a triangular solve (``solve_lower``) takes the
library's own finite, factor-sized operands, unchecked.  A failed
factorization escalates the jitter geometrically and logs once it
succeeds (a warning unless the jitter is at roundoff level); ``NotPsd``
once it never does.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import DimensionMismatch, NotPsd, NotSymmetric, SchurNotPositive

MAX_JITTER_ESCALATIONS = 6
SYMMETRY_RTOL = 1e-8
SCHUR_RTOL = 1e-12
# Escalations to at most this share of the mean |diagonal| log at INFO, larger
# ones at WARNING.  The first escalation from a zero base lands exactly here:
# a roundoff-level perturbation, like the 1e-6 jitter Kuu carries anyway.
QUIET_JITTER_RTOL = 1e-6

log = logging.getLogger(__name__)


def _require_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("array must not contain infs or NaNs")


def _frobenius(A: np.ndarray) -> float:
    """``np.linalg.norm(A)`` without its wrapper: the same ``ddot`` over the
    entries in memory order."""
    a = A.ravel(order="K")
    return math.sqrt(a.dot(a))


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix."""

    lower: np.ndarray
    jitter_used: float


def cholesky_psd(A: np.ndarray, base_jitter: float = 0.0) -> CholFactor:
    """Factor ``A + jitter*I`` with geometric jitter escalation.

    The first attempt uses ``base_jitter`` exactly (so well-conditioned
    inputs report ``jitter_used == base_jitter``).  On failure the jitter
    escalates by x10, starting from ``1e-6 * mean(|diag|)`` when the base was
    zero, for at most ``MAX_JITTER_ESCALATIONS`` retries.  A factor that
    needed more than ``base_jitter`` logs one record with both values: a
    WARNING when the jitter used exceeds ``QUIET_JITTER_RTOL * mean(|diag|)``,
    else INFO.

    Raises
    ------
    DimensionMismatch
        If ``A`` is not square.
    ValueError
        If ``A`` holds an inf or NaN.
    NotSymmetric
        If ``A`` is not symmetric to 1e-8 relative tolerance.
    NotPsd
        If every attempt fails.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    norm = _frobenius(A)
    if not math.isfinite(norm):     # an inf or NaN entry, or an overflow
        _require_finite(A)
    if _frobenius(A - A.T) > SYMMETRY_RTOL * max(norm, 1.0):
        raise NotSymmetric("input is not symmetric to 1e-8 relative tolerance")

    jitter = float(base_jitter)
    quiet = None                    # QUIET_JITTER_RTOL * mean |diag|, once needed
    n = A.shape[0]
    for _ in range(MAX_JITTER_ESCALATIONS + 1):
        # A + 0*I equals A bit for bit; dpotrf copies its input either way
        lower, info = dpotrf(A if jitter == 0.0 else A + jitter * np.eye(n),
                             lower=1, clean=1)
        if info == 0:
            if quiet is not None:
                log.log(logging.WARNING if jitter > quiet else logging.INFO,
                        "Cholesky needed jitter %g (base %g) on a %dx%d matrix",
                        jitter, base_jitter, n, n)
            return CholFactor(lower=lower, jitter_used=jitter)
        if info < 0:
            raise ValueError(f"dpotrf: illegal value in argument {-info}")
        if quiet is None:
            quiet = QUIET_JITTER_RTOL * (float(np.mean(np.abs(np.diag(A)))) or 1.0)
        jitter = jitter * 10.0 if jitter > 0.0 else quiet
    raise NotPsd(f"Cholesky failed at maximum jitter {jitter / 10.0:g}")


def solve_psd(f: CholFactor, B: np.ndarray) -> np.ndarray:
    """Solve ``(A + jitter*I) X = B`` from the factor of A."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] != f.lower.shape[0]:
        raise DimensionMismatch(
            f"factor is {f.lower.shape[0]}x{f.lower.shape[0]}, rhs has {B.shape[0]} rows"
        )
    _require_finite(B)
    X, info = dpotrs(f.lower, B, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return X


def solve_lower(f: CholFactor, B: np.ndarray) -> np.ndarray:
    """``L^-1 B`` for the factor's lower triangle L: one forward solve."""
    X, info = dtrtrs(f.lower, B, lower=1)
    if info != 0:
        raise ValueError(f"dtrtrs: illegal value in argument {-info}")
    return X


def logdet(f: CholFactor) -> float:
    """Log-determinant of the factored (jittered) matrix."""
    return 2.0 * float(np.sum(np.log(np.diag(f.lower))))


def inv_from_factor(f: CholFactor) -> np.ndarray:
    """Dense, symmetrised inverse of the factored (jittered) matrix.

    The identity right-hand side is finite and sized to the factor by
    construction, so it goes to ``dpotrs`` without ``solve_psd``'s checks;
    LAPACK's argument check stays."""
    inv, info = dpotrs(f.lower, np.eye(f.lower.shape[0]), lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return 0.5 * (inv + inv.T)


def add_outer(A: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A + x y^T`` for a C-ordered float ``A``, written into ``A`` with no
    temporary: BLAS ``dger`` updates its F-ordered transpose in place."""
    return dger(1.0, y, x, a=A.T, overwrite_a=True).T


def inv_extend(Ainv: np.ndarray, b: np.ndarray, b0: float) -> np.ndarray:
    """Inverse of the bordered matrix [[A, b], [b^T, b0]] in O(k^2).

    ``Ainv`` must be the inverse of A.  Uses the block-inversion identities;
    the Schur complement ``b0 - b^T Ainv b`` must be positive.

    Raises
    ------
    SchurNotPositive
        When the Schur complement is <= ``SCHUR_RTOL * max(|b0|, 1)``; the
        caller should rebuild the inverse from scratch.
    """
    Ainv = np.asarray(Ainv, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != Ainv.shape[0]:
        raise DimensionMismatch("border vector length does not match inverse size")
    v = Ainv @ b
    schur = float(b0 - b @ v)
    if schur <= SCHUR_RTOL * max(abs(b0), 1.0):
        raise SchurNotPositive(f"Schur complement {schur:g} not positive")
    # [[Ainv, 0], [0, 0]] + u u^T / schur with u = [v, -1], on a new array
    k = Ainv.shape[0]
    out = np.zeros((k + 1, k + 1))
    out[:k, :k] = Ainv
    u = np.concatenate((v, (-1.0,)))
    return add_outer(out, u / schur, u)


def inv_shrink(Ainv: np.ndarray, m: int) -> np.ndarray:
    """Inverse of A with row and column ``m`` removed, in O(k^2).

    ``Ainv`` must be the inverse of A.  This undoes ``inv_extend``:
    Ainv - Ainv[:, m] Ainv[m, :] / Ainv[m, m], then row and column m
    dropped (the basis-vector deletion of Csato & Opper 2002).
    """
    keep = (np.arange(Ainv.shape[0]) != m).nonzero()[0]
    rows = Ainv.take(keep, 0)
    # a new array: Ainv is never written
    return add_outer(rows.take(keep, 1), rows[:, m],
                     Ainv[m].take(keep) / -Ainv[m, m])
