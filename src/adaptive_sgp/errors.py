"""Exception types shared across the package."""


class AdaptiveSgpError(Exception):
    """Base class for all library errors."""


class NotSymmetric(AdaptiveSgpError):
    """Matrix failed the symmetry check."""


class NotPsd(AdaptiveSgpError):
    """Factorization failed even at maximum jitter."""


class DimensionMismatch(AdaptiveSgpError):
    """Operands have incompatible shapes."""


class SchurNotPositive(AdaptiveSgpError):
    """Bordered-matrix extension rejected: Schur complement not positive.

    ``linalg.inv_extend`` raises it when called on its own.  Fast mode
    tests the complement first (``linalg.schur_positive``) and rejects the
    candidate inducing point before extending, so no stream raises it.
    """


class KxuNotCarried(AdaptiveSgpError):
    """A fast-mode admission on a state that carries no ``kxu`` (one whose
    parameters an update has moved)."""


class InvalidLambda(AdaptiveSgpError):
    """Forgetting factor outside (0, 1]."""


class EmptyRecords(AdaptiveSgpError):
    """Metric requested over an empty record list."""


class MapeUndefined(AdaptiveSgpError):
    """MAPE undefined because some |y_true| is below tolerance."""


class TooShort(AdaptiveSgpError):
    """Series too short for the requested lag embedding (``lag_embed``) or
    run (``run_experiment``)."""
