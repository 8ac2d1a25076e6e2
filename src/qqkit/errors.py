"""Exception types shared across the package."""


class QQError(Exception):
    """Base class for all qqkit errors."""


class PoleError(QQError):
    """A denominator binomial degenerated to (1 - 1)."""


class NonIntegerLimit(QQError):
    """A classical limit or a degenerate specialization produced a non-integer coefficient."""


class CollidingArguments(QQError):
    """A reflection hit coinciding Y-arguments (the rejected derivative case)."""


class PathInconsistency(QQError):
    """Two reflection paths assigned different coefficients to one monomial."""


class NonTermination(QQError):
    """Expansion exceeded the safety bound for a finite-type quiver."""


class YCollision(QQError):
    """Two surviving terms collided after a weight-parameter specialization."""


class InvalidPit(QQError):
    """Pit position violates the residue condition of the cyclic quiver."""


class ValidationError(QQError):
    """Malformed input: quiver data, job spec, or substitution map."""


def require_int(value, what: str) -> int:
    """``value`` if it is a plain integer (not a bool or a float), else ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value
