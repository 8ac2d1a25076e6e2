"""Exception types shared across the package."""


class QQError(Exception):
    """Base class for all qqkit errors; each type declares its CLI exit code and stderr label."""

    exit_code, label = 7, "internal consistency failure"

    def __init_subclass__(cls, exit_code: int, label: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code, cls.label = exit_code, label


class PoleError(QQError, exit_code=3, label="pole error"):
    """A denominator binomial degenerated to (1 - 1)."""


class NonIntegerLimit(QQError, exit_code=6, label="non-integer limit"):
    """A classical limit or a degenerate specialization produced a non-integer coefficient."""


class CollidingArguments(QQError, exit_code=4, label="colliding arguments"):
    """A reflection hit coinciding Y-arguments (the rejected derivative case), or a pole
    of an S-factor at generic weight parameters, where the reflection rule does not reach."""


class PathInconsistency(QQError, exit_code=7, label="internal consistency failure"):
    """Two reflection paths assigned different coefficients to one monomial."""


class NonTermination(QQError, exit_code=7, label="internal consistency failure"):
    """Expansion exceeded the safety bound for a finite-type quiver."""


class YCollision(QQError, exit_code=5, label="specialization collision"):
    """Two surviving terms collided after a weight-parameter specialization."""


class InvalidPit(QQError, exit_code=4, label="colliding arguments"):
    """Pit position violates the residue condition of the cyclic quiver."""


class ValidationError(QQError, exit_code=2, label="validation error"):
    """Malformed input: quiver data, job spec, or substitution map."""


def require_int(value, what: str) -> int:
    """``value`` if it is a plain integer (not a bool or a float), else ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value
