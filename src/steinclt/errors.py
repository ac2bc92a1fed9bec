"""Exception types shared across the library, and its argument checks.

`check_count` is the one check of an integer dimension or count, and
`check_real` the one check of a real scalar argument; no other module tests
finiteness itself.
"""

import math
import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DimensionMismatchError(ValueError):
    """Point and set (or two sets) do not live in the same dimension."""


class ConfigurationError(ValueError):
    """A quadrature spec, CLI flag or config file entry is unusable."""


class DegeneracyError(ValueError):
    """A covariance structure violates the positivity needed downstream."""


class HypothesisViolationError(ValueError):
    """Inputs violate a hypothesis of the bound being evaluated."""


def check_count(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; DomainError for bools, non-integral or non-finite values."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def check_real(name: str, value, low: float = 0.0, *, allow_low: bool = False) -> float:
    """value as a float, finite and > low (>= low when allow_low).

    DomainError for a bool, a non-real value (a string, None), NaN, +-inf or a
    value out of range; low = -inf asks only for a finite value.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        real = float(value)
        if math.isfinite(real) and (low < real or allow_low and real == low):
            return real
    bound = "" if low == -math.inf else f" and {'>=' if allow_low else '>'} {low:g}"
    raise DomainError(f"{name} must be finite{bound}, got {value!r}")
