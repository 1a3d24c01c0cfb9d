"""Exception types and budgets shared across the library.

The CLI maps ValidationError to exit status 2 and the resource-limit
errors to exit status 3; everything else is a genuine bug.
"""

from fractions import Fraction
from operator import index

# the most steps an exhaustive loop may take, and nodes a recursion may visit
DEFAULT_ENUMERATION_BUDGET = 2_000_000
DEFAULT_RECURSION_BUDGET = 200_000


class ValidationError(ValueError):
    """Input violates a structural precondition or an axiom."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration exceeded its configured budget."""


class UnsupportedSizeError(RuntimeError):
    """Input is valid but outside the supported size/dimension range."""


def _integer(x: object) -> int:
    """x as an int; a float, a bool or any other non-integer raises
    ValidationError where int() would truncate it."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValidationError(f"entry {x!r} is not an integer")
    return index(x)


def _rational(x: object, where: str) -> Fraction:
    """x, an int, a Fraction or a rational string, as a Fraction; a float,
    a bool, anything else or a zero denominator raises ValidationError,
    naming `where`, where Fraction() would read a float's binary value or
    raise ZeroDivisionError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise ValidationError(f"{where}: {x!r} is not an integer, a Fraction or a rational string")
    try:
        return Fraction(x)
    except ValueError as exc:  # e.g. more digits than int() reads
        raise ValidationError(f"{where}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ValidationError(f"{where}: {x!r} has a zero denominator") from exc
