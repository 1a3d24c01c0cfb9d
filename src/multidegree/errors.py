"""Exception types and budgets shared across the library.

The CLI maps ValidationError to exit status 2 and the resource-limit
errors to exit status 3; everything else is a genuine bug.  Every
exhaustive loop charges its work to `check_budget`, the one place that
compares an amount with a budget and raises BudgetExceededError.
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


def check_budget(amount: int, what: str, budget: int | None = None) -> None:
    """Raise BudgetExceededError, naming `what` and both numbers, when
    `amount` exceeds `budget`.  The default budget is
    DEFAULT_ENUMERATION_BUDGET as it reads at the time of the call."""
    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    if amount > budget:
        raise BudgetExceededError(f"{what}: {amount} exceeds the budget of {budget}")


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
