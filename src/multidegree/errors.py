"""Exception types, budgets and the value base shared across the library.

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

_assign = object.__setattr__  # bypasses Value.__setattr__; bound once, as constructors are hot


class ValidationError(ValueError):
    """Input violates a structural precondition or an axiom."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration exceeded its configured budget."""


class UnsupportedSizeError(RuntimeError):
    """Input is valid but outside the supported size/dimension range."""


class Value:
    """An immutable value, compared, hashed and printed by its fields.

    A subclass lists its fields in `__slots__` and sets them with `_set`;
    plain assignment and deletion raise AttributeError.  Fields named with
    a leading underscore are private caches: pickling and copying carry
    them, but ==, hash and repr go by the public fields, in slot order.
    """

    __slots__ = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            _assign(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        self._set(**state)


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


def _rationals(entries: list) -> dict | None:
    """Each distinct entry mapped to its Fraction, built once however
    often the entry recurs; None when an entry is not exactly an int, a
    Fraction or a str, or a string is no rational, so that the caller's
    walk with `_rational` names the first fault.  The types are read
    from every entry before any two are merged as keys: True == 1 and
    1.0 == 1 would merge."""
    if not set(map(type, entries)) <= {int, Fraction, str}:
        return None
    try:
        return {x: Fraction(x) for x in set(entries)}
    except (ValueError, ZeroDivisionError):
        return None
