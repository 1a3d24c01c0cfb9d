"""Exact linear algebra over the rationals and over prime fields.

One Gaussian elimination, `extend_basis`, serves every routine.  It grows
an echelon basis, a list of (pivot column, row) pairs: each row is 1 at
its pivot and was reduced by the rows before it, so reducing a new row by
the basis in order clears every pivot column.  Entries are Fractions over
Q and residues mod p over F_p, so ranks and solutions are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import DEFAULT_ENUMERATION_BUDGET, BudgetExceededError, ValidationError


def _mod(vec: list, prime: int | None) -> list:
    return vec if prime is None else [x % prime for x in vec]


def extend_basis(basis: list, rows: Sequence[Sequence], prime: int | None = None) -> list:
    """A new basis: `basis` plus the independent remainders of `rows`, over
    Q or F_prime.  `basis` itself is never changed, so sibling extensions
    may share it.  Rows stop being read once the basis spans the space."""
    basis = list(basis)
    for row in rows:
        if len(basis) == len(row):
            break
        vec = [Fraction(x) for x in row] if prime is None else _mod(list(map(int, row)), prime)
        for col, pivot_row in basis:
            factor = vec[col]
            if factor:
                vec = _mod([a - factor * b for a, b in zip(vec, pivot_row)], prime)
        col = next((i for i, x in enumerate(vec) if x), None)
        if col is not None:
            inv = 1 / vec[col] if prime is None else pow(vec[col], -1, prime)
            basis.append((col, _mod([x * inv for x in vec], prime)))
    return basis


def _check_rectangular(rows: Sequence[Sequence]) -> None:
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValidationError("ragged matrix: rows have different lengths")


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the matrix with the given rows, by Gaussian elimination over Q."""
    _check_rectangular(rows)
    return len(extend_basis([], rows))


def is_prime(n: int) -> bool:
    """Primality by trial division; more than DEFAULT_ENUMERATION_BUDGET
    candidate divisors raise BudgetExceededError before the first."""
    if n < 2:
        return False
    if isqrt(n) > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"trial division of {n} exceeds {DEFAULT_ENUMERATION_BUDGET} divisors"
        )
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    _check_rectangular(rows)
    return len(extend_basis([], rows, p))


def solve_rational(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solve the square system matrix @ x = rhs exactly; raise if singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in aug):
        raise ValidationError("solve_rational expects a square matrix")
    basis = extend_basis([], aug)
    if len(basis) < n or any(col == n for col, _row in basis):
        raise ValidationError("singular linear system")
    # a row is 1 at its pivot and 0 at the pivots before it; from the last
    # row up, x is still 0 there, so the dot product holds only known terms
    x = [Fraction(0)] * n
    for col, row in reversed(basis):
        x[col] = row[n] - sum(a * b for a, b in zip(row, x))
    return x
