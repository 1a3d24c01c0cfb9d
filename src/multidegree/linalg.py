"""Exact linear algebra over Q and over prime fields, in integers.

`integer_row` reads each row once: a primitive integer vector over Q,
residues over F_p.  One elimination, `extend_basis`, serves every
routine.  It grows an echelon basis of (pivot column, row) pairs; each
row is nonzero at its pivot and was reduced by the rows before it, so
reducing a new row by the basis in order clears every pivot column.
A step b * vec - a * pivot (a = vec[col], b = pivot[col]) is divided by
its gcd over Q and reduced mod p over F_p, so no Fraction is built
(integer-preserving elimination: Bareiss, Math. Comp. 22 (1968)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import ValidationError, _integer, check_budget


def integer_row(row: Sequence, prime: int | None = None) -> list[int]:
    """`row` as an integer vector on the same line: over Q, times the lcm
    of its denominators and over their gcd; over F_prime, its residues.
    Over F_prime an entry must be an integer or an integral Fraction (as
    `SubspaceFamily` stores them); anything else raises ValidationError."""
    if prime is not None:
        return [
            (x.numerator if type(x) is Fraction and x.denominator == 1 else _integer(x)) % prime
            for x in row
        ]
    entries = [x if type(x) is Fraction else Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in entries))
    vec = [x.numerator * (scale // x.denominator) for x in entries]
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def extend_basis(basis: list, rows: Sequence[Sequence[int]], prime: int | None = None) -> list:
    """A new basis: `basis` plus the independent remainders of `rows`, over
    Q or F_prime.  Rows are integer vectors as `integer_row` makes them.
    `basis` itself is never changed, so sibling extensions may share it.
    Rows stop being read once the basis spans the space."""
    basis = list(basis)
    for vec in rows:
        if len(basis) == len(vec):
            break
        for col, pivot_row in basis:
            a = vec[col]
            if a:
                b = pivot_row[col]
                if prime:
                    vec = [(b * x - a * y) % prime for x, y in zip(vec, pivot_row)]
                else:
                    vec = [b * x - a * y for x, y in zip(vec, pivot_row)]
                    g = gcd(*vec)
                    vec = [x // g for x in vec] if g > 1 else vec
        col = next((i for i, x in enumerate(vec) if x), None)
        if col is not None:
            basis.append((col, vec))
    return basis


def _check_rectangular(rows: Sequence[Sequence]) -> None:
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValidationError("ragged matrix: rows have different lengths")


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the matrix with the given rows over Q."""
    _check_rectangular(rows)
    return len(extend_basis([], [integer_row(row) for row in rows]))


def is_prime(n: int) -> bool:
    """Primality by trial division; more than DEFAULT_ENUMERATION_BUDGET
    candidate divisors raise BudgetExceededError before the first."""
    if n < 2:
        return False
    check_budget(isqrt(n), f"candidate divisors in the trial division of {n}")
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
    return len(extend_basis([], [integer_row(row, p) for row in rows], p))


def solve_rational(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solve the square system matrix @ x = rhs exactly; raise if singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in aug):
        raise ValidationError("solve_rational expects a square matrix")
    basis = extend_basis([], [integer_row(row) for row in aug])
    if len(basis) < n or any(col == n for col, _row in basis):
        raise ValidationError("singular linear system")
    # from the last row up, x is still 0 at the row's own pivot and at the
    # pivots before it, where the row is 0: the dot product holds known terms
    x = [Fraction(0)] * n
    for col, row in reversed(basis):
        x[col] = (row[n] - sum(a * b for a, b in zip(row, x))) / row[col]
    return x
