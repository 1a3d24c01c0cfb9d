"""Exact linear algebra over the rationals and over prime fields.

Everything here works on small dense matrices (rows as sequences) and
uses fraction-free or Fraction arithmetic, so ranks and solutions are
exact.  Intended for the subspace-dimension computations of the
polymatroid module and the dimension tests of the mixed-volume module;
sizes never exceed a few hundred rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ValidationError


def rank_rational(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the matrix with the given rows, by Gaussian elimination over Q."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    if any(len(row) != ncols for row in mat):
        raise ValidationError("ragged matrix: rows have different lengths")
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def is_prime(n: int) -> bool:
    if n < 2:
        return False
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
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    if any(len(row) != ncols for row in mat):
        raise ValidationError("ragged matrix: rows have different lengths")
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def solve_rational(
    matrix: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solve the square system matrix @ x = rhs exactly; raise if singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    if any(len(row) != n + 1 for row in aug):
        raise ValidationError("solve_rational expects a square matrix")
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValidationError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]
