"""Permutations, Schubert polynomials, Rothe diagrams, and the theta
statistic that carries their projection data.

Schubert polynomials follow the divided-difference recursion: the
longest permutation gets prod_i t_i^(p-i), and an ascent at position i
(one-line entries increasing there) is resolved by swapping the two
positions and applying the i-th divided difference.  Rows and columns
of diagrams are 1-indexed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import ValidationError, Value, check_budget
from .poly import IntPolynomial
from .polymatroid import RankFunction, Support, msupp_from_rank
from .polymatroid import _integer, _set_to_mask, check_ground_set
from .schemas import check


class Permutation(Value):
    """Permutation of [p] in one-line notation (1-indexed values)."""

    __slots__ = ("p", "one_line")

    def __init__(self, one_line: Iterable[int]):
        entries = tuple(map(_integer, one_line))
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValidationError(f"{entries} is not a permutation of 1..{len(entries)}")
        self._set(p=len(entries), one_line=entries)

    @classmethod
    def identity(cls, p: int) -> "Permutation":
        return cls(range(1, p + 1))

    @classmethod
    def longest(cls, p: int) -> "Permutation":
        return cls(range(p, 0, -1))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.p:
            raise ValidationError(f"position {i} out of range 1..{self.p}")
        return self.one_line[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.p
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def swap_positions(self, i: int) -> "Permutation":
        """Exchange the entries at positions i and i+1."""
        if not 1 <= i < self.p:
            raise ValidationError(f"position {i} out of range 1..{self.p - 1}")
        entries = list(self.one_line)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
        return Permutation(entries)

    def ascents(self) -> list[int]:
        """Positions i with entry(i) < entry(i+1)."""
        return [
            i for i in range(1, self.p) if self.one_line[i - 1] < self.one_line[i]
        ]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "one_line": list(self.one_line)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Permutation":
        """A permutation from a document of the `permutation` schema."""
        check("permutation", data)
        perm = cls(data["one_line"])
        if "p" in data and data["p"] != perm.p:
            raise ValidationError("permutation JSON 'p' disagrees with 'one_line'")
        return perm


def _grid(p: int) -> range:
    """1..p, the rows and the columns of the p x p grid; a grid of more
    than DEFAULT_ENUMERATION_BUDGET cells raises BudgetExceededError, so
    every walk over one is refused before it starts."""
    check_budget(p * p, f"cells of the {p}x{p} grid")
    return range(1, p + 1)


def length(pi: Permutation) -> int:
    """Number of inversions."""
    entries = pi.one_line
    return sum(entries[i - 1] > entries[j] for i in _grid(pi.p) for j in range(i, pi.p))


# A benchmark run of the enumerate workload leaves 461 entries; the bound
# keeps a long-lived process from holding every polynomial it ever met.
@lru_cache(maxsize=1024)
def _schubert_cached(one_line: tuple[int, ...]) -> IntPolynomial:
    p = len(one_line)
    pi = Permutation(one_line)
    ascents = pi.ascents()
    if not ascents:
        # longest permutation: prod_i t_i^(p-i)
        return IntPolynomial.monomial(p, tuple(p - i for i in range(1, p + 1)))
    i = ascents[0]
    higher = _schubert_cached(pi.swap_positions(i).one_line)
    return higher.divided_difference(i)


def schubert_polynomial(pi: Permutation) -> IntPolynomial:
    """Schubert polynomial in p variables, by the ascent recursion.

    The result is independent of which ascent is resolved first; the
    implementation always takes the smallest for determinism.  The
    recursion is C(p, 2) - length(pi) calls deep, so p is capped first.
    """
    check_ground_set(pi.p)
    return _schubert_cached(pi.one_line)


class Diagram(Value):
    """Subset of the p x p grid; cells are (row, col), 1-indexed."""

    __slots__ = ("p", "cells")

    def __init__(self, p: int, cells: Iterable[tuple[int, int]]):
        p = _integer(p)
        if p < 0:
            raise ValidationError(f"grid size {p} is negative")
        cell_set = frozenset((_integer(r), _integer(c)) for r, c in cells)
        for r, c in cell_set:
            if not (1 <= r <= p and 1 <= c <= p):
                raise ValidationError(f"cell ({r},{c}) outside the {p}x{p} grid")
        self._set(p=p, cells=cell_set)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "cells": [list(c) for c in sorted(self.cells)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Diagram":
        """A diagram from a document of the `diagram` schema."""
        check("diagram", data)
        return cls(data["p"], data["cells"])


def rothe_diagram(pi: Permutation) -> Diagram:
    """Cells (i, j) with pi(i) > j and pi^{-1}(j) > i."""
    inv = pi.inverse()
    grid = _grid(pi.p)
    cells = [(i, j) for i in grid for j in grid if pi(i) > j and inv(j) > i]
    return Diagram(pi.p, cells)


def _column_words(d: Diagram) -> list[list[tuple[int, bool]]]:
    """Each nonempty column read top to bottom down to its last cell, as
    (row bit, cell present) pairs; a row below adds at most an unclosed "("."""
    last = {c: r for r, c in sorted(d.cells)}  # the lowest row wins
    return [[(1 << (r - 1), (r, c) in d.cells) for r in range(1, last[c] + 1)] for c in sorted(last)]


def _column_theta(word: list[tuple[int, bool]], mask: int) -> int:
    """Matched "()" pairs plus stars of one column word, for the rows in `mask`."""
    open_count = total = 0
    for bit, present in word:
        if not mask & bit:
            if present and open_count:
                open_count -= 1
                total += 1
        elif present:
            total += 1
        else:
            open_count += 1
    return total


def theta(d: Diagram, subset: Iterable[int]) -> int:
    """Column-word statistic: matched "()" pairs plus stars, summed over columns.

    Reading column c top to bottom: a row r contributes "(" if the cell
    is absent and r is in the subset, ")" if the cell is present and r
    is outside, and a star if the cell is present and r is inside.
    """
    _grid(d.p)
    mask = _set_to_mask(subset, d.p)
    return sum(_column_theta(word, mask) for word in _column_words(d))


def theta_rank_function(d: Diagram) -> RankFunction:
    """Table of theta over all subsets of [p].  A column word of L rows
    sees only a mask's first L bits, so its share is tabulated once over
    those 2^L masks and added to every entry."""
    check_ground_set(d.p)
    values = [0] * (1 << d.p)
    for word in _column_words(d):
        low_rows = (1 << len(word)) - 1
        column = [_column_theta(word, mask) for mask in range(low_rows + 1)]
        values = [v + column[mask & low_rows] for mask, v in enumerate(values)]
    return RankFunction(d.p, values)


def schubert_support_polytope(pi: Permutation) -> Support:
    """Multidegree support of the matrix Schubert variety, in n-coordinates.

    The support is cut out by sum_{j in J} ((p-1) - n_j) <= theta(J)
    with equality on the full set; substituting m = (p-1)*1 - n turns
    theta into the rank function of the exponent polytope, so the
    n-points come from the complementary rank function

        r'(J) = (p-1)|J| - theta([p]) + theta([p] \\ J).

    Use Support.complement(p-1) for the exponent-coordinate view.
    """
    p = pi.p
    rho = theta_rank_function(rothe_diagram(pi))
    full = rho.full_mask
    values = [
        (p - 1) * bin(mask).count("1") - rho.values[full] + rho.values[full ^ mask]
        for mask in range(1 << p)
    ]
    comp = RankFunction(p, values)
    try:
        return msupp_from_rank(comp)
    except ValidationError as exc:
        raise AssertionError(
            "complementary theta rank of a Rothe diagram must be submodular; "
            f"violation: {exc}"
        ) from exc


def projection_codim(pi: Permutation, subset: Iterable[int]) -> int:
    """theta([p]) - theta([p] \\ subset): codimension of the projection
    of the matrix Schubert variety onto the rows in the subset."""
    mask = _set_to_mask(subset, pi.p)
    d = rothe_diagram(pi)
    rows = range(1, pi.p + 1)
    return theta(d, rows) - theta(d, [j for j in rows if not mask >> (j - 1) & 1])
