"""Independent pipe-dream (reduced RC-graph) oracle for Schubert
polynomials.

A pipe dream places crossing tiles on the staircase {(r, c) : r + c <= p}
of a p x p grid; every other tile is a pair of elbows (west-north and
south-east arcs).  Pipe i enters at the west edge of row i and leaves
through the top edge of some column; the induced map row -> exit column
is a permutation.  A placement with exactly length(w) crossings whose
permutation is w is a reduced pipe dream for w, and the monomial
expansion sum over reduced pipe dreams of prod t_row(cross) equals the
Schubert polynomial.  Everything here is brute force over subsets and
shares no code with the divided-difference recursion.
"""

from __future__ import annotations

from itertools import combinations

from multidegree import IntPolynomial, Permutation, length


def trace_permutation(p: int, crosses: set[tuple[int, int]]) -> dict[int, int]:
    """Follow every pipe through the tile grid; map entry row to exit column."""
    exits: dict[int, int] = {}
    for i in range(1, p + 1):
        row, col, entry = i, 1, "W"
        while True:
            if (row, col) in crosses:
                out = "E" if entry == "W" else "N"
            else:
                out = "N" if entry == "W" else "E"
            if out == "N":
                if row == 1:
                    exits[i] = col
                    break
                row -= 1
                entry = "S"
            else:
                col += 1
                entry = "W"
    return exits


def staircase_cells(p: int) -> list[tuple[int, int]]:
    return [(r, c) for r in range(1, p + 1) for c in range(1, p + 1) if r + c <= p]


def reduced_pipe_dreams(pi: Permutation) -> list[set[tuple[int, int]]]:
    """All size-length(pi) staircase placements realizing pi.

    A placement realizing pi needs at least length(pi) crossings, with
    equality exactly when no two pipes cross twice, so the size filter
    plus the permutation check characterizes reduced pipe dreams.
    """
    target = {i: v for i, v in enumerate(pi.one_line, start=1)}
    dreams = []
    for combo in combinations(staircase_cells(pi.p), length(pi)):
        crosses = set(combo)
        if trace_permutation(pi.p, crosses) == target:
            dreams.append(crosses)
    return dreams


def schubert_via_pipe_dreams(pi: Permutation) -> IntPolynomial:
    total = IntPolynomial.zero(pi.p)
    for dream in reduced_pipe_dreams(pi):
        exponent = [0] * pi.p
        for row, _col in dream:
            exponent[row - 1] += 1
        total = total + IntPolynomial.monomial(pi.p, exponent)
    return total


def schubert_polynomials_via_pipe_dreams(p: int) -> dict[tuple[int, ...], IntPolynomial]:
    """Every Schubert polynomial of S_p, keyed by one-line notation, from
    one pass over all placements on the staircase: a placement is a
    reduced pipe dream of the permutation it realizes exactly when it has
    length-many crossings."""
    cells = staircase_cells(p)
    terms: dict[tuple[int, ...], list] = {}
    for size in range(len(cells) + 1):
        for combo in combinations(cells, size):
            exits = trace_permutation(p, set(combo))
            w = Permutation([exits[i] for i in range(1, p + 1)])
            if length(w) == size:
                exponent = [0] * p
                for row, _col in combo:
                    exponent[row - 1] += 1
                terms.setdefault(w.one_line, []).append((exponent, 1))
    return {w: IntPolynomial(p, t) for w, t in terms.items()}
