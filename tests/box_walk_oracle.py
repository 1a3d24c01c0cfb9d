"""Oracle for `multidegree_polynomial`: the additivity route with every
multiplicity counted, as the library counted it before squarefree ideals
took mult_P = 1.

The minimum primes P are found by trying variable sets in order of
size.  mult_P is the number of standard monomials of the ideal left when
every variable outside P is set to 1, counted by walking the box below
its least pure powers, and the linear forms <deg x_i, t> are multiplied
out with `IntPolynomial` products.  Nothing is shared with the library's
cover search or its `_length_at`.
"""

from itertools import combinations, product

from multidegree import IntPolynomial


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def box_walk_multidegree(ideal):
    """sum_P mult_P * prod_{i in P} <deg x_i, t> over the minimum primes P."""
    grading = ideal.grading
    nvars, p = grading.nvars, grading.p
    supports = [{v for v, e in enumerate(g) if e} for g in ideal.generators]
    for size in range(nvars + 1):
        covers = [c for c in combinations(range(nvars), size) if all(set(c) & s for s in supports)]
        if covers:
            break
    total = IntPolynomial.zero(p)
    for cover in covers:
        restricted = [tuple(g[v] for v in cover) for g in ideal.generators]
        pure = [r for r in restricted if sum(1 for x in r if x) == 1]
        box = [min(r[k] for r in pure if r[k]) for k in range(len(cover))]
        length = sum(
            1 for m in product(*map(range, box)) if not any(_divides(r, m) for r in restricted)
        )
        term = IntPolynomial.one(p)
        for v in cover:
            units = {tuple(int(j == k) for j in range(p)): d for k, d in enumerate(grading.degree_of[v])}
            term = term * IntPolynomial(p, units)
        total = total + term * length
    return total
