"""Mixed volumes read off one hull of the whole Minkowski sum, the route
the library took before the facet formula, for tests.

The vertices are scaled once by the lcm L of their denominators, each
member of a tuple of two or more is cut to its corners, and the sum
K_1 + ... + K_p is built one summand at a time, each point with one
vertex of each summand that it is the sum of.  A point W = a_1 + ... +
a_p of the sum on its face with outer normal u has every a_i on the
u-face of K_i (Ziegler, *Lectures on Polytopes*, section 7.1), so W(l) =
l_1 a_1 + ... + l_p a_p lies on the u-face of l_1 K_1 + ... + l_p K_p
for every l > 0.  The integer polynomial

    D(l) = d! L^d vol(l_1 K_1 + ... + l_p K_p) = sum_{|n| = d} c_n l^n

is then expanded by multilinearity from the lengths of the summands in
1D, sum_k det(W_k(l), W_{k+1}(l)) over the counterclockwise ring of the
sum in 2D and sum det(A(l), B(l), C(l)) over the triangles of its hull
in 3D, and V(K; n) = c_n n! / (d!^2 L^d).  This shares the library's
hulls and its lattice, but no support function and no pair sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add

from multidegree.mixedvol import _corners, _cross3, _hull_2d, _hull_3d_incremental, _integer_vertices
from multidegree.polymatroid import compositions


def sum_hull_oracle(polytopes):
    """{n: V(K; n)} for every n in N^p with |n| = d, from the hull of the
    whole sum of the tuple of `LatticePolytope`s."""
    d = polytopes[0].d
    p = len(polytopes)
    lattice, scale = _integer_vertices(polytopes)
    if p > 1:
        lattice = [_corners(d, pts)[0] for pts in lattice]
    sums = {v: (v,) for v in lattice[0]}  # point -> one vertex per summand
    for k in range(1, p):
        sums = {tuple(map(add, w, v)): parts + (v,) for w, parts in sums.items() for v in lattice[k]}
        if k < p - 1:
            sums = {w: sums[w] for w in _corners(d, sums)[0]}
    # terms[t]: the coefficient sum for the t-th index tuple of
    # product(range(p), repeat=d)
    if d == 1:
        lo, hi = sums[min(sums)], sums[max(sums)]
        terms = [b[0] - a[0] for a, b in zip(lo, hi)]
    elif d == 2:
        ring = [sums[w] for w in _hull_2d(sums)]
        edges = list(zip(ring, ring[1:] + ring[:1])) if len(ring) > 2 else []
        terms = [0] * p**2
        for a, b in edges:
            for t, ((x1, y1), (x2, y2)) in enumerate(product(a, b)):
                terms[t] += x1 * y2 - x2 * y1
    else:
        terms = [0] * p**3
        for a, b, c, *_plane in _hull_3d_incremental(sums) or []:
            crosses = [_cross3(v, w) for v, w in product(sums[b], sums[c])]
            for t, (x, (u, v, w)) in enumerate(product(sums[a], crosses)):
                terms[t] += x[0] * u + x[1] * v + x[2] * w
    coefficients = dict.fromkeys(compositions(d, p), 0)
    for index_tuple, term in zip(product(range(p), repeat=d), terms):
        coefficients[tuple(map(index_tuple.count, range(p)))] += term
    denominator = math.factorial(d) ** 2 * scale**d
    return {
        n: Fraction(c * math.prod(map(math.factorial, n)), denominator)
        for n, c in coefficients.items()
    }
