"""Mixed volumes by polarization in Fraction arithmetic, for tests.

Each volume of a weighted Minkowski sum is taken from the exhaustive
supporting-plane hull of `hull_oracle.py` in 3D, from a shoelace sum over
the brute-force hull edges in 2D and from the extreme coordinates in 1D;
the Minkowski sums are every sum of one weighted vertex per polytope.
Nothing here calls the library's volume kernel, its hulls or its common
lattice: each sum is scaled to integers on its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from multidegree.linalg import rank_rational

from hull_oracle import enclosed_volume, hull_3d_bruteforce


def _shoelace_twice_area(points):
    """Twice the area of the hull of integer points in the plane.  A
    directed edge (a, b) is on the boundary when no point lies to its
    right and the points on its line lie between a and b; the shoelace
    terms of these edges sum to twice the area (0 when flat)."""
    pts = sorted(set(points))
    twice = 0
    for a, b in permutations(pts, 2):
        turns = [(b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) for q in pts]
        on_line = [q for q, t in zip(pts, turns) if t == 0]
        if min(turns) >= 0 and {min(on_line), max(on_line)} == {a, b}:
            twice += a[0] * b[1] - b[0] * a[1]
    return twice


def volume_oracle(d, points):
    """Exact volume of the hull of rational points in R^d, d <= 3."""
    pts = sorted(set(points))
    scale = math.lcm(*(Fraction(x).denominator for q in pts for x in q))
    ints = [tuple(int(Fraction(x) * scale) for x in q) for q in pts]
    if d == 1:
        return Fraction(max(ints)[0] - min(ints)[0], scale)
    if d == 2:
        return Fraction(_shoelace_twice_area(ints), 2 * scale**2)
    if rank_rational([[x - y for x, y in zip(q, ints[0])] for q in ints[1:]]) < 3:
        return Fraction(0)
    return enclosed_volume(hull_3d_bruteforce(ints)) / scale**3


def mixed_volumes_oracle(d, vertex_lists):
    """{n: V(K; n)} for every n in N^p with |n| = d, by the polarization
    formula V(K; n) = (1/d!) sum_{0 != m <= n} (-1)^(d - |m|)
    prod_i binom(n_i, m_i) vol(sum_i m_i K_i)."""
    p = len(vertex_lists)
    volumes = {}
    table = {}
    for n in product(range(d + 1), repeat=p):
        if sum(n) != d:
            continue
        total = Fraction(0)
        for m in product(*(range(x + 1) for x in n)):
            if not any(m):
                continue
            if m not in volumes:
                sums = {
                    tuple(sum(w * Fraction(v[k]) for w, v in zip(m, combo)) for k in range(d))
                    for combo in product(*vertex_lists)
                }
                volumes[m] = volume_oracle(d, sums)
            coefficient = math.prod(math.comb(x, y) for x, y in zip(n, m))
            total += (-1) ** (d - sum(m)) * coefficient * volumes[m]
        table[n] = total / math.factorial(d)
    return table
