"""Oracles for `is_mconvex` and `rank_from_support`.

`exchange_report` is the pass over ordered pairs that decided the
exchange axiom before the bitset search: for x, then y, in the support's
order and i increasing, it returns the first (x, y, i) with x_i > y_i
and no j with x_j < y_j and x - e_i + e_j in the support.  It costs
O(|S|^2 p^2) steps, too many for supports of thousands of points.
`bitset_exchange_report` is the bitset search as it was before down
points were shared: the same witness, with the failing set of every
(x, i) taken afresh as at most p ANDs of one mask per coordinate value,
so it is fast enough for those supports and independent of the set of
clean down points that `is_mconvex` keeps.  Its masks are built by one
OR per point, independent of the rank texts that `is_mconvex` reads.
`murota_mconvex` decides the same property by Murota's characterization
(*Discrete Convex Analysis*, 2003): S is M-convex iff r_S is submodular
and B(r_S) has exactly |S| lattice points.  `rank_from_support_oracle`
sums every subset of every point directly.
"""

from operator import mul

from multidegree import (
    MConvexReport,
    RankFunction,
    msupp_from_rank,
    rank_from_support,
    validate_rank_function,
)


def exchange_report(s):
    members = set(s.points)
    for x in s.points:
        for y in s.points:
            if x == y:
                continue
            for i in range(s.p):
                if x[i] <= y[i]:
                    continue
                found = False
                for j in range(s.p):
                    if x[j] >= y[j]:
                        continue
                    candidate = list(x)
                    candidate[i] -= 1
                    candidate[j] += 1
                    if tuple(candidate) in members:
                        found = True
                        break
                if not found:
                    return MConvexReport(False, (x, y, i + 1))
    return MConvexReport(True, None)


def bitset_exchange_report(s):
    """For each x and i, the points y with y_i < x_i and y_j <= x_j for
    every j != i whose move x - e_i + e_j stays in s fail the exchange;
    the least index over all i, then the least i, is the witness."""
    points, p = s.points, s.p
    powers = [(s.weight + 1) ** j for j in range(p)]
    keys = {sum(map(mul, x, powers)) for x in points}
    # below[j][v] / upto[j][v]: the points y with y_j < v / y_j <= v, bit k for points[k]
    below, upto = [], []
    for j in range(p):
        by_value = {}
        for k, y in enumerate(points):
            by_value[y[j]] = by_value.get(y[j], 0) | 1 << k
        lower, upper, seen = {}, {}, 0
        for v in sorted(by_value):
            lower[v] = seen
            seen |= by_value[v]
            upper[v] = seen
        below.append(lower)
        upto.append(upper)
    for x in points:
        key = sum(map(mul, x, powers))
        first = None
        for i in range(p):
            failing = below[i][x[i]]
            moved = key - powers[i]
            for j in range(p):
                if failing and j != i and moved + powers[j] in keys:
                    failing &= upto[j][x[j]]
            if failing:
                k = (failing & -failing).bit_length() - 1
                if first is None or k < first[0]:
                    first = (k, i)
        if first is not None:
            return MConvexReport(False, (x, points[first[0]], first[1] + 1))
    return MConvexReport(True, None)


def rank_from_support_oracle(s):
    values = []
    for mask in range(1 << s.p):
        idx = [j for j in range(s.p) if mask >> j & 1]
        values.append(max(sum(pt[j] for j in idx) for pt in s.points))
    return RankFunction(s.p, values)


def murota_mconvex(s):
    """S lies in B(r_S) always, so equal counts mean equal sets."""
    r = rank_from_support(s)
    return validate_rank_function(r).valid and len(msupp_from_rank(r)) == len(s)
