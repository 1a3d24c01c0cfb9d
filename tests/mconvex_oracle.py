"""Oracles for `is_mconvex` and `rank_from_support`.

`exchange_report` is the pass over ordered pairs that decided the
exchange axiom before the bitset search: for x, then y, in the support's
order and i increasing, it returns the first (x, y, i) with x_i > y_i
and no j with x_j < y_j and x - e_i + e_j in the support.
`murota_mconvex` decides the same property by Murota's characterization
(*Discrete Convex Analysis*, 2003): S is M-convex iff r_S is submodular
and B(r_S) has exactly |S| lattice points.  `rank_from_support_oracle`
sums every subset of every point directly.
"""

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
