"""Oracle for `msupp_from_rank`: the slice recursion without a memo.

Fixing n_1 = v slices B(r) down to the base polytope of r_v(A) =
min(r(A), r(A + 1) - v) on the remaining elements, nonempty exactly for
r([p]) - r([p] - 1) <= v <= r({1}).  This walks every prefix and builds
every slice table afresh, as the library did before it kept one node per
distinct table, and lists the points in lexicographic order.  The table
must be valid; nothing is checked and no budget applies.
"""

from multidegree import RankFunction


def slice_points(r: RankFunction) -> list[tuple[int, ...]]:
    if r.p == 1:
        return [(r.values[1],)]
    points: list[tuple[int, ...]] = []

    def extend(prefix, values):
        low, high = values[-1] - values[-2], values[1]
        if len(values) == 4:
            points.extend(prefix + (v, values[3] - v) for v in range(low, high + 1))
            return
        # even masks leave out the current first element, odd ones hold it
        without, with_ = values[0::2], values[1::2]
        for v in range(low, high + 1):
            extend(prefix + (v,), [min(a, b - v) for a, b in zip(without, with_)])

    extend((), r.values)
    return points
