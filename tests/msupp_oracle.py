"""Oracles for `msupp_from_rank`: the slice recursion without a memo,
and the slice DAG on tuple tables.

Fixing n_1 = v slices B(r) down to the base polytope of r_v(A) =
min(r(A), r(A + 1) - v) on the remaining elements, nonempty exactly for
r([p]) - r([p] - 1) <= v <= r({1}).  `slice_points` walks every prefix
and builds every slice table afresh, as the library did before it kept
one node per distinct table, and lists the points in lexicographic
order.  `slice_dag` keeps one node per distinct table, as a tuple.  The
table must be valid; nothing is checked and no budget applies.
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


def slice_dag(r: RankFunction) -> tuple:
    """The slice DAG of B(r), for a valid r on p >= 2 elements, built on
    tuple tables: one node (count, children) per distinct slice table,
    whose children are the pairs (v, node of r_v) for every feasible v,
    or, with two elements left, the triple (low, high, weight) for the
    points (v, weight - v), low <= v <= high.  The library built its DAG
    this way before it packed each table into one int; the memo here is
    unbounded and no budget applies."""
    memo: dict[tuple[int, ...], tuple] = {}

    def node(values: tuple[int, ...]) -> tuple:
        found = memo.get(values)
        if found is None:
            low, high = values[-1] - values[-2], values[1]
            if len(values) == 4:
                found = (high - low + 1, (low, high, values[3]))
            else:
                without, with_ = values[0::2], values[1::2]
                children = [
                    (v, node(tuple([min(a, b - v) for a, b in zip(without, with_)])))
                    for v in range(low, high + 1)
                ]
                found = (sum(child[0] for _, child in children), children)
            memo[values] = found
        return found

    return node(r.values)
