"""Oracles for the `Support` and `RankFunction` readers: the constructors
that convert and check one entry at a time.

The library reads a clean input in a few passes over all entries at once
and falls back to its per-entry loop only to name a fault.  These are the
per-entry readers on their own.  They raise the same ValidationError at
the same first fault, and otherwise build the same object without calling
the library's constructors.
"""

from multidegree import RankFunction, Support, ValidationError
from multidegree.errors import _integer
from multidegree.polymatroid import check_ground_set


def support_oracle(p, points):
    """Convert every coordinate in the order given, then check lengths and
    signs point by point in sorted order, then the weights."""
    p = _integer(p)
    if p < 0:
        raise ValidationError(f"ground set size {p} is negative")
    pts = sorted({tuple(x if type(x) is int else _integer(x) for x in pt) for pt in points})
    for pt in pts:
        if len(pt) != p:
            raise ValidationError(f"point {pt} has length {len(pt)}, expected {p}")
        if any(x < 0 for x in pt):
            raise ValidationError(f"negative coordinate in point {pt}")
    weights = {sum(pt) for pt in pts}
    if len(weights) > 1:
        raise ValidationError(f"points have mixed coordinate sums {sorted(weights)}")
    return Support._from_sorted(p, pts)


def rank_function_oracle(p, values):
    """Check the ground set and the table length, then convert every entry
    in order."""
    p = check_ground_set(p)
    if p < 1:
        raise ValidationError("ground set must have at least one element")
    if len(values) != 1 << p:
        raise ValidationError(f"rank table has {len(values)} entries, expected {1 << p}")
    r = object.__new__(RankFunction)
    object.__setattr__(r, "p", p)
    object.__setattr__(r, "values", tuple(v if type(v) is int else _integer(v) for v in values))
    return r
