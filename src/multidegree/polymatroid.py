"""Rank functions, discrete polymatroids, and M-convex sets.

A rank function on the ground set [p] = {1, ..., p} is stored densely:
``values[mask]`` is the rank of the subset encoded by the bitmask
``mask`` (bit j-1 set means element j is in the subset).  The dense
table caps p at 20; every example in this problem domain is far below
that.

The central operation is the enumeration of the lattice points

    { n in N^p :  sum_{j in J} n_j <= r(J) for all proper J,
                  sum_j n_j = r([p]) }

for a valid rank function r.  These are the points whose multidegree is
positive, and they form the lattice points of a base polymatroid
polytope B(r) (equivalently, an M-convex set).  Every slice of B(r) is
again a base polytope: fixing n_1 = v leaves B(r_v) on the elements
2..p, with r_v(A) = min(r(A), r(A + 1) - v), and it is nonempty exactly
for r([p]) - r([p] - 1) <= v <= r({1}) (Murota, *Discrete Convex
Analysis*, 2003).  The enumeration recurses on these slices, each table
packed into one int, and writes each distinct slice's JSON block once.

Going the other way, a finite set S of one weight has the rank function
r_S(J) = max_{x in S} x(J).  Every x in S satisfies x(J) <= r_S(J) and
|x| = r_S([p]), so S lies in B(r_S); and S is M-convex exactly when r_S
is submodular and B(r_S) has no lattice point outside S (Murota, as
above).  `is_mconvex` decides the exchange axiom directly, because it
must name the first failing triple; the tests hold its verdict to this
characterization.  Whether some y fails the exchange of x at i depends
only on the down point x - e_i, so each down point is decided once
however many points of S lie above it.  Its masks over the points are
read from one byte text per column by `translate` and `int(..., 2)`.

A `Support` is read in a few passes over all coordinates, and points
already strictly increasing are not sorted again.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import lt, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    UnsupportedSizeError,
    ValidationError,
    Value,
    _integer,
    _rational,
    _rationals,
    check_budget,
)
from .linalg import extend_basis, integer_row, is_prime
from .schemas import check

MAX_GROUND_SET = 20
# bytes of packed tables the slice memo of msupp_from_rank may keep on small ground sets
MEMO_FLOOR = 1 << 16


def check_ground_set(p: int) -> int:
    """p as an int; refuse a non-integer, and a ground set too large for a
    dense 2^p table, before one is built."""
    p = _integer(p)
    if p > MAX_GROUND_SET:
        raise UnsupportedSizeError(
            f"ground set size {p} exceeds the supported maximum {MAX_GROUND_SET}"
        )
    return p


def _mask_to_set(mask: int) -> tuple[int, ...]:
    """Bitmask -> sorted tuple of 1-indexed elements."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _set_to_mask(subset: Iterable[int], p: int) -> int:
    mask = 0
    for j in map(_integer, subset):
        if not 1 <= j <= p:
            raise ValidationError(f"element {j} outside ground set 1..{p}")
        mask |= 1 << (j - 1)
    return mask


def _read_points(p: int, rows: list[tuple]) -> tuple[list[tuple[int, ...]], set[int]]:
    """The distinct points in order, their entries made ints, and the set
    of their weights; or ValidationError naming the first fault, a
    non-integer in the order given, then a wrong length or a negative
    coordinate in sorted order, then mixed weights."""
    points = sorted({tuple(x if type(x) is int else _integer(x) for x in row) for row in rows})
    for point in points:
        if len(point) != p:
            raise ValidationError(f"point {point} has length {len(point)}, expected {p}")
        if any(x < 0 for x in point):
            raise ValidationError(f"negative coordinate in point {point}")
    weights = set(map(sum, points))
    if len(weights) > 1:
        raise ValidationError(f"points have mixed coordinate sums {sorted(weights)}")
    return points, weights


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All n in N^parts with |n| = total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class Support(Value):
    """Finite set of natural-number vectors of constant coordinate sum,
    held in lexicographic order.

    A support from `msupp_from_rank` keeps the slice DAG of its base
    polytope in place of its points: its length and weight come from the
    DAG, `points_json` writes each DAG node's JSON block once, and the
    point tuples are built on the first read of `points` and then kept.
    Equality, hashing, membership and `repr` go by the points, so such a
    support equals a plain one with the same points.  `weight` is the
    common coordinate sum, or None for the empty support.
    """

    __slots__ = ("p", "weight", "_count", "_points", "_root")

    def __init__(self, p: int, points: Iterable[Iterable[int]]):
        p = _integer(p)
        if p < 0:
            raise ValidationError(f"ground set size {p} is negative")
        rows = list(map(tuple, points))
        # plain ints >= 0, decided in two passes over all coordinates
        naturals = (
            set(map(type, chain.from_iterable(rows))) <= {int}
            and min(chain.from_iterable(rows), default=0) >= 0
        )
        self._read(p, rows, naturals)

    def _read(self, p: int, rows: list[tuple], naturals: bool) -> None:
        """Fill the fields from rows, all of whose coordinates are ints
        >= 0 if `naturals`.  Rows of length p and of one weight are sorted
        and deduplicated unless strictly increasing; otherwise
        `_read_points` converts them or names the first fault."""
        if naturals and set(map(len, rows)) <= {p} and len(weights := set(map(sum, rows))) <= 1:
            if not all(map(lt, rows, islice(rows, 1, None))):
                rows = sorted(set(rows))
        else:
            rows, weights = _read_points(p, rows)
        self._fill(p, tuple(rows), None, weights.pop() if weights else None)

    def _fill(self, p: int, points: tuple | None, root: tuple | None, weight: int | None) -> None:
        """Set the fields, once: the points, or else the root (count,
        children) of a slice DAG; weight is None for the empty support."""
        count = len(points) if root is None else root[0]
        self._set(p=p, weight=weight, _count=count, _points=points, _root=root)

    @classmethod
    def _from_sorted(cls, p: int, points: list[tuple[int, ...]]) -> "Support":
        """A support from points that are already sorted, distinct,
        nonnegative, of length p and of one weight; nothing is checked."""
        support = object.__new__(cls)
        support._fill(p, tuple(points), None, sum(points[0]) if points else None)
        return support

    @classmethod
    def _from_naturals(cls, p: int, rows: list[tuple]) -> "Support":
        """A support on p >= 0 elements from rows of ints >= 0, read by
        `_read`: lengths and weight are checked, increasing rows kept."""
        support = object.__new__(cls)
        support._read(p, rows, True)
        return support

    @classmethod
    def _from_dag(cls, p: int, weight: int, root: tuple) -> "Support":
        """A support from the root of a `_slice_dag` on p >= 2 elements,
        whose points have this weight; nothing is checked."""
        support = object.__new__(cls)
        support._fill(p, None, root, weight)
        return support

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """The points in lexicographic order."""
        if self._points is None:
            rows = _dag_rows(
                self._root[1],
                lambda firsts, seconds: list(zip(firsts, seconds)),
                lambda v, rows: map((v,).__add__, rows),
                lambda parts: list(chain.from_iterable(parts)),
            )
            self._set(_points=tuple(rows))
        return self._points

    def points_json(self) -> str:
        """The points as compact JSON text, the bytes that
        json.dumps(list of points, separators=(",", ":")) writes."""
        if self._root is None:
            return json.dumps(self._points, separators=(",", ":"))
        block = _dag_rows(
            self._root[1],
            lambda firsts, seconds: "],[".join([f"{v},{w}" for v, w in zip(firsts, seconds)]),
            lambda v, block: f"{v}," + block.replace("],[", f"],[{v},"),
            "],[".join,
        )
        return "[[" + block + "]]"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self._count == other._count and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.p, self.points))

    def __repr__(self) -> str:
        return f"Support(p={self.p!r}, points={self.points!r})"

    def __contains__(self, point: Iterable[int]) -> bool:
        key = tuple(point)
        points = self.points
        i = bisect_left(points, key)
        return i < len(points) and points[i] == key

    def __len__(self) -> int:
        return self._count

    def complement(self, bound: int) -> "Support":
        """Map every point n to bound*(1,...,1) - n.

        The map reverses lexicographic order and keeps the points
        distinct and of one weight, so the reversed list needs no sort;
        only the bound is checked, against every coordinate.
        """
        bound = _integer(bound)
        if max(chain.from_iterable(self.points), default=bound) > bound:
            raise ValidationError(f"complement bound {bound} is below a coordinate")
        return Support._from_sorted(
            self.p, [tuple([bound - x for x in pt]) for pt in reversed(self.points)]
        )

    def to_json_dict(self) -> dict:
        return {"p": self.p, "points": [list(pt) for pt in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Support":
        """A support from a document of the `support` schema.

        The schema vouches that p is an int >= 1 and that every coordinate
        is an int >= 0 (never a bool), so only the lengths of the points
        and their one weight are checked here.  A fault gets the message
        that `Support(p, points)` gives it.
        """
        check("support", data)
        return cls._from_naturals(data["p"], list(map(tuple, data["points"])))


class RankFunction(Value):
    """Integer set function on all subsets of [p], indexed by bitmask.

    Construction only checks the table shape; `validate_rank_function`
    tests the normalization, monotonicity, and submodularity axioms, which
    keeps deliberately corrupted tables representable for diagnosis.
    """

    __slots__ = ("p", "values")

    def __init__(self, p: int, values: Sequence[int]):
        p = check_ground_set(p)
        if p < 1:
            raise ValidationError("ground set must have at least one element")
        if len(values) != 1 << p:
            raise ValidationError(
                f"rank table has {len(values)} entries, expected {1 << p}"
            )
        values = tuple(values)
        if not set(map(type, values)) <= {int}:  # convert or name the first non-int
            values = tuple(v if type(v) is int else _integer(v) for v in values)
        self._set(p=p, values=values)

    def of_mask(self, mask: int) -> int:
        return self.values[mask]

    def of_set(self, subset: Iterable[int]) -> int:
        return self.values[_set_to_mask(subset, self.p)]

    @property
    def full_mask(self) -> int:
        return (1 << self.p) - 1

    def to_json_dict(self) -> dict:
        return {"p": self.p, "values": list(self.values)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RankFunction":
        """A rank function from a document of the `rank_function` schema."""
        check("rank_function", data)
        return cls(data["p"], data["values"])


class RankViolation(Value):
    """One failed axiom with the witnessing subset pair."""

    __slots__ = ("axiom", "subsets", "detail")

    def __init__(self, axiom: str, subsets: tuple[tuple[int, ...], ...], detail: str):
        # axiom is "normalization", "monotonicity" or "submodularity"
        self._set(axiom=axiom, subsets=subsets, detail=detail)

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "subsets": [list(s) for s in self.subsets],
            "detail": self.detail,
        }


class RankReport(Value):
    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[RankViolation, ...]):
        self._set(valid=valid, violations=violations)

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [v.to_json_dict() for v in self.violations],
        }


class InvalidRankError(ValidationError):
    """A rank table fails an axiom; `report` lists every violation."""

    def __init__(self, report: RankReport):
        first = report.violations[0]
        super().__init__(f"invalid rank function: {first.axiom} at {first.subsets}")
        self.report = report


def _packed(values: Sequence[int], low: int, k: int) -> int:
    """The entries minus `low`, all below 2^(8k), as one int of k-byte
    little-endian fields, entry T in field T."""
    if k == 1:
        data = bytes(map(sub, values, repeat(low)) if low else values)
    else:  # one bytes object per entry, linear in the bytes for any width
        entries = map(sub, values, repeat(low))
        data = b"".join(map(int.to_bytes, entries, repeat(k), repeat("little")))
    return int.from_bytes(data, "little")


def _tiled(block: int, width: int, size: int) -> int:
    """`block`, `width` bits wide, repeated to fill `size` bits; size is
    width times a power of two.  The doublings cost about two passes
    over the result, less than int.from_bytes of a repeated pattern."""
    while width < size:
        block |= block << width
        width <<= 1
    return block


def validate_rank_function(r: RankFunction) -> RankReport:
    """Check normalization, monotonicity, and submodularity.

    Submodularity is checked through the local characterization
    r(T+i) + r(T+j) >= r(T+i+j) + r(T), which is equivalent to the
    subset-pair form; a reported witness pair (T+i, T+j) genuinely
    violates the pair inequality.

    The whole table is compared at once, packed into one integer (the
    guard-bit compare of Lamport, CACM 18(8), 1975).  Field T of W holds
    u(T) = r(T) - min r in k bytes, little-endian, where k is the least
    width with 2 * span < g = 2^(8k-1), span = max r - min r; so every
    field has its top bit g (the guard bit) and the bit g/2 below it
    clear.  W >> 8k * 2^i moves field T + i to place T.  Adding a
    constant c to every field is one addition of c * (1 + 2^8k + ...).
    - M_i = W + (g/2 - 1) - (W >> 8k * 2^i) holds g/2 - 1 + m(T) in
      field T, where m(T) = u(T) - u(T + i) lies in [-span, span]:
      every field stays in [0, g), so no borrow crosses a field.
      Monotonicity fails at T exactly when m(T) >= 1, that is when bit
      g/2 of field T is set.
    - Submodularity at (i, j) fails at T exactly when m(T) - m(T + j)
      >= 1.  D = (M_i + (g - 1)) - (M_i >> 8k * 2^j) holds g - 1 +
      m(T) - m(T + j) in field T, in [g - 1 - 2 span, g - 1 + 2 span],
      inside [0, 2g): again no carry or borrow crosses a field, and the
      failures are exactly the guard bits set in D.
    Fields whose index T holds i (or j) compare entries of unrelated
    subsets; a mask of the places T without i (and j) drops them.  So
    each pair costs a shift, a subtraction and a mask of about 2^p * k
    bytes, and a constant number of such integers is alive at a time.
    A field wider than 8 bytes takes a span of 2^62 or more, which no
    rank-table builder produces; its packed bytes are charged to
    `check_budget` before the table is packed.  This bounds the memory,
    not the time: each of the p(p+1)/2 passes is k * 2^p bytes long.

    Only a failing element or pair is mapped back to subsets: its set
    bits, moved to the guard bit, are found as the top bytes 0x80 of the
    masked integer's bytes, and their places are the T that fail.  The
    checks visit elements first, but the report lists every violation
    mask-major, as an ordered walk of the subsets would: monotonicity by
    (T, j), then submodularity by (T, i, j).  These keys are distinct,
    so sorting them gives that order exactly.  The failures found so far
    are charged to `check_budget` after each pass that finds any, before
    a single violation is built, so a table that fails almost everywhere
    stops at the budget instead of printing millions of violations.
    """
    p, values = r.p, r.values
    n, low = 1 << p, min(values)
    k = (2 * (max(values) - low)).bit_length() // 8 + 1  # 2 * span < 2^(8k - 1)
    if k > 8:
        check_budget(k * n, "bytes of the packed rank table")
    bits, guard, size = 8 * k, 1 << 8 * k - 1, 8 * k * n

    def failing(x: int) -> Iterator[int]:
        """The places T whose guard bit is set in x, which holds guard bits
        only: the top bytes of their fields are 0x80, all others 0."""
        tops = x.to_bytes(k * n, "little")[k - 1 :: k]
        t = tops.find(0x80)
        while t >= 0:
            yield t
            t = tops.find(0x80, t + 1)

    w = _packed(values, low, k)
    wq = w + _tiled(guard // 2 - 1, bits, size)  # W + (g/2 - 1) in every field
    wqh = wq + _tiled(guard - 1, bits, size)  # and g - 1 more
    monotone: list[tuple[int, int]] = []  # (T, j): r(T) > r(T + j)
    submodular: list[tuple[int, int, int]] = []  # (T, i, j) failing at T
    for i in range(p):
        w_i = w >> (bits << i)
        m = wq - w_i
        # the guard bits of the places T without i (and below, without j)
        without_i = _tiled(_tiled(guard, bits, bits << i), bits << i + 1, size)
        fails = m & (without_i >> 1)  # bit g/2 of the places without i
        if fails:
            monotone += [(t, i) for t in failing(fails << 1)]
            check_budget(len(monotone) + len(submodular), "rank violations")
        m_high = wqh - w_i  # m + (g - 1) in every field, with no carry across
        for j in range(i + 1, p):
            without_ij = _tiled(without_i & ((1 << (bits << j)) - 1), bits << j + 1, size)
            fails = (m_high - (m >> (bits << j))) & without_ij
            if fails:
                submodular += [(t, i, j) for t in failing(fails)]
                check_budget(len(monotone) + len(submodular), "rank violations")
    violations: list[RankViolation] = []
    try:
        if values[0] != 0:
            violations.append(
                RankViolation(
                    "normalization", ((),), f"rank of the empty set is {values[0]}, not 0"
                )
            )
        for t, j in sorted(monotone):
            larger = t | 1 << j
            violations.append(
                RankViolation(
                    "monotonicity",
                    (_mask_to_set(t), _mask_to_set(larger)),
                    f"rank drops from {values[t]} to {values[larger]}",
                )
            )
        for t, i, j in sorted(submodular):
            a, b = t | 1 << i, t | 1 << j
            lhs = values[a] + values[b]
            rhs = values[a | b] + values[t]
            violations.append(
                RankViolation(
                    "submodularity",
                    (_mask_to_set(a), _mask_to_set(b)),
                    f"r(T1) + r(T2) = {lhs} < {rhs} = r(T1 u T2) + r(T1 n T2)",
                )
            )
    except ValueError as exc:  # a witness sum of more digits than str() writes
        raise ValidationError(f"invalid rank function, too long to report: {exc}") from exc
    return RankReport(valid=not violations, violations=tuple(violations))


def _slice_dag(r: RankFunction) -> tuple[int, list | tuple[int, int, int]]:
    """The root of the slices of B(r), for a valid r on p >= 2 elements,
    as a DAG with one node (count, children) per distinct slice table
    that the memo below holds.

    count is the slice's number of lattice points.  The children are the
    pairs (v, node of r_v) for every feasible first coordinate v, or,
    with two elements left, (low, high, weight) for the points (v,
    weight - v), low <= v <= high.  Every slice is nonempty, so a range
    of more values than DEFAULT_ENUMERATION_BUDGET, or a count past it,
    raises BudgetExceededError before any point is built.

    A table on s elements is one int of 2^s fields of k bytes, with
    r([p]) < g = 2^(8k-1): every slice entry lies in [0, r([p])], so each
    field's top bit g (its guard bit) is clear.  The field index is the
    mask read backwards (p // 2 delta swaps of the packed input), so the
    low half X holds r(A) and the high half Y holds r(A + 1), A without
    the first element.  Y - v * ones never borrows (r(A + 1) >= r({1}) >=
    v), and Y - v * ones + g * ones - X holds g + (Y - v) - X in [1, 2g)
    in each field: its guard bits, spread to whole fields by a product
    with 2^(8k) - 1, pick the fields where X is the minimum (Lamport,
    CACM 18(8), 1975).  Packing needs no charge: validation packed the
    same table in fields at least k bytes wide, charged past 8 bytes.

    The tables key a dict that dies with the call; the nodes hold their
    children.  The dict keeps at most max(k * 2^p, MEMO_FLOOR) bytes of
    tables, so it outgrows the packed input by at most MEMO_FLOOR bytes
    however few tables repeat (r(A) = c when A meets {1, 2} and 0
    otherwise has c + 1 distinct first slices).  A table that does not
    fit is worked out again each time it is reached.
    """
    p = r.p
    k = r.values[-1].bit_length() // 8 + 1  # r([p]) < 2^(8k - 1)
    bits, field = 8 * k, (1 << 8 * k) - 1
    ones = [_tiled(1, bits, bits << s) for s in range(p)]  # 1 in each of 2^s fields
    guards = [g << bits - 1 for g in ones]
    table = _packed(r.values, 0, k)
    for a in range(p // 2):  # swap index bits a and b
        b = p - 1 - a
        # the fields whose index has bit a set and bit b clear
        swap = _tiled(ones[a] * field << (bits << a), bits << a + 1, bits << b)
        swap = _tiled(swap, bits << b + 1, bits << p)
        shift = (bits << b) - (bits << a)
        t = (table >> shift ^ table) & swap
        table ^= t ^ t << shift
    memo: dict[tuple[int, int], tuple[int, list | tuple[int, int, int]]] = {}
    room = max(k << p, MEMO_FLOOR)

    def node(table: int, s: int) -> tuple[int, list | tuple[int, int, int]]:
        nonlocal room
        found = memo.get((s, table))
        if found is not None:
            return found
        half = bits << s - 1
        without, with_ = table & (1 << half) - 1, table >> half
        weight = with_ >> half - bits
        low, high = weight - (without >> half - bits), with_ & field
        check_budget(high - low + 1, "support points")
        if s == 2:
            found = (high - low + 1, (low, high, weight))
        else:
            step, guard = ones[s - 1], guards[s - 1]
            with_ -= low * step  # Y - v
            diff = with_ + (guard - without)  # g + (Y - v) - X in every field
            count, children = 0, []
            for v in range(low, high + 1):
                spread = (diff & guard) >> bits - 1
                child = node(with_ ^ (without ^ with_) & spread * field, s - 1)
                count += child[0]
                check_budget(count, "support points")
                children.append((v, child))
                with_ -= step
                diff -= step
            found = (count, children)
        if k << s <= room:
            memo[s, table] = found
            room -= k << s
        return found

    return node(table, p)


def _dag_rows(root: list | tuple[int, int, int], leaf: Callable, prefix: Callable, join: Callable):
    """The rows of the points below the `_slice_dag` node whose children
    are `root`, in lexicographic order: leaf(firsts, seconds), the ranges
    of v and weight - v, low <= v <= high, for a node with two elements
    left, and join of prefix(v, rows of the child) over the children (v,
    child) of any other node.

    Each distinct node's rows are built once, and prefixed once by each
    parent.  They wait in a memo, local to the call, only while a parent
    that has not yet read them remains.
    """
    uses: dict[int, int] = {id(root): 1}  # parents yet to read each node's rows

    def count(children) -> None:
        for _, (_, grandchildren) in children:
            key = id(grandchildren)
            if key in uses:
                uses[key] += 1
            else:
                uses[key] = 1
                if type(grandchildren) is list:
                    count(grandchildren)

    if type(root) is list:
        count(root)
    memo: dict[int, object] = {}

    def rows(children):
        key = id(children)
        found = memo.pop(key, None)
        if found is None:
            if type(children) is tuple:
                low, high, weight = children
                found = leaf(range(low, high + 1), range(weight - low, weight - high - 1, -1))
            else:
                found = join([prefix(v, rows(grandchildren)) for v, (_, grandchildren) in children])
        uses[key] -= 1
        if uses[key]:
            memo[key] = found
        return found

    return rows(root)


def msupp_from_rank(r: RankFunction) -> Support:
    """All n in N^p with n(J) <= r(J) for proper subsets J and |n| = r([p]).

    Fixing n_1 = v slices B(r) down to the base polytope of the rank
    function r_v(A) = min(r(A), r(A + 1) - v) on the elements 2..p.  The
    slice is nonempty exactly for r([p]) - r([p] - 1) <= v <= r({1}), so
    the recursion on slices meets no dead end.  Many prefixes lead to the
    same slice table (m0n at p = 10: 4,862 prefixes of length 8, 9
    tables), so `_slice_dag` computes each distinct table's children and
    point count once, each child in a few operations on the packed table,
    in a memo of at most MEMO_FLOOR bytes past the packed input, and
    refuses a support past DEFAULT_ENUMERATION_BUDGET points by its
    count.  The support keeps that DAG: its length is the root's count,
    and its points, in lexicographic order, are built from the DAG only
    when they are first read (`Support.points`) or written, one JSON
    block per node (`Support.points_json`).  An invalid table raises
    InvalidRankError, which carries the full validation report.
    """
    report = validate_rank_function(r)
    if not report.valid:
        raise InvalidRankError(report)
    if r.p == 1:
        return Support._from_sorted(1, [(r.values[1],)])
    # lexicographic, distinct, nonnegative (r is monotone) and of weight r([p])
    return Support._from_dag(r.p, r.values[-1], _slice_dag(r))


class MConvexReport(Value):
    __slots__ = ("mconvex", "witness")

    def __init__(self, mconvex: bool, witness: tuple[tuple, tuple, int] | None):
        # witness = (x, y, i) such that x_i > y_i but no valid exchange exists
        self._set(mconvex=mconvex, witness=witness)

    def to_json_dict(self) -> dict:
        if self.witness is None:
            return {"mconvex": self.mconvex, "witness": None}
        x, y, i = self.witness
        return {"mconvex": self.mconvex, "witness": {"x": list(x), "y": list(y), "i": i}}


def _rank_masks(ranks: list[int], m: int) -> list[int]:
    """masks[r] for r < m: the points whose rank is at most r, as bits.
    `ranks` holds each point's rank in 0..m-1, the point of bit 0 last,
    so the ranks as bytes are a text that `int(..., 2)` reads once each
    rank is made "1" or "0".  Up to 16 ranks, each mask is one
    `translate` and one `int`: m passes over the N points, in C.  More
    ranks are split into digits base 16, r = 16h + c.  The masks of the
    high digits h and of the low digits c come the same way, and mask r
    is the blocks below h together with the points of block h whose low
    digit is at most c: two big-int operations per rank."""
    if m <= 16:
        text = bytes(ranks)
        return [int(text.translate(b"1" * (r + 1) + b"0" * (255 - r)), 2) for r in range(m)]
    blocks = _rank_masks(list(map((4).__rrshift__, ranks)), (m + 15) >> 4)
    lows = _rank_masks(list(map((15).__and__, ranks)), 16)
    below = [0] + blocks
    return [below[r >> 4] | blocks[r >> 4] & lows[r & 15] for r in range(m)]


def is_mconvex(s: Support) -> MConvexReport:
    """Test the exchange axiom: for x, y in s and x_i > y_i there is j
    with x_j < y_j and x - e_i + e_j in s.

    The witness is the first failing (x, y, i): x and then y in the
    support's order, then i increasing.  For a fixed x and i, the points
    y failing at i are those with y_i < x_i and y_j <= x_j for every j
    whose move x - e_i + e_j stays in s.  That set depends only on the
    down point u = x - e_i:

        A(u) = {y in s : y_j <= u_j for every j with u + e_j in s}.

    For j = i, u + e_i = x is in s and y_i <= u_i says y_i < x_i.  For
    j != i, u_j = x_j and u + e_j = x - e_i + e_j.

    With one bitmask over the points per coordinate value, A(u) is at
    most p ANDs, so a down point costs O(p) big-integer operations
    instead of a pass over every y.  Many x share a down point, so the
    keys of the down points found clean (A(u) empty) are kept in a set,
    and a pair (x, i) whose u is there is skipped.  A down point that
    fails ends the search at its x, so no other kind is kept, and no
    mask is kept per down point.  The least point index over all i, and
    the least i at that index, give the same witness as the pass over
    pairs.  By Murota's characterization (module docstring) the verdict
    equals "r_S is submodular and B(r_S) holds |s| lattice points".

    The masks of column j come from the rank of each point's value among
    the column's m distinct values (`_rank_masks`): the points y with
    y_j <= v are one `translate` and one `int(..., 2)` of that text, and
    the points with y_j < v are the entry at the value before v.  A
    column of up to 16 values costs m passes over N bytes in C, a wider
    one at most 16 per base-16 digit of m and two big-int operations
    per value; one OR per point into masks of up to N bits cost O(N^2)
    digit operations.  A mask is one bit per point, and `int(..., 2)`
    reads a text of any length, as the limit on int() digits spares
    base 2.
    """
    if not s.points:
        raise ValidationError("M-convexity is undefined for an empty support")
    points, p = s.points, s.p
    # x -> its digits in base weight + 1, so a move -e_i + e_j is one addition
    powers = [(s.weight + 1) ** j for j in range(p)]
    keys = [sum(map(mul, x, powers)) for x in points]
    members = set(keys)
    # below[j][v] / upto[j][v]: the points y with y_j < v / y_j <= v, bit k for
    # points[k], for the values v that occur in coordinate j
    below: list[dict[int, int]] = []
    upto: list[dict[int, int]] = []
    for column in zip(*points):
        values = sorted(set(column))
        rank = dict(zip(values, range(len(values))))
        masks = _rank_masks(list(map(rank.__getitem__, reversed(column))), len(values))
        below.append(dict(zip(values, [0] + masks)))
        upto.append(dict(zip(values, masks)))
    clean: set[int] = set()  # keys of the down points u with A(u) empty
    for x, key in zip(points, keys):
        first = None  # (index of y, i) of the earliest failure at this x
        for i in range(p):
            if not x[i]:  # no y has y_i < 0
                continue
            down = key - powers[i]
            if down in clean or not (failing := below[i][x[i]]):
                continue
            for j in range(p):
                if j != i and down + powers[j] in members:
                    failing &= upto[j][x[j]]
                    if not failing:
                        break
            if failing:
                k = (failing & -failing).bit_length() - 1
                if first is None or k < first[0]:
                    first = (k, i)
            else:
                clean.add(down)
        if first is not None:
            return MConvexReport(False, (x, points[first[0]], first[1] + 1))
    return MConvexReport(True, None)


def rank_from_support(s: Support) -> RankFunction:
    """r_S(J) = max over points x of x(J), the least rank function whose
    base polytope B(r_S) contains every point of s.

    Each point's subset sums come from one table, doubled once per
    coordinate (2^p additions), and r_S is their elementwise maximum.
    """
    if not s.points:
        raise ValidationError("cannot extract a rank function from an empty support")
    check_ground_set(s.p)
    values: list[int] = [0] * (1 << s.p)
    for x in s.points:
        sums = [0]
        for v in x:
            sums += [t + v for t in sums]
        values = list(map(max, values, sums))
    return RankFunction(s.p, values)


class SubspaceFamily(Value):
    """Spanning sets for subspaces V_1, ..., V_p of k^ambient_dim.

    The field k is the rationals ("Q") or a prime field ("Fp:<prime>"),
    whose prime is kept.  Empty generator lists give the zero subspace.
    The generators are read in a few passes over all entries, each
    distinct entry made a Fraction once; only an input with a fault is
    walked entry by entry, to name it.
    """

    __slots__ = ("ambient_dim", "field", "generators", "_prime")

    def __init__(
        self,
        ambient_dim: int,
        generators: Sequence[Sequence[Sequence[Fraction | int | str]]],
        field: str = "Q",
    ):
        ambient_dim = _integer(ambient_dim)
        if ambient_dim < 0:
            raise ValidationError("ambient dimension must be nonnegative")
        prime = _parse_field(field)
        rows = [list(map(tuple, gens)) for gens in generators]
        vectors = list(chain.from_iterable(rows))
        fractions = _rationals(list(chain.from_iterable(vectors)))
        clean = (
            fractions is not None
            and set(map(len, vectors)) <= {ambient_dim}
            and (prime is None or all(x.denominator == 1 for x in fractions.values()))
        )
        if clean:
            read = fractions.__getitem__
            parsed = [tuple(tuple(map(read, vec)) for vec in gens) for gens in rows]
        else:  # convert or name the first fault, vector by vector
            parsed = []
            for idx, gens in enumerate(rows):
                vecs = []
                where = f"subspace {idx + 1}"
                for vec in gens:
                    entries = tuple(_rational(x, where) for x in vec)
                    if len(entries) != ambient_dim:
                        raise ValidationError(
                            f"subspace {idx + 1} has a vector of length "
                            f"{len(entries)}, expected {ambient_dim}"
                        )
                    if prime is not None and any(e.denominator != 1 for e in entries):
                        raise ValidationError(
                            f"field {field} requires integer vector entries"
                        )
                    vecs.append(entries)
                parsed.append(tuple(vecs))
        self._set(ambient_dim=ambient_dim, field=field, generators=tuple(parsed), _prime=prime)

    @property
    def p(self) -> int:
        return len(self.generators)

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "field": self.field,
            "subspaces": [
                [[str(x) for x in vec] for vec in gens] for gens in self.generators
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubspaceFamily":
        """A family from a document of the `subspace_family` schema."""
        check("subspace_family", data)
        return cls(data["ambient"], data["subspaces"], field=data.get("field", "Q"))


def _parse_field(field: str) -> int | None:
    """Return the prime for 'Fp:<prime>', or None for 'Q'."""
    if field == "Q":
        return None
    if field.startswith("Fp:"):
        try:
            prime = int(field[3:])
        except ValueError as exc:
            raise ValidationError(f"malformed field tag {field!r}") from exc
        if not is_prime(prime):
            raise ValidationError(f"{prime} is not prime")
        return prime
    raise ValidationError(f"unknown field tag {field!r}; use 'Q' or 'Fp:<prime>'")


def linear_rank(fam: SubspaceFamily) -> RankFunction:
    """Rank function r(J) = dim of the sum of the subspaces V_j, j in J.

    Ranks come from exact elimination in integers, over Q or over the
    tagged prime field, whose prime the family kept when it read its
    tag.  Each generator is read once, by `integer_row`, before the walk
    of `_rank_table`.
    """
    p = fam.p
    check_ground_set(p)
    if p < 1:
        raise ValidationError("subspace family must be nonempty")
    rows = [[integer_row(vec, fam._prime) for vec in gens] for gens in fam.generators]
    return RankFunction(p, _rank_table(p, fam.ambient_dim, rows, fam._prime))


def _rank_table(p: int, d: int, rows: Sequence[Sequence[Sequence[int]]], prime: int | None) -> list[int]:
    """values[J] = the rank of the rows of the members j in J, for each
    mask J, over Q or F_prime; rows[j] are integer vectors of length d as
    `integer_row` makes them (over Q any integer vector will do).

    The subsets are visited depth first, adding elements in increasing
    order, and each subset's echelon basis is its parent's basis
    extended by the rows of the one added element: at most 2^p - 1
    extensions, no elimination from scratch, and at most p + 1 bases
    alive at a time.  A subset whose basis spans k^d is not descended
    from: every superset the walk would reach from it, the subset plus
    elements after its last, has full rank, and those entries are one
    extended slice of the table.
    """
    values = [0] * (1 << p)

    def visit(mask: int, basis: list, start: int) -> None:
        for j in range(start, p):
            child = mask | 1 << j
            extended = extend_basis(basis, rows[j], prime)
            if len(extended) == d:
                # child < 2^(j+1): these are child plus each set of elements after j
                values[child :: 1 << j + 1] = repeat(d, 1 << p - j - 1)
            else:
                values[child] = len(extended)
                visit(child, extended, j + 1)

    visit(0, [], 0)
    return values
