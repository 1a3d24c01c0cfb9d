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
Analysis*, 2003).  The enumeration recurses on these slices.

Going the other way, a finite set S of one weight has the rank function
r_S(J) = max_{x in S} x(J).  Every x in S satisfies x(J) <= r_S(J) and
|x| = r_S([p]), so S lies in B(r_S); and S is M-convex exactly when r_S
is submodular and B(r_S) has no lattice point outside S (Murota, as
above).  `is_mconvex` decides the exchange axiom directly, because it
must name the first failing triple; the tests hold its verdict to this
characterization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import gt, lt, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    UnsupportedSizeError,
    ValidationError,
)
from .linalg import extend_basis, is_prime
from .schemas import check

MAX_GROUND_SET = 20


def check_ground_set(p: int) -> None:
    """Refuse a ground set too large for a dense 2^p table, before one is built."""
    if p > MAX_GROUND_SET:
        raise UnsupportedSizeError(
            f"ground set size {p} exceeds the supported maximum {MAX_GROUND_SET}"
        )


def _mask_to_set(mask: int) -> tuple[int, ...]:
    """Bitmask -> sorted tuple of 1-indexed elements."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _set_to_mask(subset: Iterable[int], p: int) -> int:
    mask = 0
    for j in subset:
        if not 1 <= j <= p:
            raise ValidationError(f"element {j} outside ground set 1..{p}")
        mask |= 1 << (j - 1)
    return mask


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All n in N^parts with |n| = total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class Support:
    """Finite set of natural-number vectors of constant coordinate sum."""

    p: int
    points: tuple[tuple[int, ...], ...]

    def __init__(self, p: int, points: Iterable[Iterable[int]]):
        pts = sorted({tuple(int(x) for x in pt) for pt in points})
        for pt in pts:
            if len(pt) != p:
                raise ValidationError(f"point {pt} has length {len(pt)}, expected {p}")
            if any(x < 0 for x in pt):
                raise ValidationError(f"negative coordinate in point {pt}")
        weights = {sum(pt) for pt in pts}
        if len(weights) > 1:
            raise ValidationError(f"points have mixed coordinate sums {sorted(weights)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def _from_sorted(cls, p: int, points: list[tuple[int, ...]]) -> "Support":
        """A support from points that are already sorted, distinct,
        nonnegative, of length p and of one weight; nothing is checked."""
        support = object.__new__(cls)
        object.__setattr__(support, "p", p)
        object.__setattr__(support, "points", tuple(points))
        return support

    @property
    def weight(self) -> int | None:
        """Common coordinate sum, or None for the empty support."""
        return sum(self.points[0]) if self.points else None

    def __contains__(self, point: Iterable[int]) -> bool:
        key = tuple(point)
        i = bisect_left(self.points, key)
        return i < len(self.points) and self.points[i] == key

    def __len__(self) -> int:
        return len(self.points)

    def complement(self, bound: int) -> "Support":
        """Map every point n to bound*(1,...,1) - n."""
        return Support(self.p, [tuple(bound - x for x in pt) for pt in self.points])

    def to_json_dict(self) -> dict:
        return {"p": self.p, "points": [list(pt) for pt in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Support":
        """A support from a document of the `support` schema."""
        check("support", data)
        return cls(data["p"], data["points"])


@dataclass(frozen=True)
class RankFunction:
    """Integer set function on all subsets of [p], indexed by bitmask.

    Construction only checks the table shape; `validate_rank_function`
    tests the normalization, monotonicity, and submodularity axioms, which
    keeps deliberately corrupted tables representable for diagnosis.
    """

    p: int
    values: tuple[int, ...]

    def __init__(self, p: int, values: Sequence[int]):
        check_ground_set(p)
        if p < 1:
            raise ValidationError("ground set must have at least one element")
        if len(values) != 1 << p:
            raise ValidationError(
                f"rank table has {len(values)} entries, expected {1 << p}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", tuple(int(v) for v in values))

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


@dataclass(frozen=True)
class RankViolation:
    """One failed axiom with the witnessing subset pair."""

    axiom: str  # "normalization" | "monotonicity" | "submodularity"
    subsets: tuple[tuple[int, ...], ...]
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "subsets": [list(s) for s in self.subsets],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RankReport:
    valid: bool
    violations: tuple[RankViolation, ...]

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


def _rotated(values: list, times: int) -> list:
    """`values` with its index bits rotated right `times` times: one
    rotation moves the entries at odd indices behind those at even ones."""
    for _ in range(times):
        values = values[0::2] + values[1::2]
    return values


def validate_rank_function(r: RankFunction) -> RankReport:
    """Check normalization, monotonicity, and submodularity.

    Submodularity is checked through the local characterization
    r(T+i) + r(T+j) >= r(T+i+j) + r(T), which is equivalent to the
    subset-pair form; a reported witness pair (T+i, T+j) genuinely
    violates the pair inequality.

    The table is checked by whole-list operations, with no Python loop
    over subsets.  The rotation w = w[0::2] + w[1::2] moves bit 0 of
    every index to the top, so after i rotations element i sits at bit
    0, and the marginals m_i(T) = r(T+i) - r(T) are the differences of
    the odd and even entries.  Monotonicity at i is min(m_i) >= 0.  By
    the local characterization above, submodularity at (i, j), j > i,
    is m_i(T) >= m_i(T+j) for every T; m_i, rotated in the same way,
    puts j at bit 0 and compares its even half against its odd half.
    Only a failing element or pair is mapped back to subsets, by a list
    of masks rotated alongside.  The checks visit elements first, but
    the report lists every violation mask-major, as an ordered walk of
    the subsets would: monotonicity by (T, j), then submodularity by
    (T, i, j).  These keys are distinct, so sorting them gives that
    order exactly.
    """
    p, values = r.p, r.values
    monotone: list[tuple[int, int]] = []  # (T, j): r(T) > r(T + j)
    submodular: list[tuple[int, int, int]] = []  # (T, i, j) failing at T
    w, masks = list(values), None  # masks: the subset at each place of w, once needed
    for i in range(p):
        m = list(map(sub, w[1::2], w[0::2]))
        if min(m) < 0:
            if masks is None:
                masks = _rotated(list(range(1 << p)), i)
            monotone += [(t, i) for t in compress(masks[0::2], map(gt, w[0::2], w[1::2]))]
        at = None  # the subset T at each place of m, once needed
        for j in range(i + 1, p):
            low, high = m[0::2], m[1::2]
            if any(map(lt, low, high)):
                if at is None:
                    if masks is None:
                        masks = _rotated(list(range(1 << p)), i)
                    at = _rotated(masks[0::2], j - i - 1)
                submodular += [(t, i, j) for t in compress(at[0::2], map(lt, low, high))]
            m = low + high
            if at is not None:
                at = at[0::2] + at[1::2]
        w = w[0::2] + w[1::2]
        if masks is not None:
            masks = masks[0::2] + masks[1::2]
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


def msupp_from_rank(r: RankFunction) -> Support:
    """All n in N^p with n(J) <= r(J) for proper subsets J and |n| = r([p]).

    Fixing n_1 = v slices B(r) down to the base polytope of the rank
    function r_v(A) = min(r(A), r(A + 1) - v) on the elements 2..p.  The
    slice is nonempty exactly for r([p]) - r([p] - 1) <= v <= r({1}), so
    the recursion on slices meets no dead end, and it emits the points in
    lexicographic order.  With two elements left, every value v of the
    first gives one point, completed by the weight; a range that would
    take the support past DEFAULT_ENUMERATION_BUDGET points raises
    BudgetExceededError before it is listed.  An invalid table raises
    InvalidRankError, which carries the full validation report.
    """
    report = validate_rank_function(r)
    if not report.valid:
        raise InvalidRankError(report)
    if r.p == 1:
        return Support._from_sorted(1, [(r.values[1],)])
    points: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], values: Sequence[int]) -> None:
        low, high = values[-1] - values[-2], values[1]
        if len(values) == 4:
            if len(points) + high - low + 1 > DEFAULT_ENUMERATION_BUDGET:
                raise BudgetExceededError(
                    f"support exceeds the enumeration budget of "
                    f"{DEFAULT_ENUMERATION_BUDGET} points"
                )
            points.extend([prefix + (v, values[3] - v) for v in range(low, high + 1)])
            return
        # even masks leave out the current first element, odd ones hold it
        without, with_ = values[0::2], values[1::2]
        for v in range(low, high + 1):
            extend(prefix + (v,), [min(a, b - v) for a, b in zip(without, with_)])

    extend((), r.values)
    # lexicographic, distinct, nonnegative (r is monotone) and of weight r([p])
    return Support._from_sorted(r.p, points)


@dataclass(frozen=True)
class MConvexReport:
    mconvex: bool
    # witness = (x, y, i) such that x_i > y_i but no valid exchange exists
    witness: tuple[tuple[int, ...], tuple[int, ...], int] | None

    def to_json_dict(self) -> dict:
        if self.witness is None:
            return {"mconvex": self.mconvex, "witness": None}
        x, y, i = self.witness
        return {"mconvex": self.mconvex, "witness": {"x": list(x), "y": list(y), "i": i}}


def is_mconvex(s: Support) -> MConvexReport:
    """Test the exchange axiom: for x, y in s and x_i > y_i there is j
    with x_j < y_j and x - e_i + e_j in s.

    The witness is the first failing (x, y, i): x and then y in the
    support's order, then i increasing.  For a fixed x and i, the points
    y failing at i are those with y_i < x_i and y_j <= x_j for every j
    whose move x - e_i + e_j stays in s.  With one bitmask over the
    points per coordinate value, that set is at most p ANDs, so each x
    costs O(p^2) big-integer operations instead of a pass over every y.
    The least point index over all i, and the least i at that index,
    give the same witness as the pass over pairs.  By Murota's
    characterization (module docstring) the verdict equals "r_S is
    submodular and B(r_S) holds |s| lattice points".
    """
    if not s.points:
        raise ValidationError("M-convexity is undefined for an empty support")
    points, p = s.points, s.p
    # x -> its digits in base weight + 1, so a move -e_i + e_j is one addition
    powers = [(s.weight + 1) ** j for j in range(p)]
    keys = {sum(v * q for v, q in zip(x, powers)) for x in points}
    # below[j][v] / upto[j][v]: the points y with y_j < v / y_j <= v, bit k for
    # points[k], for the values v that occur in coordinate j
    below: list[dict[int, int]] = []
    upto: list[dict[int, int]] = []
    for j in range(p):
        by_value: dict[int, int] = {}
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
        key = sum(v * q for v, q in zip(x, powers))
        first = None  # (index of y, i) of the earliest failure at this x
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


def msupp_union(supports: Sequence[Support]) -> Support:
    """Set union of supports sharing p and weight (reducible-scheme case)."""
    if not supports:
        raise ValidationError("union of zero supports")
    p = supports[0].p
    weights = {s.weight for s in supports if s.weight is not None}
    if any(s.p != p for s in supports):
        raise ValidationError("supports have mismatched ground sets")
    if len(weights) > 1:
        raise ValidationError(f"supports have mismatched weights {sorted(weights)}")
    points: set[tuple[int, ...]] = set()
    for s in supports:
        points.update(s.points)
    return Support(p, points)


@dataclass(frozen=True)
class SubspaceFamily:
    """Spanning sets for subspaces V_1, ..., V_p of k^ambient_dim.

    The field k is the rationals ("Q") or a prime field ("Fp:<prime>").
    Empty generator lists give the zero subspace.
    """

    ambient_dim: int
    field: str
    generators: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(
        self,
        ambient_dim: int,
        generators: Sequence[Sequence[Sequence[Fraction | int | str]]],
        field: str = "Q",
    ):
        if ambient_dim < 0:
            raise ValidationError("ambient dimension must be nonnegative")
        prime = _parse_field(field)
        parsed = []
        for idx, gens in enumerate(generators):
            vecs = []
            for vec in gens:
                try:
                    entries = tuple(Fraction(x) for x in vec)
                except ValueError as exc:  # e.g. more digits than int() reads
                    raise ValidationError(f"subspace {idx + 1}: {exc}") from exc
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
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "generators", tuple(parsed))

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

    Ranks come from exact Gaussian elimination, over Q or over the
    tagged prime field.  The subsets are visited depth first, adding
    elements in increasing order, and each subset's echelon basis is its
    parent's basis extended by the generators of the one added element:
    2^p - 1 extensions, no elimination from scratch, and at most p + 1
    bases alive at a time.
    """
    p = fam.p
    check_ground_set(p)
    if p < 1:
        raise ValidationError("subspace family must be nonempty")
    prime = _parse_field(fam.field)
    values = [0] * (1 << p)

    def visit(mask: int, basis: list, start: int) -> None:
        for j in range(start, p):
            child = mask | 1 << j
            extended = extend_basis(basis, fam.generators[j], prime)
            values[child] = len(extended)
            visit(child, extended, j + 1)

    visit(0, [], 0)
    return RankFunction(p, values)
