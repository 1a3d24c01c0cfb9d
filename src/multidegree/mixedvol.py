"""Lattice polytopes in dimension at most 3, exact volumes, Minkowski
sums, and mixed volumes from support functions summed over hull cells.

All geometry is exact: coordinates are rationals, scaled to integers
once, and the hulls, the corner test and the positivity criterion work
in integers from there on.  A volume is the one mixed volume of a
one-polytope tuple, V(K; (d)) = vol K, so one route below computes
both.  Hulls are a monotone chain in 2D and, in 3D, a triangulated hull
built incrementally (de Berg et al., *Computational Geometry*, chapter
11), each face with its plane.  The 3D hull inserts its points in a
fixed shuffled order (a generator seeded with 0), and its seed
tetrahedron is the first one that order offers.  The hull checks itself
and raises AssertionError when a check fails, so a wrong volume is
never returned silently: a closed oriented surface of Euler
characteristic 2 (checked once per surface, on the half-edges and vertex
use counts that the seed and each insertion change), every point
beneath every face plane, positive volume.  The beneath check packs the
x, y and z columns of all the points once into three ints of one k-bit
digit per point; a face's corners are among the points, so with m the
largest |coordinate| each value n . q - offset lies within 48 m^3, and
k is set from that bound so that one masked evaluation of
nx X + ny Y + nz Z - offset ONES + BIAS decides a face against every
point at once.

Mixed volumes are the coefficients of the volume polynomial (Schneider,
*Convex Bodies*, section 5.1):

    vol(l_1 K_1 + ... + l_p K_p) = sum_{|n| = d} (d!/n!) V(K; n) l^n.

The same section reads the mixed volume of a body K with d - 1 copies of
a polytope Q off the facets F of Q, with h_K(u) = max_{x in K} u . x the
support function of K and u_F the outer unit normal of F:

    V(K, Q, ..., Q) = (1/d) sum_F h_K(u_F) vol_{d-1}(F).

A cell of the boundary of Q given by an outer normal n of length
(d - 1)! vol_{d-1} of the cell (a 2D hull edge turned clockwise, a 3D
hull triangle's (b - a) x (c - a)) adds h_K(n) to d! V(K, Q, ..., Q);
cells that split one facet add up to it, as their normals point the same
way.  The formula holds for flat Q too, as a limit of thin bodies: a
segment in 2D and a polygon in 3D count once with each orientation, and
a set of dimension d - 2 or less has no cells.  h_K is a maximum over
the corners of K, and h_Q(n) is the cell's offset n . a, so d! vol Q is
the sum of Q's offsets.  In 3D the entries of three distinct members
follow by multilinearity from the hull of one pair sum.  All vertices
are scaled once, by the lcm L of their denominators, so V(K; n) is an
integer over d! L^d, or over 2 d! L^d for three distinct members.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations
from operator import add, mul, sub
from typing import Collection, Iterable, Sequence

from .errors import UnsupportedSizeError, ValidationError, Value, _rational, check_budget
from .linalg import extend_basis, rank_rational
from .polymatroid import _integer, _rank_table, check_ground_set
from .schemas import check

MAX_AMBIENT_DIM = 3

Point = tuple[Fraction, ...]
IntPoint = tuple[int, ...]


class LatticePolytope(Value):
    """Convex hull of finitely many rational points in R^d, d <= 3.

    The stored vertex list may contain redundant (non-extreme) points;
    canonicalize() reduces to the extreme points.  The vertices are read
    in a few passes over all coordinates, and only an input with a fault
    is walked entry by entry, to name it.  A polytope given by int
    vertices keeps them as sorted int tuples, which the hulls and the
    rank test read, and builds the Fraction tuples of `vertices` on
    their first read, each distinct entry once.  Equality, hashing and
    `repr` go by d and `vertices`.
    """

    __slots__ = ("d", "_vertices", "_ints")

    def __init__(self, d: int, vertices: Iterable[Iterable[Fraction | int | str]]):
        d = _integer(d)
        if d < 1:
            raise ValidationError("ambient dimension must be at least 1")
        if d > MAX_AMBIENT_DIM:
            raise UnsupportedSizeError(
                f"ambient dimension {d} exceeds the supported maximum {MAX_AMBIENT_DIM}"
            )
        rows = list(map(tuple, vertices))
        if set(map(len, rows)) == {d} and set(map(type, chain.from_iterable(rows))) <= {int}:
            self._set(d=d, _vertices=None, _ints=tuple(sorted(set(rows))))
            return
        # convert or name the first fault
        pts = sorted({tuple(_rational(x, "vertex") for x in v) for v in rows})
        if not pts:
            raise ValidationError("polytope needs at least one vertex")
        for pt in pts:
            if len(pt) != d:
                raise ValidationError(f"vertex {pt} has length {len(pt)}, expected {d}")
        self._set(d=d, _vertices=tuple(pts), _ints=None)

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as Fraction tuples, in lexicographic order."""
        if self._vertices is None:
            fractions = {x: Fraction(x) for x in set(chain.from_iterable(self._ints))}
            self._set(_vertices=tuple(tuple(map(fractions.__getitem__, pt)) for pt in self._ints))
        return self._vertices

    def _fields(self) -> tuple:
        return self.d, self.vertices

    def __repr__(self) -> str:
        return f"LatticePolytope(d={self.d!r}, vertices={self.vertices!r})"

    def canonicalize(self) -> "LatticePolytope":
        return LatticePolytope(self.d, extreme_points(self.d, self.vertices))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "vertices": [[str(x) for x in v] for v in self.vertices],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticePolytope":
        """A polytope from a document of the `polytope` schema."""
        check("polytope", data)
        return cls(data["d"], data["vertices"])


# -- exact primitives --------------------------------------------------------


def _scale_to_int(points: Sequence[Point]) -> tuple[list[IntPoint], int]:
    """The points times the lcm L of their denominators, and L."""
    scale = math.lcm(*(x.denominator for pt in points for x in pt))
    return [tuple(x.numerator * (scale // x.denominator) for x in pt) for pt in points], scale


def _integer_vertices(polytopes: Sequence[LatticePolytope]) -> tuple[list[list[IntPoint]], int]:
    """The vertices of each polytope times the lcm L of all their
    denominators, and L: the polytopes' own int vertices, L = 1, when
    every one keeps them."""
    if all(k._ints is not None for k in polytopes):
        return [list(k._ints) for k in polytopes], 1
    flat, scale = _scale_to_int([v for k in polytopes for v in k.vertices])
    rest = iter(flat)
    return [[next(rest) for _v in k.vertices] for k in polytopes], scale


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return tuple(map(sub, a, b))


def _cross3(u: IntPoint, v: IntPoint) -> IntPoint:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: IntPoint, v: IntPoint) -> int:
    return sum(map(mul, u, v))


def _cross2(o: IntPoint, a: IntPoint, b: IntPoint) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polytope_dim(polytope: LatticePolytope) -> int:
    """Affine dimension: rank of the difference vectors from the first vertex."""
    base = polytope.vertices[0]
    rows = [
        [x - y for x, y in zip(v, base)] for v in polytope.vertices[1:]
    ]
    return rank_rational(rows) if rows else 0


def _common_dim(polytopes: Sequence[LatticePolytope]) -> int:
    """The ambient dimension d of a tuple of polytopes; an empty tuple or
    one of mismatched dimensions raises ValidationError."""
    if not polytopes:
        raise ValidationError("empty polytope tuple")
    d = polytopes[0].d
    if any(k.d != d for k in polytopes):
        raise ValidationError("polytopes have mismatched ambient dimensions")
    return d


def minkowski_sum(
    polytopes: Sequence[LatticePolytope], weights: Sequence[int] | None = None
) -> LatticePolytope:
    """Weighted Minkowski sum: hull of sums of scaled vertices, one per
    polytope with positive weight.  Default weights are all 1."""
    d = _common_dim(polytopes)
    weights = [1] * len(polytopes) if weights is None else list(map(_integer, weights))
    if len(weights) != len(polytopes):
        raise ValidationError("one weight per polytope required")
    if any(w < 0 for w in weights):
        raise ValidationError("weights must be nonnegative")
    if all(w == 0 for w in weights):
        raise ValidationError("at least one weight must be positive")
    return LatticePolytope(d, _weighted_sum([k.vertices for k in polytopes], weights))


def _weighted_sum(vertex_lists: Sequence[Sequence[tuple]], weights: Sequence[int]) -> set[tuple]:
    """The points sum_i w_i v_i with each v_i from vertex_lists[i]."""
    sums = {(0,) * len(vertex_lists[0][0])}
    for verts, w in zip(vertex_lists, weights):
        if w:
            step = [tuple(w * x for x in v) for v in verts]
            sums = {tuple(map(add, u, v)) for u in sums for v in step}
    return sums


# -- 2D hull -----------------------------------------------------------------


def _hull_2d(points: Sequence[IntPoint]) -> list[IntPoint]:
    """Strict convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[IntPoint] = []
    for pt in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[IntPoint] = []
    for pt in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


# -- 3D hull: incremental construction with self-checks --------------------


# A face is its corners a, b, c, counterclockwise seen from outside, with
# the outward normal (b - a) x (c - a) and the offset normal . a.
Face = tuple[IntPoint, IntPoint, IntPoint, IntPoint, int]


def _face(a: IntPoint, b: IntPoint, c: IntPoint) -> Face:
    ax, ay, az = a
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return (a, b, c, (nx, ny, nz), nx * ax + ny * ay + nz * az)


def _replace_faces(
    half_edges: set, uses: Counter, old: Sequence[tuple], new: Sequence[tuple]
) -> None:
    """Replace the faces `old` of a closed oriented surface, given by its
    directed half-edges and the use counts of its vertices, by the faces
    `new`; raise AssertionError exactly when the new face list is not a
    closed oriented surface of Euler characteristic 2 (the full check
    `_surface_checks` in tests/hull_oracle.py).  From the empty surface,
    `old` is empty and every half-edge of `new` is checked.

    Only a half-edge that changed can lose its reverse, and an added one
    is in the surface once the sizes agree.  A vertex leaves `uses` when
    its count falls to zero, so the surface has V = len(uses) vertices."""
    removed = [e for a, b, c, *_plane in old for e in ((a, b), (b, c), (c, a))]
    added = [e for a, b, c, *_plane in new for e in ((a, b), (b, c), (c, a))]
    half_edges.difference_update(removed)
    size = len(half_edges)
    half_edges.update(added)
    # each added half-edge must find its reverse, and a removed one that
    # was not added back must not
    if (
        len(half_edges) != size + len(added)
        or any((v, u) not in half_edges for u, v in added)
        or any((v, u) in half_edges for u, v in removed if (u, v) not in half_edges)
    ):
        raise AssertionError("hull surface is not a closed oriented manifold")
    uses.update([v for f in new for v in f[:3]])
    for v in [v for f in old for v in f[:3]]:
        count = uses[v] - 1
        if count:
            uses[v] = count
        else:
            del uses[v]
    # closed, with no half-edge twice: E = |half_edges| / 2, F = |half_edges| / 3
    if len(uses) - len(half_edges) // 6 != 2:
        raise AssertionError("hull surface is not a topological sphere")


def _beneath(points: Sequence[IntPoint], faces: Sequence[Face]) -> bool:
    """Whether every point lies beneath or on every face plane, n . q <=
    offset, where every face's corners are among the points.

    With m the largest |coordinate|, each edge vector has entries of at
    most 2m and each normal entries of at most 8m^2, so |n . q - offset|
    = |n . (q - a)| <= 48 m^3.  The x, y and z columns are packed once
    into ints X, Y, Z of one k-bit digit per point, 2^(k-1) > 48 m^3.
    In nx X + ny Y + nz Z - offset ONES + BIAS, each digit of BIAS being
    2^(k-1) - 1, each point's digit is n . q - offset + 2^(k-1) - 1, in
    [0, 2^k), so no digit borrows from or carries into the next, and
    its top bit is set exactly when n . q > offset: one masked
    evaluation decides a face against every point."""
    k = (48 * max(max(map(abs, q)) for q in points) ** 3).bit_length() + 1
    xs = ys = zs = 0
    for x, y, z in points:
        xs = (xs << k) + x
        ys = (ys << k) + y
        zs = (zs << k) + z
    ones = ((1 << k * len(points)) - 1) // ((1 << k) - 1)
    bias = (1 << k - 1) - 1
    top = ones << k - 1
    return not any(
        (nx * xs + ny * ys + nz * zs + (bias - offset) * ones) & top
        for _a, _b, _c, (nx, ny, nz), offset in faces
    )


def _hull_3d_incremental(points: Collection[IntPoint]) -> list[Face] | None:
    """Outward-oriented triangulated boundary of the hull, or None when
    the points lie in a plane.

    Each face carries its plane; as a . ((b - a) x (c - a)) = det(a, b, c),
    the offsets sum to six times the volume, which must be positive.
    Every point must lie beneath or on every final face plane, which
    `_beneath` decides in one packed evaluation per face.  The
    points are sorted, then shuffled by a generator seeded with 0: in
    lexicographic order nearly every point of a Minkowski sum was
    inserted beyond a large visible cap.  The seed tetrahedron is the
    first point a of that order, the first point b != a, the first point
    c off the line ab and the first point off the plane abc.  Each other
    point replaces the faces it sees by the cone over their horizon.
    """
    pts = sorted(set(points))
    random.Random(0).shuffle(pts)
    try:
        a = pts[0]
        b = next(q for q in pts if q != a)
        ab = _sub(b, a)
        c = next(q for q in pts if any(_cross3(ab, _sub(q, a))))
        normal, offset = _face(a, b, c)[3:]
        d = next(q for q in pts if _dot(normal, q) != offset)
    except StopIteration:
        return None
    if _dot(normal, d) > offset:
        b, c = c, b
    faces = [_face(a, b, c), _face(b, a, d), _face(c, b, d), _face(a, c, d)]
    half_edges, uses = set(), Counter()
    _replace_faces(half_edges, uses, (), faces)
    for q in pts:
        x, y, z = q
        kept: list[Face] = []
        visible: list[Face] = []
        for f in faces:
            nx, ny, nz = f[3]
            (visible if nx * x + ny * y + nz * z > f[4] else kept).append(f)
        if not visible:
            continue
        edges = {e for u, v, w, *_plane in visible for e in ((u, v), (v, w), (w, u))}
        cone = [_face(u, v, q) for u, v in edges if (v, u) not in edges]
        _replace_faces(half_edges, uses, visible, cone)
        faces = kept + cone
    if not _beneath(pts, faces):
        raise AssertionError("a point ended up beyond a hull face plane")
    if sum(f[4] for f in faces) <= 0:
        raise AssertionError("closed outward surface must enclose positive volume")
    return faces


def _spans_space(vectors: Iterable[IntPoint]) -> bool:
    """Whether the integer vectors in R^3 have rank 3.  Greedily, u is
    the first nonzero one, v the first after it with u x v != 0, and
    some w after v must have (u x v) . w != 0: a vector skipped on the
    way lies in the span of those taken."""
    rest = iter(vectors)
    u = next((u for u in rest if any(u)), None)
    if u is None:
        return False
    normal = next((n for n in (_cross3(u, v) for v in rest) if any(n)), None)
    return normal is not None and any(_dot(normal, w) for w in rest)


# A boundary cell of a hull: its outer normal n and offset n . a, a in the cell
Cell = tuple[IntPoint, int]


def _corners(d: int, points: Collection[IntPoint]) -> tuple[list[IntPoint], list[Cell]]:
    """The extreme points among the integer points, in no fixed order,
    and the boundary cells of their hull, each normal of length (d - 1)!
    times the cell's (d - 1)-volume.

    The cells are the two ends of the range in 1D, the edges of the
    counterclockwise ring in 2D (a segment's twice, once each way), and
    the hull's triangles in 3D.  In 3D a hull point is a corner exactly
    when the normals of its faces have rank 3 (`_spans_space`, a cross
    and a dot product in integers): a point inside an edge or a facet
    lies on at most two facet planes.  A flat set is projected onto the
    pivot coordinates of its affine span, which is one-to-one on the
    span, and its corners are taken there; a polygon's fan, summed into
    one normal, is its cell once with each orientation, and a segment or
    a single point has no cell."""
    if d == 1:
        lo, hi = min(points), max(points)
        return sorted({lo, hi}), [((-1,), -lo[0]), ((1,), hi[0])]
    if d == 2:
        ring = _hull_2d(points)
        edges = zip(ring, ring[1:] + ring[:1]) if len(ring) > 1 else ()
        return ring, [((by - ay, ax - bx), ax * by - ay * bx) for (ax, ay), (bx, by) in edges]
    faces = _hull_3d_incremental(points)
    if faces is not None:
        normals: dict[IntPoint, list[IntPoint]] = {}
        for a, b, c, normal, _offset in faces:
            for q in (a, b, c):
                normals.setdefault(q, []).append(normal)
        return [q for q, rows in normals.items() if _spans_space(rows)], [f[3:] for f in faces]
    pts = list(points)
    pivots = [col for col, _row in extend_basis([], [_sub(q, pts[0]) for q in pts])]
    if not pivots:
        return pts[:1], []
    flat = {tuple(q[k] for k in pivots): q for q in pts}
    ring = [flat[x] for x in _corners(len(pivots), flat)[0]]
    if len(ring) < 3:
        return ring, []
    a = ring[0]
    fan = [_cross3(_sub(b, a), _sub(c, a)) for b, c in zip(ring[1:], ring[2:])]
    normal = tuple(map(sum, zip(*fan)))
    offset = _dot(normal, a)
    return ring, [(normal, offset), (tuple(-x for x in normal), -offset)]


def extreme_points(d: int, vertices: Sequence[Point]) -> list[Point]:
    """The extreme points among the given points, exactly."""
    pts = sorted(set(vertices))
    ints, _scale = _scale_to_int(pts)
    back = dict(zip(ints, pts))
    return sorted(back[q] for q in _corners(d, ints)[0])


# -- mixed volumes -----------------------------------------------------------


class MixedVolumeTable(Value):
    """Exact mixed volumes V(K; n) for all n in N^p with |n| = d."""

    __slots__ = ("p", "d", "entries")

    def __init__(self, p: int, d: int, entries: dict[tuple[int, ...], Fraction]):
        self._set(p=p, d=d, entries=tuple(sorted(entries.items())))

    def value(self, n: Sequence[int]) -> Fraction:
        key = tuple(map(_integer, n))
        for exp, val in self.entries:
            if exp == key:
                return val
        raise ValidationError(f"no entry for {key}; need |n| = {self.d}")

    def to_json_dict(self) -> dict:
        try:
            entries = [{"n": list(n), "v": str(v)} for n, v in self.entries]
        except ValueError as exc:  # a value of more digits than str() writes
            raise UnsupportedSizeError(f"a mixed volume is too long to print: {exc}") from exc
        return {"d": self.d, "p": self.p, "entries": entries}


def mixed_volumes(polytopes: Sequence[LatticePolytope]) -> MixedVolumeTable:
    """Mixed volumes of the tuple, the coefficients of its volume
    polynomial, by the facet formula (Schneider, *Convex Bodies*,
    section 5.1) over the cells of the members' hulls and, in 3D, of
    pair sums (see the module docstring).

    The vertices are scaled once by the lcm L of their denominators, and
    `_corners` gives each member K_i its corners C_i and its cells.
    With S(i, Q) the sum over the cells (n, offset) of Q of max n . v
    over v in C_i, d! L^d V(K_i, K_j, ..., K_j) = S(i, K_j) for i != j,
    and d! L^d vol K_i is the sum of K_i's offsets.  In 3D, for
    i < j < k, multilinearity in V(K_i, K_j + K_k, K_j + K_k) gives

        12 L^3 V(K_i, K_j, K_k) = S(i, K_j + K_k) - S(i, K_j) - S(i, K_k),

    and the hull of each pair sum j < k, built once from the |C_j| |C_k|
    sums of corners, serves every i < j.

    `check_budget` refuses, before the work starts, the table's
    C(p + d - 1, d) entries, the support evaluations (corners times
    cells of the members and, in 3D, |C_i| 2 |C_j| |C_k| over i < j < k,
    as a pair sum has fewer than 2 |C_j| |C_k| triangles) and each pair
    sum's points past DEFAULT_ENUMERATION_BUDGET.
    """
    d = _common_dim(polytopes)
    p = len(polytopes)
    check_budget(math.comb(p + d - 1, d), "entries of the mixed volume table")
    lattice, scale = _integer_vertices(polytopes)
    corners, cells = zip(*(_corners(d, pts) for pts in lattice))
    sizes = list(map(len, corners))
    e1 = e2 = e3 = 0  # elementary symmetric sums of the sizes
    for size in sizes:
        e1, e2, e3 = e1 + size, e2 + e1 * size, e3 + e2 * size
    check_budget(e1 * sum(map(len, cells)) + (2 * e3 if d == 3 else 0), "support function evaluations")

    def support(i: int, cells_of_q: Sequence[Cell]) -> int:  # S(i, Q)
        return sum(max(sum(map(mul, n, v)) for v in corners[i]) for n, _offset in cells_of_q)

    def key(*members: int) -> tuple[int, ...]:  # n with n_i the times i is named
        return tuple(map(members.count, range(p)))

    unit = math.factorial(d) * scale**d
    entries = {key(*[i] * d): Fraction(sum(offset for _n, offset in cells[i]), unit) for i in range(p)}
    pairs = {}
    if d > 1:  # S(i, K_j) and S(j, K_i) are both 2 L^2 V(K_i, K_j) in 2D
        for i, j in (permutations if d == 3 else combinations)(range(p), 2):
            pairs[i, j] = support(i, cells[j])
            entries[key(i, *[j] * (d - 1))] = Fraction(pairs[i, j], unit)
    if d == 3:
        for j, k in combinations(range(1, p), 2):
            check_budget(sizes[j] * sizes[k], "points of a partial Minkowski sum")
            _sum_corners, sum_cells = _corners(3, {tuple(map(add, a, b)) for a in corners[j] for b in corners[k]})
            for i in range(j):
                c = support(i, sum_cells) - pairs[i, j] - pairs[i, k]
                entries[key(i, j, k)] = Fraction(c, 2 * unit)
    for n, value in entries.items():
        if value < 0:
            raise AssertionError(f"negative mixed volume at {n}: {value}")
    return MixedVolumeTable(p, d, entries)


def volume(polytope: LatticePolytope) -> Fraction:
    """Exact d-dimensional volume; 0 when the polytope is lower-dimensional.
    It is the one mixed volume V(K; (d)) of the one-polytope tuple."""
    return mixed_volumes([polytope]).entries[0][1]


def positivity_criterion(
    polytopes: Sequence[LatticePolytope], n: Sequence[int]
) -> bool:
    """V(K; n) > 0 iff |n| = d and n(J) <= r(J) for every subset J, where
    r(J) = dim(sum_{j in J} K_j) is the rank of the edge directions of
    the K_j with j in J.

    The directions are taken from each K_j's first vertex, after all
    vertices are scaled to integers by one lcm, which keeps their spans;
    r is the table of `linear_rank`'s walk (`_rank_table`) over them."""
    d = _common_dim(polytopes)
    p = len(polytopes)
    counts = list(map(_integer, n))
    if len(counts) != p or any(x < 0 for x in counts):
        raise ValidationError(f"type vector {counts} must be in N^{p}")
    if sum(counts) != d:
        return False
    check_ground_set(p)
    vertices, _scale = _integer_vertices(polytopes)
    directions = [[_sub(v, base) for v in others] for base, *others in vertices]
    r = _rank_table(p, d, directions, None)
    return all(
        sum(counts[j] for j in range(p) if mask >> j & 1) <= r[mask]
        for mask in range(1, 1 << p)
    )


# By the transversal theorem for linear matroids, n_i independent segments
# inside each K_i spanning R^d exist exactly when the rank test above holds.
segments_criterion = positivity_criterion
