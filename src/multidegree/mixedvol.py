"""Lattice polytopes in dimension at most 3, exact volumes, Minkowski
sums, and mixed volumes by polarization.

All geometry is exact: coordinates are rationals, scaled to integers
before hull computations.  Volumes and extreme points in 3D come from
one triangulated convex hull, built incrementally (de Berg et al.,
*Computational Geometry*, chapter 11).  Each face carries its plane, so
visibility is one dot product and the offsets sum to six times the
volume; the hull is None on flat input, which is how `volume` tells a
flat polytope.  The hull checks itself (a closed oriented surface of
Euler characteristic 2 after every insertion, every point beneath every
face plane at the end, positive volume) and raises AssertionError when
a check fails, so a wrong volume is never returned silently.

Mixed volumes come from the polarization formula (Schneider, *Convex
Bodies*, section 5.1): each V(K; n) is a signed sum of volumes of
Minkowski sums of the K_i with integer weights m <= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    UnsupportedSizeError,
    ValidationError,
)
from .linalg import rank_rational
from .polymatroid import SubspaceFamily, compositions, linear_rank
from .schemas import check

MAX_AMBIENT_DIM = 3

Point = tuple[Fraction, ...]
IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many rational points in R^d, d <= 3.

    The stored vertex list may contain redundant (non-extreme) points;
    canonicalize() reduces to the extreme points.
    """

    d: int
    vertices: tuple[Point, ...]

    def __init__(self, d: int, vertices: Iterable[Iterable[Fraction | int | str]]):
        if d < 1:
            raise ValidationError("ambient dimension must be at least 1")
        if d > MAX_AMBIENT_DIM:
            raise UnsupportedSizeError(
                f"ambient dimension {d} exceeds the supported maximum {MAX_AMBIENT_DIM}"
            )
        try:
            pts = sorted({tuple(Fraction(x) for x in v) for v in vertices})
        except ValueError as exc:  # e.g. more digits than int() reads
            raise ValidationError(f"vertex: {exc}") from exc
        if not pts:
            raise ValidationError("polytope needs at least one vertex")
        for pt in pts:
            if len(pt) != d:
                raise ValidationError(f"vertex {pt} has length {len(pt)}, expected {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vertices", tuple(pts))

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
    scale = 1
    for pt in points:
        for x in pt:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return [tuple(int(x * scale) for x in pt) for pt in points], scale


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return tuple(x - y for x, y in zip(a, b))


def _cross3(u: IntPoint, v: IntPoint) -> IntPoint:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: IntPoint, v: IntPoint) -> int:
    return sum(x * y for x, y in zip(u, v))


def _cross2(o: IntPoint, a: IntPoint, b: IntPoint) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polytope_dim(polytope: LatticePolytope) -> int:
    """Affine dimension: rank of the difference vectors from the first vertex."""
    base = polytope.vertices[0]
    rows = [
        [x - y for x, y in zip(v, base)] for v in polytope.vertices[1:]
    ]
    return rank_rational(rows) if rows else 0


def minkowski_sum(
    polytopes: Sequence[LatticePolytope], weights: Sequence[int] | None = None
) -> LatticePolytope:
    """Weighted Minkowski sum: hull of sums of scaled vertices, one per
    polytope with positive weight.  Default weights are all 1."""
    if not polytopes:
        raise ValidationError("Minkowski sum of zero polytopes")
    d = polytopes[0].d
    if any(k.d != d for k in polytopes):
        raise ValidationError("polytopes have mismatched ambient dimensions")
    if weights is None:
        weights = [1] * len(polytopes)
    if len(weights) != len(polytopes):
        raise ValidationError("one weight per polytope required")
    if any(w < 0 for w in weights):
        raise ValidationError("weights must be nonnegative")
    if all(w == 0 for w in weights):
        raise ValidationError("at least one weight must be positive")
    active = [
        [tuple(w * x for x in v) for v in k.vertices]
        for k, w in zip(polytopes, weights)
        if w > 0
    ]
    sums = {
        tuple(sum(c) for c in zip(*combo)): None for combo in product(*active)
    }
    return LatticePolytope(d, list(sums))


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
    normal = _cross3(_sub(b, a), _sub(c, a))
    return (a, b, c, normal, _dot(normal, a))


def _surface_checks(faces: Sequence[tuple]) -> None:
    """Closed oriented surface of Euler characteristic 2.  Only a face's
    first three entries, its corners, are read."""
    edges: dict[tuple[IntPoint, IntPoint], int] = {}
    for a, b, c, *_plane in faces:
        for e in ((a, b), (b, c), (c, a)):
            edges[e] = edges.get(e, 0) + 1
    for (u, v), count in edges.items():
        if count != 1 or edges.get((v, u), 0) != 1:
            raise AssertionError("hull surface is not a closed oriented manifold")
    used = {v for f in faces for v in f[:3]}
    if len(used) - len(edges) // 2 + len(faces) != 2:
        raise AssertionError("hull surface is not a topological sphere")


def _hull_3d_incremental(points: Sequence[IntPoint]) -> list[Face] | None:
    """Outward-oriented triangulated boundary of the hull, or None when
    the points lie in a plane.

    Each face carries its plane; as a . ((b - a) x (c - a)) = det(a, b, c),
    the offsets sum to six times the volume.  The seed tetrahedron is the
    first point a, the first point b != a, the first point c off the line
    ab and the first point off the plane abc.  Each other point replaces
    the faces it sees by the cone over their horizon.
    """
    pts = sorted(set(points))
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
    _surface_checks(faces)
    for q in pts:
        kept: list[Face] = []
        visible: list[Face] = []
        for f in faces:
            (visible if _dot(f[3], q) > f[4] else kept).append(f)
        if not visible:
            continue
        edges = {e for u, v, w, *_plane in visible for e in ((u, v), (v, w), (w, u))}
        faces = kept + [_face(u, v, q) for u, v in edges if (v, u) not in edges]
        _surface_checks(faces)
    for _u, _v, _w, normal, offset in faces:
        if any(_dot(normal, q) > offset for q in pts):
            raise AssertionError("a point ended up beyond a hull face plane")
    return faces


def _facet_ring(on_plane: Sequence[IntPoint], normal: IntPoint) -> list[IntPoint]:
    """Order the vertices of a planar facet counterclockwise around its
    outward normal, dropping non-extreme points."""
    axis = max(range(3), key=lambda k: abs(normal[k]))
    keep = [k for k in range(3) if k != axis]
    flat = {(pt[keep[0]], pt[keep[1]]): pt for pt in on_plane}
    ring2d = _hull_2d(list(flat))
    ring = [flat[xy] for xy in ring2d]
    if len(ring) >= 3:
        turn = _dot(_cross3(_sub(ring[1], ring[0]), _sub(ring[2], ring[0])), normal)
        if turn < 0:
            ring.reverse()
    return ring


def _volume_3d_scaled(points: Sequence[IntPoint]) -> Fraction:
    faces = _hull_3d_incremental(points)
    if faces is None:
        return Fraction(0)
    six_vol = sum(f[4] for f in faces)
    if six_vol <= 0:
        raise AssertionError("closed outward surface must enclose positive volume")
    return Fraction(six_vol, 6)


def volume(polytope: LatticePolytope) -> Fraction:
    """Exact d-dimensional volume; 0 when the polytope is lower-dimensional."""
    d = polytope.d
    if d > MAX_AMBIENT_DIM:
        raise UnsupportedSizeError(f"volume unsupported in dimension {d}")
    ints, scale = _scale_to_int(polytope.vertices)
    if d == 1:
        lo = min(x for (x,) in ints)
        hi = max(x for (x,) in ints)
        return Fraction(hi - lo, scale)
    if d == 2:
        ring = _hull_2d(ints)
        twice = 0
        for i in range(len(ring)):
            x1, y1 = ring[i]
            x2, y2 = ring[(i + 1) % len(ring)]
            twice += x1 * y2 - x2 * y1
        return Fraction(abs(twice), 2 * scale**2)
    return _volume_3d_scaled(ints) / scale**3


def extreme_points(d: int, vertices: Sequence[Point]) -> list[Point]:
    """The extreme points among the given points, exactly."""
    pts = sorted(set(vertices))
    if len(pts) == 1:
        return pts
    ints, _scale = _scale_to_int(pts)
    back = {ip: pt for ip, pt in zip(ints, pts)}
    base = ints[0]
    diffs = [_sub(q, base) for q in ints[1:]]
    dim = rank_rational(diffs)
    if dim == 0:
        return [pts[0]]
    if dim == 1:
        direction = next(v for v in diffs if any(v))
        axis = next(k for k in range(d) if direction[k] != 0)
        lo = min(ints, key=lambda q: q[axis] * (1 if direction[axis] > 0 else -1))
        hi = max(ints, key=lambda q: q[axis] * (1 if direction[axis] > 0 else -1))
        return sorted({back[lo], back[hi]})
    if dim == 2:
        if d == 2:
            ring = _hull_2d(ints)
            return sorted(back[q] for q in ring)
        normal = next(
            _cross3(u, v) for u, v in combinations(diffs, 2) if any(_cross3(u, v))
        )
        ring = _facet_ring(ints, normal)
        return sorted(back[q] for q in ring)
    # dim == 3: the triangles on one facet share a primitive outward plane;
    # the strict ring of each facet drops points inside its edges.
    faces = _hull_3d_incremental(ints)
    if faces is None:
        raise AssertionError("points of rank 3 have no seed tetrahedron")
    facets: dict[tuple[IntPoint, int], set[IntPoint]] = {}
    for a, b, c, normal, offset in faces:
        g = math.gcd(*normal)
        plane = (tuple(x // g for x in normal), offset // g)
        facets.setdefault(plane, set()).update((a, b, c))
    hull_vertices: set[IntPoint] = set()
    for (normal, _offset), on_plane in facets.items():
        hull_vertices.update(_facet_ring(sorted(on_plane), normal))
    return sorted(back[q] for q in hull_vertices)


# -- mixed volumes -----------------------------------------------------------


@dataclass(frozen=True)
class MixedVolumeTable:
    """Exact mixed volumes V(K; n) for all n in N^p with |n| = d."""

    p: int
    d: int
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __init__(self, p: int, d: int, entries: dict[tuple[int, ...], Fraction]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", tuple(sorted(entries.items())))

    def value(self, n: Sequence[int]) -> Fraction:
        key = tuple(int(x) for x in n)
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
    """Mixed volumes of the tuple, by polarization (Schneider, *Convex
    Bodies*, section 5.1):

        V(K; n) = (1/d!) sum_{0 != m <= n} (-1)^(d-|m|)
                  prod_i binom(n_i, m_i) vol(sum_i m_i K_i).

    Each volume of a weighted Minkowski sum is computed once per weight
    vector m and shared by every entry that needs it.  A weight vector
    with support S sums prod_{i in S} |V_i| vertices, and C(d, |S|) of
    them have that support, so the sums hold
    sum_k C(d, k) e_k(|V_1|, ..., |V_p|) points in all; more than
    DEFAULT_ENUMERATION_BUDGET raises BudgetExceededError before any is
    built.
    """
    if not polytopes:
        raise ValidationError("mixed volumes of zero polytopes")
    p = len(polytopes)
    d = polytopes[0].d
    if any(k.d != d for k in polytopes):
        raise ValidationError("polytopes have mismatched ambient dimensions")
    canon = [k.canonicalize() for k in polytopes]
    # e[j] = e_j(|V_1|, ..., |V_p|), the elementary symmetric polynomials
    e = [1] + [0] * d
    for k in canon:
        for j in range(d, 0, -1):
            e[j] += e[j - 1] * len(k.vertices)
    points = sum(math.comb(d, j) * e[j] for j in range(1, d + 1))
    if points > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"Minkowski sums of {points} points exceed {DEFAULT_ENUMERATION_BUDGET}"
        )
    volumes: dict[tuple[int, ...], Fraction] = {}
    entries: dict[tuple[int, ...], Fraction] = {}
    for n in compositions(d, p):
        total = Fraction(0)
        for m in product(*(range(x + 1) for x in n)):
            if not any(m):
                continue
            if m not in volumes:
                volumes[m] = volume(minkowski_sum(canon, m))
            coefficient = math.prod(math.comb(x, y) for x, y in zip(n, m))
            total += (-1) ** (d - sum(m)) * coefficient * volumes[m]
        entries[n] = total / math.factorial(d)
        if entries[n] < 0:
            raise AssertionError(f"negative mixed volume at {n}: {entries[n]}")
    return MixedVolumeTable(p, d, entries)


def positivity_criterion(
    polytopes: Sequence[LatticePolytope], n: Sequence[int]
) -> bool:
    """V(K; n) > 0 iff |n| = d and n(J) <= r(J) for every subset J, where
    r(J) = dim(sum_{j in J} K_j) is the rank of the edge directions of
    the K_j with j in J."""
    if not polytopes:
        raise ValidationError("empty polytope tuple")
    p = len(polytopes)
    d = polytopes[0].d
    if any(k.d != d for k in polytopes):
        raise ValidationError("polytopes have mismatched ambient dimensions")
    counts = [int(x) for x in n]
    if len(counts) != p or any(x < 0 for x in counts):
        raise ValidationError(f"type vector {counts} must be in N^{p}")
    if sum(counts) != d:
        return False
    directions = [
        [[x - y for x, y in zip(v, k.vertices[0])] for v in k.vertices[1:]]
        for k in polytopes
    ]
    r = linear_rank(SubspaceFamily(d, directions))
    return all(
        sum(counts[j] for j in range(p) if mask >> j & 1) <= r.of_mask(mask)
        for mask in range(1, 1 << p)
    )


# By the transversal theorem for linear matroids, n_i independent segments
# inside each K_i spanning R^d exist exactly when the rank test above holds.
segments_criterion = positivity_criterion
