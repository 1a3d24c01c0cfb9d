"""Exact polytope geometry: dimensions, volumes, Minkowski sums, mixed
volumes, and the positivity criterion.

The library has one 3D hull, the incremental construction.  The
exhaustive supporting-plane search in hull_oracle.py is its reference;
it chains each facet's ring from brute-force boundary edges and shares
only the integer primitives `_cross3`, `_dot` and `_sub` with the
library.  Volumes, extreme points and the planes stored on the faces
are compared on degeneracy-rich random configurations of 4 to 40 points
(clouds on a small grid, Minkowski sums of two random 3-polytopes,
sheared grids and prisms, with many collinear and coplanar points).
The hull's triangles may keep points inside edges and facets as
corners; mixed volumes sum support functions over them anyway, and the
corner test drops them.  Flat sets get their corners in their affine span, checked
against the same oracle.  The hull's seed search is the only dimension
test `volume` makes; the rank computation `polytope_dim` is its oracle
on flat and full-dimensional input.  Whole mixed-volume tables are
compared with mixedvol_oracle.py and with the one-hull route of
sum_hull_oracle.py, and the hull's surface update, on the
seed and on each insertion, with the full surface check of
hull_oracle.py.  The packed final check `_beneath` is held to the scalar
loop over every point and face, on and one step beyond the planes and
with coordinates up to 10^40, and a reversed plane that keeps its
corners shows that this check alone catches a point left beyond a face.
The integer corner test is held to elimination by `extend_basis`, and
the positivity criterion to the Fraction route of positivity_oracle.py.
"""

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multidegree import (
    LatticePolytope,
    UnsupportedSizeError,
    ValidationError,
    minkowski_sum,
    mixed_volumes,
    polytope_dim,
    positivity_criterion,
    segments_criterion,
    volume,
)
from multidegree.linalg import extend_basis, rank_rational
from multidegree import mixedvol
from multidegree.mixedvol import (
    _beneath,
    _face,
    _hull_3d_incremental,
    _replace_faces,
    _scale_to_int,
    _spans_space,
    _sub,
    extreme_points,
)
from multidegree.polymatroid import MAX_GROUND_SET, compositions

from hull_oracle import (
    _surface_checks,
    enclosed_volume,
    hull_3d_bruteforce,
    hull_vertices,
    supporting_planes,
)
from mixedvol_oracle import mixed_volumes_oracle
from sum_hull_oracle import sum_hull_oracle
from positivity_oracle import positivity_oracle


def cube(d=3):
    verts = []
    for mask in range(1 << d):
        verts.append(tuple((mask >> k) & 1 for k in range(d)))
    return LatticePolytope(d, verts)


def segment(direction, d=None):
    d = d or len(direction)
    return LatticePolytope(d, [(0,) * d, tuple(direction)])


def point(coords):
    return LatticePolytope(len(coords), [coords])


def full_dimensional(points):
    return rank_rational([_sub(q, points[0]) for q in points[1:]]) == 3


def sheared(points, rng):
    """Image under a random nonsingular integer matrix with entries in
    -1..1, so that degenerate faces point in general directions."""
    while True:
        m = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        if rank_rational(m) == 3:
            return [tuple(sum(r[k] * q[k] for k in range(3)) for r in m) for q in points]


def random_configuration(rng):
    """4 to 40 integer points: a cloud, a Minkowski sum of two random
    3-polytopes, or a sheared grid or prism."""
    kind = rng.choice(("cloud", "minkowski", "grid", "prism"))
    if kind == "cloud":
        return [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(4, 40))]
    if kind == "minkowski":
        a, b = (
            [tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(rng.randint(4, 6))]
            for _ in range(2)
        )
        return sorted({tuple(x + y for x, y in zip(p, q)) for p in a for q in b})
    if kind == "grid":
        sizes = [3, 3, 3]
        while math.prod(sizes) > 40:
            sizes = [rng.randint(2, 4) for _ in range(3)]
        return sheared(list(product(*(range(k) for k in sizes))), rng)
    base = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 8))]
    levels = sorted(rng.sample(range(-2, 3), rng.randint(2, 4)))
    return sheared([(x, y, z) for x, y in base for z in levels], rng)


def random_points(rng, d):
    """1 to d + 3 points with fractional coordinates in a random affine
    subspace of dimension 0 to d, so that flat sets are common."""
    den = rng.randint(1, 3)
    base = [Fraction(rng.randint(-2, 2), den) for _ in range(d)]
    directions = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, d))]
    points = []
    for _ in range(rng.randint(1, d + 3)):
        coefficients = [Fraction(rng.randint(-2, 2), den) for _ in directions]
        points.append(
            tuple(
                b + sum(t * v[k] for t, v in zip(coefficients, directions))
                for k, b in enumerate(base)
            )
        )
    return points


def raises_assertion(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def insertion(rng):
    """A hull surface of part of a random configuration, a further point
    q, the faces q sees and the cone of faces over their horizon."""
    while True:
        pts = random_configuration(rng)
        rng.shuffle(pts)
        k = rng.randint(4, len(pts))
        if len(pts) < 5 or not full_dimensional(pts[:k]):
            continue
        faces = _hull_3d_incremental(pts[:k])
        for q in pts[k:] + [tuple(rng.randint(-4, 4) for _ in range(3))]:
            visible = [f for f in faces if sum(map(math.prod, zip(f[3], q))) > f[4]]
            if visible:
                edges = {e for u, v, w, *_p in visible for e in ((u, v), (v, w), (w, u))}
                cone = [_face(u, v, q) for u, v in edges if (v, u) not in edges]
                return faces, visible, cone


def seed_tetrahedron(rng):
    """The four outward faces of a random tetrahedron, as the hull seeds
    them: the fourth corner lies beneath the plane of the first face."""
    while True:
        a, b, c, d = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4))
        normal, offset = _face(a, b, c)[3:]
        side = sum(map(math.prod, zip(normal, d))) - offset
        if side:
            if side > 0:
                b, c = c, b
            return [_face(a, b, c), _face(b, a, d), _face(c, b, d), _face(a, c, d)]


def mutate(rng, faces, mutation, vertices):
    """Fault one face of the list in place: drop it, flip it, repeat it,
    or rewire it to a new apex, one of `vertices` when it can be, else a
    point off the surface.  Any other mutation leaves the list as it is."""
    i = rng.randrange(len(faces))
    if mutation == "drop":
        del faces[i]
    elif mutation == "flip":
        a, b, c = faces[i][:3]
        faces[i] = _face(a, c, b)
    elif mutation == "duplicate":
        faces.append(faces[i])
    elif mutation == "rewire":
        a, b, c = faces[i][:3]
        apexes = sorted(vertices - {a, b, c}) + [(9, 9, 9)]
        faces[i] = _face(a, b, rng.choice(apexes))


@st.composite
def member(draw, d, most):
    """The vertices of a point, a segment, a flat member (2 to `most`
    points in an affine subspace of dimension d - 1) or 1 to `most` free
    points in R^d, with a denominator of its own."""
    den = draw(st.integers(1, 4))
    coordinate = st.integers(-2, 2).map(lambda x: Fraction(x, den))
    vertex = st.tuples(*[coordinate] * d)
    kind = draw(st.sampled_from(["point", "segment", "flat", "free"]))
    if kind == "point":
        return [draw(vertex)]
    if kind == "segment":
        return [draw(vertex), draw(vertex)]
    if kind == "free":
        return draw(st.lists(vertex, min_size=1, max_size=most))
    base = draw(vertex)
    directions = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d - 1, max_size=d - 1))
    steps = draw(st.lists(st.lists(coordinate, min_size=d - 1, max_size=d - 1), min_size=2, max_size=most))
    return [
        tuple(b + sum(t * u[k] for t, u in zip(ts, directions)) for k, b in enumerate(base))
        for ts in steps
    ]


def vertex_lists(d, p):
    """p members in R^d of every kind, with at most 4 vertices each (3 in
    3D when p >= 3, to keep the brute-force oracle fast), so points,
    segments, flat members and mixed lattices are common."""
    return st.lists(member(d, 3 if d == 3 and p >= 3 else 4), min_size=p, max_size=p)


@st.composite
def tuples(draw, d, p):
    """`vertex_lists(d, p)`, with the first two members moved, half the
    time, into parallel hyperplanes x_d = c of their own, so that their
    sum is flat."""
    polytopes = draw(vertex_lists(d, p))
    if d > 1 and draw(st.booleans()):
        for j in range(min(p, 2)):
            c = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
            polytopes[j] = [v[:-1] + (c,) for v in polytopes[j]]
    return polytopes


class TestDim:
    def test_point(self):
        assert polytope_dim(point((1, 2))) == 0

    def test_segment(self):
        assert polytope_dim(segment((1, 0))) == 1

    def test_square(self):
        assert polytope_dim(cube(2)) == 2

    def test_flat_in_3d(self):
        flat = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert polytope_dim(flat) == 2

    def test_redundant_points_ignored(self):
        k = LatticePolytope(2, [(0, 0), (2, 0), (1, 0)])
        assert polytope_dim(k) == 1


class TestMinkowskiSum:
    def test_translation_by_point(self):
        k = cube(2)
        shifted = minkowski_sum([k, point((3, 4))])
        assert polytope_dim(shifted) == 2
        assert volume(shifted) == 1
        assert min(shifted.vertices) == (3, 4)

    def test_unit_square_from_segments(self):
        s = minkowski_sum([segment((1, 0)), segment((0, 1))], [1, 1])
        assert volume(s) == 1
        assert polytope_dim(s) == 2

    def test_dilation(self):
        doubled = minkowski_sum([cube(2)], [2])
        assert volume(doubled) == 4

    def test_zero_weight_drops_polytope(self):
        s = minkowski_sum([cube(2), segment((5, 7))], [1, 0])
        assert volume(s) == 1

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            minkowski_sum([cube(2)], [0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            minkowski_sum([cube(2), cube(3)])


class TestVolume:
    def test_unit_square(self):
        assert volume(cube(2)) == 1

    def test_unit_cube(self):
        assert volume(cube(3)) == 1

    def test_standard_simplex(self):
        s = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert volume(s) == Fraction(1, 6)

    def test_lower_dimensional_is_zero(self):
        assert volume(segment((1, 1), d=2)) == 0
        assert volume(point((1, 2, 3))) == 0

    def test_rational_coordinates(self):
        half = LatticePolytope(2, [("0", "0"), ("1/2", "0"), ("0", "1/2"), ("1/2", "1/2")])
        assert volume(half) == Fraction(1, 4)

    def test_interval(self):
        k = LatticePolytope(1, [("-1/3",), ("2/3",)])
        assert volume(k) == 1

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedSizeError):
            LatticePolytope(4, [(0, 0, 0, 0)])

    def test_one_hull_per_3d_volume(self, monkeypatch):
        calls = []
        hull = mixedvol._hull_3d_incremental
        monkeypatch.setattr(mixedvol, "_hull_3d_incremental", lambda pts: calls.append(len(pts)) or hull(pts))
        # 18 grid points, 8 of them corners
        grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
        assert volume(LatticePolytope(3, grid)) == 4
        assert calls == [18]


class TestFlatInput:
    NAMED = {
        "point-1d": (1, [(5,)], True),
        "point-3d": (3, [(1, 2, 3)], True),
        "collinear-2d": (2, [(0, 0), (1, 2), (2, 4), ("-1/2", -1)], True),
        "collinear-3d": (3, [(0, 0, 0), (1, 1, 1), ("1/3", "1/3", "1/3"), (-2, -2, -2)], True),
        "grid-5x5-3d": (3, [(x, y, x - y) for x in range(5) for y in range(5)], True),
        "grid-5x5-plus-apex-3d": (
            3,
            [(x, y, x - y) for x in range(5) for y in range(5)] + [(0, 0, 1)],
            False,
        ),
        "fractional-plane-3d": (
            3,
            [(0, 0, 0), ("1/2", 0, "1/3"), (0, "1/3", "1/2"), ("1/2", "1/3", "5/6")],
            True,
        ),
        "fractional-simplex-3d": (
            3,
            [(0, 0, 0), ("1/2", 0, 0), (0, "1/3", 0), (0, 0, "1/4")],
            False,
        ),
        "fractional-segment-2d": (2, [("1/3", "2/3"), ("2/3", "1/3")], True),
        "point-2d": (2, [("1/2", 3)], True),
        "segment-along-z-3d": (3, [(1, 1, 0), (1, 1, 3), (1, 1, 1), (1, 1, "1/2")], True),
        "grid-3x3-in-plane-x-3d": (3, [(1, y, z) for y in range(3) for z in range(3)], True),
        "triangle-with-inner-points-3d": (
            3,
            [(0, 0, 0), (2, 2, 1), (4, 0, 2), (2, 1, 1), (3, 1, "3/2"), (1, 1, "1/2")],
            True,
        ),
    }

    @staticmethod
    def assert_flat_iff_zero(k):
        flat = polytope_dim(k) < k.d
        assert (volume(k) == 0) == flat
        if k.d == 3:
            ints, _scale = _scale_to_int(k.vertices)
            assert (_hull_3d_incremental(ints) is None) == flat

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named(self, name):
        d, verts, flat = self.NAMED[name]
        k = LatticePolytope(d, verts)
        assert (polytope_dim(k) < d) == flat
        self.assert_flat_iff_zero(k)
        ints, _scale = _scale_to_int(k.vertices)
        back = dict(zip(ints, k.vertices))
        assert k.canonicalize().vertices == tuple(back[q] for q in hull_vertices(ints))

    def test_fractional_simplex_volume(self):
        d, verts, _flat = self.NAMED["fractional-simplex-3d"]
        assert volume(LatticePolytope(d, verts)) == Fraction(1, 144)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_randomized(self, d):
        rng = random.Random(31 + d)
        flat = 0
        for _ in range(200):
            k = LatticePolytope(d, random_points(rng, d))
            flat += polytope_dim(k) < d
            self.assert_flat_iff_zero(k)
        # both kinds of input occur
        assert 20 < flat < 180


class TestHullAgreement:
    def test_incremental_matches_bruteforce_randomized(self):
        rng = random.Random(1234)
        trials = 0
        while trials < 100:
            pts = random_configuration(rng)
            if not full_dimensional(pts):
                continue
            trials += 1
            # a failed self-check raises AssertionError and fails the test
            faces = _hull_3d_incremental(pts)
            expected = enclosed_volume(hull_3d_bruteforce(pts))
            assert enclosed_volume([f[:3] for f in faces]) == expected

    def test_stored_planes_match_oracle_randomized(self):
        rng = random.Random(2468)
        trials = 0
        while trials < 60:
            pts = random_configuration(rng)
            if not full_dimensional(pts):
                continue
            trials += 1
            planes = set()
            for _a, _b, _c, normal, offset in _hull_3d_incremental(pts):
                g = math.gcd(*normal)
                planes.add((tuple(x // g for x in normal), offset // g))
            assert planes == set(supporting_planes(pts))

    def test_volume_entry_point_matches_reference(self):
        rng = random.Random(4321)
        for _ in range(40):
            npts = rng.randint(4, 20)
            verts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(npts)]
            k = LatticePolytope(3, verts)
            if polytope_dim(k) < 3:
                assert volume(k) == 0
                continue
            ints, scale = _scale_to_int(k.vertices)
            assert volume(k) == enclosed_volume(hull_3d_bruteforce(ints)) / scale**3

    def test_extreme_points_matches_oracle_randomized(self):
        rng = random.Random(5678)
        trials = 0
        while trials < 60:
            den = rng.randint(1, 4)
            pts = [
                tuple(Fraction(x, den) for x in q) for q in random_configuration(rng)
            ]
            if not full_dimensional(pts):
                continue
            trials += 1
            ints, _scale = _scale_to_int(sorted(set(pts)))
            back = dict(zip(ints, sorted(set(pts))))
            expected = sorted(back[q] for q in hull_vertices(ints))
            assert extreme_points(3, pts) == expected

    def test_hull_corners_inside_edges_and_facets(self):
        # The 3 x 3 x 2 grid is the sum of a unit square and the unit
        # cube.  In the hull's seeded order some edge midpoints and facet
        # centres go in before the corners around them and stay corners of
        # its triangles, among them (1, 1, 1), the centre of the top facet
        # and a sum in four ways.  Mixed volumes are read off these
        # triangles with any decomposition, and the corner test must drop
        # such points.
        square = [(x, y, 0) for x in (0, 1) for y in (0, 1)]
        unit_cube = list(product((0, 1), repeat=3))
        grid = sorted({tuple(map(add, a, b)) for a in square for b in unit_cube})
        assert grid == list(product(range(3), range(3), range(2)))
        corners = {v for f in _hull_3d_incremental(grid) for v in f[:3]}
        assert (1, 1, 1) in corners - set(hull_vertices(grid))
        table = mixed_volumes([LatticePolytope(3, square), LatticePolytope(3, unit_cube)])
        assert dict(table.entries) == mixed_volumes_oracle(3, [square, unit_cube])
        assert extreme_points(3, grid) == hull_vertices(grid)

    def test_degenerate_rich_configurations(self):
        # grids and prisms: lots of collinear and coplanar points
        grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
        assert volume(LatticePolytope(3, grid)) == 4
        prism = [(x, y, z) for (x, y) in ((0, 0), (2, 0), (0, 2), (1, 1)) for z in (0, 3)]
        assert volume(LatticePolytope(3, prism)) == 6


class TestIncrementalSurfaceCheck:
    """The surface update `_replace_faces`, on the seed and on each
    insertion, against the full surface check of hull_oracle.py, and
    faults injected into the hull."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["none", "drop", "flip", "duplicate", "rewire", "keep-visible"]),
    )
    def test_raises_exactly_when_full_check_does(self, seed, mutation):
        rng = random.Random(seed)
        faces, visible, cone = insertion(rng)
        mutate(rng, cone, mutation, {v for f in faces for v in f[:3]})
        if mutation == "keep-visible":
            del visible[rng.randrange(len(visible))]
        kept = [f for f in faces if f not in visible]
        half_edges, uses = set(), Counter()
        _replace_faces(half_edges, uses, (), faces)
        full = raises_assertion(_surface_checks, kept + cone)
        assert raises_assertion(_replace_faces, half_edges, uses, visible, cone) == full
        assert full == (mutation != "none")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["none", "drop", "flip", "duplicate", "rewire"]),
    )
    def test_seed_raises_exactly_when_full_check_does(self, seed, mutation):
        rng = random.Random(seed)
        faces = seed_tetrahedron(rng)
        mutate(rng, faces, mutation, {v for f in faces for v in f[:3]})
        full = raises_assertion(_surface_checks, faces)
        assert raises_assertion(_replace_faces, set(), Counter(), (), faces) == full
        assert full == (mutation != "none")

    @pytest.mark.parametrize("fault", ["flip", "repeat"])
    def test_injected_fault_ends_in_assertion(self, monkeypatch, fault):
        rng = random.Random(8642)
        real_face = mixedvol._face
        for _ in range(8):
            pts = random_configuration(rng)
            if not full_dimensional(pts):
                continue
            calls = []
            monkeypatch.setattr(mixedvol, "_face", lambda *c: calls.append(c) or real_face(*c))
            _hull_3d_incremental(pts)
            # call 0 gives the seed's first plane and calls 1-4 its faces;
            # every later one is a cone face.  Repeating call 0 may give
            # face 1 unchanged, so a repeat starts at face 2.
            for k in range(1 if fault == "flip" else 2, len(calls)):
                seen = []

                def faulty(a, b, c, k=k, seen=seen):
                    seen.append((a, b, c))
                    if len(seen) - 1 != k:
                        return real_face(a, b, c)
                    return real_face(a, c, b) if fault == "flip" else real_face(*seen[-2])

                monkeypatch.setattr(mixedvol, "_face", faulty)
                with pytest.raises(AssertionError):
                    _hull_3d_incremental(pts)

    def test_use_counts_keep_only_used_vertices(self):
        rng = random.Random(1357)
        for _ in range(40):
            faces, visible, cone = insertion(rng)
            half_edges, uses = set(), Counter()
            _replace_faces(half_edges, uses, (), faces)
            _replace_faces(half_edges, uses, visible, cone)
            kept = [f for f in faces if f not in visible]
            assert uses == Counter(v for f in kept + cone for v in f[:3])
            assert 0 not in uses.values()

    def test_removed_half_edge_must_lose_its_reverse(self):
        # A flat hexagon triangulated around the triangle of its corners
        # 1, 3 and 5, closed by a cone from below, and a point above that
        # sees the four top triangles.  Leaving the middle one out of the
        # faces replaced keeps its half-edges without their reverses while
        # every count agrees: only the check on removed half-edges sees it.
        h = [(2, 0, 0), (1, 2, 0), (-1, 2, 0), (-2, 0, 0), (-1, -2, 0), (1, -2, 0)]
        top = [_face(h[i], h[j], h[k]) for i, j, k in ((0, 1, 2), (2, 3, 4), (4, 5, 0), (0, 2, 4))]
        bottom = [_face(h[(i + 1) % 6], h[i], (0, 0, -1)) for i in range(6)]
        cone = [_face(h[i], h[(i + 1) % 6], (0, 0, 1)) for i in range(6)]
        for old, faulty in ((top, False), (top[:3], True)):
            half_edges, uses = set(), Counter()
            _replace_faces(half_edges, uses, (), top + bottom)
            kept = [f for f in top + bottom if f not in old]
            assert raises_assertion(_surface_checks, kept + cone) == faulty
            assert raises_assertion(_replace_faces, half_edges, uses, old, cone) == faulty


def beneath_scalar(points, faces):
    """Every point beneath or on every face plane, one dot product at a time."""
    return all(sum(map(math.prod, zip(normal, q))) <= offset for *_c, normal, offset in faces for q in points)


def _egcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x0, x1, y0, y1 = b, r, x1, x0 - q * x1, y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def unit_step(normal):
    """An integer t with normal . t = gcd(normal), the least positive value
    that normal . q - offset takes on integer points q (1 when the normal
    is primitive)."""
    g, x, y = _egcd(normal[0], normal[1])
    _g, s, z = _egcd(g, normal[2])
    return (x * s, y * s, z)


wide_vectors = st.sampled_from([3, 10**6, 10**40]).flatmap(
    lambda s: st.tuples(*[st.integers(-s, s)] * 3)
)


class TestBulkBeneathCheck:
    """The packed check `_beneath` against the scalar loop, with points on
    a face plane (allowed) and one step beyond it (refused), and the one
    fault that only the final check of the hull can catch."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        corner=wide_vectors,
        u=wide_vectors,
        v=wide_vectors,
        extra=st.lists(wide_vectors, max_size=6),
        triples=st.lists(st.tuples(*[st.integers(0, 8)] * 3), max_size=4),
        shift=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_matches_the_scalar_loop(self, corner, u, v, extra, triples, shift):
        a, b, c = corner, tuple(map(add, corner, u)), tuple(map(add, corner, v))
        face = _face(a, b, c)
        normal, offset = face[3:]
        assume(any(normal))
        i, j = shift
        on = tuple(x + i * y + j * z for x, y, z in zip(a, u, v))
        t = unit_step(normal)
        beyond = tuple(map(add, on, t))
        below = _sub(on, t)
        assert sum(map(math.prod, zip(normal, beyond))) - offset == math.gcd(*normal)
        corners = [a, b, c]
        assert _beneath(corners + [on, below], [face])
        assert not _beneath(corners + [beyond], [face])
        flipped = _face(a, c, b)
        assert _beneath(corners + [on, beyond], [flipped])
        assert not _beneath(corners + [below], [flipped])
        points = corners + [on, beyond, below] + extra
        faces = [face, flipped] + [
            _face(*(points[k % len(points)] for k in triple)) for triple in triples
        ]
        for subset in (points, points[:4] + points[6:], [q for q in points if q != beyond]):
            for chosen in (faces, faces[:1], faces[2:]):
                if all(x in subset for f in chosen for x in f[:3]):
                    assert _beneath(subset, chosen) == beneath_scalar(subset, chosen)

    def test_huge_coordinates_one_unit_apart(self):
        big = 10**40
        a, b, c = (-big, big, 3), (big, -big + 1, -big), (big + 3, big, big - 7)
        face = _face(a, b, c)
        normal, offset = face[3:]
        assert math.gcd(*normal) == 1
        t = unit_step(normal)
        on = tuple(map(add, a, _sub(c, b)))
        beyond, below = tuple(map(add, on, t)), _sub(on, t)
        assert _beneath([a, b, c, on, below], [face])
        assert not _beneath([a, b, c, on, beyond], [face])

    def test_flipped_plane_is_caught_only_by_the_final_check(self, monkeypatch):
        # The last point of the insertion order lies outside the hull of
        # the others, so the last cone is built and nothing is inserted
        # after it.  One of its faces keeps its corners, which is all the
        # surface check reads, but stores the reversed plane.  Every point
        # strictly inside lies beyond that plane.
        rng = random.Random(97531)
        real_face, real_beneath = mixedvol._face, mixedvol._beneath
        caught = 0
        for _ in range(200):
            pts = random_configuration(rng)
            order = sorted(set(pts))
            random.Random(0).shuffle(order)
            *rest, last = order
            if not full_dimensional(rest):
                continue
            planes = [f[3:] for f in _hull_3d_incremental(rest)]
            if not any(sum(map(math.prod, zip(n, last))) > offset for n, offset in planes):
                continue
            flipped = []

            def faulty(a, b, c, last=last, flipped=flipped):
                face = real_face(a, b, c)
                if c != last or flipped:
                    return face
                flipped.append(face)
                return (a, b, c, tuple(-x for x in face[3]), -face[4])

            monkeypatch.setattr(mixedvol, "_face", faulty)
            monkeypatch.setattr(mixedvol, "_beneath", lambda points, faces: True)
            try:
                _hull_3d_incremental(pts)
            except AssertionError:
                continue  # the volume check caught it too
            assert len(flipped) == 1
            flipped.clear()
            monkeypatch.setattr(mixedvol, "_beneath", real_beneath)
            with pytest.raises(AssertionError, match="beyond a hull face plane"):
                _hull_3d_incremental(pts)
            caught += 1
            monkeypatch.setattr(mixedvol, "_face", real_face)
            if caught == 12:
                break
        assert caught == 12


@st.composite
def normal_lists(draw):
    """0 to 7 vectors in Z^3: free ones, and multiples of u, -u, combinations
    of u and v, and zero vectors, so parallel, antiparallel and coplanar
    lists are common."""
    small = st.tuples(*[st.integers(-3, 3)] * 3)
    u, v = draw(small), draw(small)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "parallel", "antiparallel", "coplanar", "zero"]), max_size=7)):
        k, i, j = draw(st.integers(1, 4)), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        if kind == "free":
            rows.append(draw(small))
        elif kind == "parallel":
            rows.append(tuple(k * x for x in u))
        elif kind == "antiparallel":
            rows.append(tuple(-k * x for x in u))
        elif kind == "coplanar":
            rows.append(tuple(i * x + j * y for x, y in zip(u, v)))
        else:
            rows.append((0, 0, 0))
    return rows


def grid_or_prism(rng, kind):
    """A sheared box grid of 3 x 3 x 2 to 4 points, the sides in random
    order, or a sheared prism over a square's corners, edge midpoints and
    centre on 2 to 4 levels, both with points inside edges and facets."""
    if kind == "grid":
        sizes = rng.sample([3, 3, rng.randint(2, 4)], 3)
        return sheared(list(product(*(range(k) for k in sizes))), rng)
    base = [(x, y) for x in (0, 1, 2) for y in (0, 1, 2)]
    levels = sorted(rng.sample(range(-2, 3), rng.randint(2, 4)))
    return sheared([(x, y, z) for x, y in base for z in levels], rng)


class TestCornerTest:
    """The integer rank-3 test on face normals against elimination, and
    the corners it selects against the exhaustive oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(normal_lists())
    def test_matches_extend_basis(self, rows):
        assert _spans_space(rows) == (len(extend_basis([], rows)) == 3)

    @pytest.mark.parametrize("kind", ["grid", "prism"])
    @pytest.mark.parametrize("seed", range(8))
    def test_extreme_points_on_grids_and_prisms(self, kind, seed):
        pts = grid_or_prism(random.Random(seed), kind)
        expected = hull_vertices(pts)
        assert len(expected) < len(set(pts))
        assert extreme_points(3, pts) == expected
        halves = [tuple(Fraction(x, 2) for x in q) for q in pts]
        assert extreme_points(3, halves) == [tuple(Fraction(x, 2) for x in q) for q in expected]


class TestMixedVolumeOracle:
    """The whole table against polarization in Fraction arithmetic over
    brute-force volumes (tests/mixedvol_oracle.py) and against the one
    hull of the whole sum (tests/sum_hull_oracle.py), and the hulls the
    members and pair sums take."""

    @pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3) for p in range(1, 5 if d == 3 else 6)])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_whole_table_matches_oracle(self, d, p, data):
        polytopes = [LatticePolytope(d, verts) for verts in data.draw(tuples(d, p))]
        table = dict(mixed_volumes(polytopes).entries)
        assert table == sum_hull_oracle(polytopes)
        assert table == mixed_volumes_oracle(d, [k.vertices for k in polytopes])

    def test_denominators_differ_between_polytopes(self):
        f = Fraction
        vertex_lists = [
            [(0, 0, 0), (f(1, 2), 0, 0), (0, f(3, 2), 0), (0, 0, f(1, 2))],
            [(0, 0, 0), (f(1, 3), f(2, 3), f(1, 3))],
            [(0, f(1, 5), 0), (f(2, 5), 0, f(1, 5)), (0, 0, f(3, 5))],
        ]
        table = mixed_volumes([LatticePolytope(3, verts) for verts in vertex_lists])
        expected = mixed_volumes_oracle(3, vertex_lists)
        assert dict(table.entries) == expected
        assert expected[(1, 1, 1)] > 0 and expected[(0, 0, 3)] == 0

    def test_hulls_per_triple(self, monkeypatch):
        # one hull per member and one of the sum of the last two, from the
        # 4 x 6 sums of their corners (scaled by 4); the whole sum's hull
        # took 5, and polarization 3 + 19, one per weight vector
        calls = []
        hull = mixedvol._hull_3d_incremental
        monkeypatch.setattr(mixedvol, "_hull_3d_incremental", lambda pts: calls.append(set(pts)) or hull(pts))
        unit = [tuple(s * (j == k) for j in range(3)) for k in range(3) for s in (1, -1)]
        octahedron = LatticePolytope(3, unit)
        simplex = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), ("1/4", "1/4", "1/4")])
        table = mixed_volumes([cube(3), simplex, octahedron])
        corners = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
        assert len(calls) == 4 and list(map(len, calls[:3])) == [8, 5, 6]
        assert calls[3] == {tuple(x + 4 * y for x, y in zip(v, u)) for v in corners for u in unit}
        assert table.value((3, 0, 0)) == 1 and table.value((0, 3, 0)) == Fraction(1, 6)

    def test_hulls_per_pair(self, monkeypatch):
        # a 3D pair needs no sum at all: one hull per member
        calls = []
        hull = mixedvol._hull_3d_incremental
        monkeypatch.setattr(mixedvol, "_hull_3d_incremental", lambda pts: calls.append(len(pts)) or hull(pts))
        octahedron = LatticePolytope(3, [tuple(s * (j == k) for j in range(3)) for k in range(3) for s in (1, -1)])
        table = mixed_volumes([cube(3), octahedron])
        assert calls == [8, 6]
        assert dict(table.entries) == mixed_volumes_oracle(3, [cube(3).vertices, octahedron.vertices])

    def test_one_ring_per_member_in_2d(self, monkeypatch):
        calls = []
        ring = mixedvol._hull_2d
        monkeypatch.setattr(mixedvol, "_hull_2d", lambda pts: calls.append(len(pts)) or ring(pts))
        polygons = [
            [(0, 0), (2, 0), (0, 2), (1, 1)],
            [(0, 0), (1, 0), (0, 1), (1, 1), ("1/2", "1/2")],
            [(0, 0), (3, 1)],
        ]
        table = mixed_volumes([LatticePolytope(2, verts) for verts in polygons])
        assert calls == [4, 5, 2]
        assert dict(table.entries) == mixed_volumes_oracle(2, polygons)


class TestCanonicalize:
    def test_square_with_inner_points(self):
        k = LatticePolytope(2, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)])
        assert k.canonicalize().vertices == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_segment_midpoint_dropped(self):
        k = LatticePolytope(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        assert k.canonicalize().vertices == ((0, 0, 0), (2, 2, 2))

    def test_cube_face_centers_dropped(self):
        verts = list(cube(3).vertices)
        verts.append(tuple(Fraction(1, 2) for _ in range(3)))
        verts.append((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        k = LatticePolytope(3, verts)
        assert k.canonicalize().vertices == cube(3).vertices

    def test_planar_in_3d(self):
        k = LatticePolytope(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 0), (1, 0, 0)])
        assert k.canonicalize().vertices == ((0, 0, 0), (0, 2, 0), (2, 0, 0))


class TestMixedVolumes:
    def test_single_polytope_is_volume(self):
        table = mixed_volumes([cube(3)])
        assert table.value((3,)) == 1

    def test_orthogonal_segments(self):
        table = mixed_volumes([segment((1, 0)), segment((0, 1))])
        assert table.value((1, 1)) == Fraction(1, 2)
        assert table.value((2, 0)) == 0
        assert table.value((0, 2)) == 0

    def test_parallel_segments(self):
        table = mixed_volumes([segment((1, 0)), segment((2, 0))])
        assert table.value((1, 1)) == 0

    def test_float_type_vector_refused(self):
        # int() would read (1.2, 1.3) as (1, 1) and return 1/2
        table = mixed_volumes([segment((1, 0)), segment((0, 1))])
        with pytest.raises(ValidationError, match="not an integer"):
            table.value([1.2, 1.3])

    def test_diagonal_normalization(self):
        # V(K, ..., K; n) = Vol(K) for every n of weight d
        k = LatticePolytope(2, [(0, 0), (2, 0), (1, 2)])
        table = mixed_volumes([k, k, k])
        vol = volume(k)
        for n, value in table.entries:
            assert value == vol

    def test_symmetry_under_permuting_identical_bodies(self):
        a = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
        b = segment((1, 1), d=2)
        t1 = mixed_volumes([a, b])
        t2 = mixed_volumes([b, a])
        assert t1.value((1, 1)) == t2.value((1, 1))
        assert t1.value((2, 0)) == t2.value((0, 2))

    def test_determinant_law(self):
        rng = random.Random(77)
        for _ in range(20):
            vecs = [
                tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)
            ]
            det = (
                vecs[0][0] * (vecs[1][1] * vecs[2][2] - vecs[1][2] * vecs[2][1])
                - vecs[0][1] * (vecs[1][0] * vecs[2][2] - vecs[1][2] * vecs[2][0])
                + vecs[0][2] * (vecs[1][0] * vecs[2][1] - vecs[1][1] * vecs[2][0])
            )
            table = mixed_volumes([segment(v) for v in vecs])
            assert table.value((1, 1, 1)) == Fraction(abs(det), 6)

    def test_monotone_under_enlargement(self):
        small = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
        large = LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (2, 2)])
        s = segment((1, -1), d=2)
        t_small = mixed_volumes([small, s])
        t_large = mixed_volumes([large, s])
        for (n, v_small), (_n2, v_large) in zip(t_small.entries, t_large.entries):
            assert v_large >= v_small

    def test_volume_polynomial_identity_randomized(self):
        # the defining identity vol(sum w_i K_i) = sum_{|n|=d} (d!/n!) V(K; n) w^n,
        # checked at random weights up to 4
        rng = random.Random(2024)
        for _ in range(12):
            d = rng.randint(1, 3)
            p = rng.randint(1, 3)
            ks = [
                LatticePolytope(
                    d,
                    [
                        tuple(rng.randint(-2, 2) for _ in range(d))
                        for _ in range(rng.randint(1, d + 2))
                    ],
                )
                for _ in range(p)
            ]
            table = mixed_volumes(ks)
            for _ in range(9):
                w = [0] * p
                while not any(w):
                    w = [rng.randint(0, 4) for _ in range(p)]
                expected = sum(
                    math.factorial(d)
                    // math.prod(math.factorial(x) for x in n)
                    * value
                    * math.prod(wi**ni for wi, ni in zip(w, n))
                    for n, value in table.entries
                )
                assert volume(minkowski_sum(ks, w)) == expected

    def test_table_json(self):
        table = mixed_volumes([segment((1, 0)), segment((0, 1))])
        data = table.to_json_dict()
        assert data["entries"][0]["n"] == [0, 2]
        assert all(isinstance(e["v"], str) for e in data["entries"])


class TestCriteria:
    def test_orthogonal_segments_positive(self):
        ks = [segment((1, 0)), segment((0, 1))]
        assert positivity_criterion(ks, (1, 1))
        assert segments_criterion(ks, (1, 1))

    def test_parallel_segments_negative(self):
        ks = [segment((1, 0)), segment((3, 0))]
        assert not positivity_criterion(ks, (1, 1))
        assert not segments_criterion(ks, (1, 1))

    @pytest.mark.parametrize("n", [[1.7, 0.9], [True, True]], ids=["float", "bool"])
    def test_non_integer_type_vector_refused(self, n):
        # int() would read [1.7, 0.9] as [1, 0] (False) and [True, True] as [1, 1] (True)
        with pytest.raises(ValidationError, match="not an integer"):
            positivity_criterion([segment((1, 0)), segment((0, 1))], n)

    @pytest.mark.parametrize("vertex", [[True, 0], [0.1, 1], [1, 1.0]], ids=["bool", "float", "integral-float"])
    def test_non_rational_coordinate_refused(self, vertex):
        # Fraction() would read True as 1 and 0.1 as 3602879701896397/36028797018963968
        with pytest.raises(ValidationError, match="not an integer, a Fraction"):
            LatticePolytope(2, [vertex, [0, 1]])

    def test_zero_denominator_refused(self):
        # Fraction("1/0") raises ZeroDivisionError
        with pytest.raises(ValidationError, match="zero denominator"):
            LatticePolytope(2, [["1/0", 0]])

    def test_exact_coordinates_accepted(self):
        k = LatticePolytope(2, [[1, Fraction(1, 2)], ["2/3", "-1"]])
        assert k.vertices == ((Fraction(2, 3), -1), (1, Fraction(1, 2)))

    def test_float_ambient_dimension_refused(self):
        with pytest.raises(ValidationError, match="not an integer"):
            LatticePolytope(2.0, [(0, 0), (1, 0), (0, 1)])

    def test_wrong_weight_is_false(self):
        ks = [cube(2), cube(2)]
        assert not positivity_criterion(ks, (1, 0))
        assert not segments_criterion(ks, (3, 0))

    def test_two_squares_in_3d(self):
        sq = LatticePolytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert not segments_criterion([sq, sq], (2, 1))
        assert not positivity_criterion([sq, sq], (2, 1))

    def test_triangle_plus_point(self):
        tri = LatticePolytope(2, [(0, 0), (1, 0), (0, 1)])
        assert segments_criterion([tri, point((5, 5))], (2, 0))
        assert positivity_criterion([tri, point((5, 5))], (2, 0))
        assert not positivity_criterion([tri, point((5, 5))], (1, 1))

    def test_criteria_match_mixed_volume_sign_randomized(self):
        rng = random.Random(999)
        for _ in range(25):
            d = rng.choice((1, 2, 2, 3))
            p = rng.randint(1, 3)
            ks = []
            for _ in range(p):
                nverts = rng.randint(1, d + 1)
                ks.append(
                    LatticePolytope(
                        d,
                        [
                            tuple(rng.randint(-2, 2) for _ in range(d))
                            for _ in range(nverts)
                        ],
                    )
                )
            table = mixed_volumes(ks)
            for n, value in table.entries:
                positive = positivity_criterion(ks, n)
                assert (value > 0) == positive
                assert segments_criterion(ks, n) == positive


class TestPositivityOracle:
    """The criterion on scaled integer directions against the Fraction
    route through `SubspaceFamily` and `linear_rank` (positivity_oracle.py)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_fraction_route(self, d, p, data):
        polytopes = [LatticePolytope(d, verts) for verts in data.draw(vertex_lists(d, p))]
        n = data.draw(
            st.sampled_from(list(compositions(d, p)))
            | st.lists(st.integers(0, d), min_size=p, max_size=p)
        )
        assert positivity_criterion(polytopes, n) == positivity_oracle(polytopes, n)

    def test_past_the_ground_set_cap(self):
        p = MAX_GROUND_SET + 1
        with pytest.raises(UnsupportedSizeError, match=f"ground set size {p} exceeds"):
            positivity_criterion([point((k,)) for k in range(p)], [1] + [0] * (p - 1))


def test_integer_routes_build_no_fraction():
    """From the scaled vertices on, the hull, its surface update and final
    check, the corner test and the positivity criterion name nothing that
    builds a Fraction."""
    routes = {
        "_hull_3d_incremental", "_replace_faces", "_beneath", "_corners",
        "_spans_space", "positivity_criterion",
    }
    builders = {"Fraction", "_rational", "integer_row", "rank_rational", "SubspaceFamily", "linear_rank"}
    path = Path(mixedvol.__file__)
    found = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name in routes:
            found[node.name] = [
                f"{name.lineno} {name.id}"
                for name in ast.walk(node)
                if isinstance(name, ast.Name) and name.id in builders
            ]
    assert found == dict.fromkeys(routes, [])
