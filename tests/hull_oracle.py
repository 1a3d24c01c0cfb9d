"""Exhaustive supporting-plane oracle for the 3D convex hull, and the
full surface check.

Every triple of points spans a candidate plane; a plane supports the
hull when no point lies strictly on both sides of it.  The facets are
the distinct supporting planes, each with the points lying on it, and
each facet's strict ring is chained from its directed boundary edges,
found by brute force as `mixedvol_oracle._shoelace_twice_area` finds
them.  The search is cubic in the number of points, several times
slower than the library's hull, and shares nothing with
`multidegree.mixedvol` apart from the exact integer primitives `_cross3`,
`_dot` and `_sub`.  Its triangulation must pass
`_surface_checks`, which reads a whole face list at once; the library
checks each surface by the half-edges that change (`_replace_faces`),
and `_surface_checks` is the oracle for that update.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from multidegree.mixedvol import _cross3, _dot, _sub


def _surface_checks(faces):
    """Closed oriented surface of Euler characteristic 2, or
    AssertionError.  Only a face's first three entries, its corners, are
    read."""
    edges = {}
    for a, b, c, *_plane in faces:
        for e in ((a, b), (b, c), (c, a)):
            edges[e] = edges.get(e, 0) + 1
    for (u, v), count in edges.items():
        if count != 1 or edges.get((v, u), 0) != 1:
            raise AssertionError("hull surface is not a closed oriented manifold")
    used = {v for f in faces for v in f[:3]}
    if len(used) - len(edges) // 2 + len(faces) != 2:
        raise AssertionError("hull surface is not a topological sphere")


def supporting_planes(points):
    """All supporting planes of the integer points: key is the primitive
    outward (normal, offset), value the points on the plane."""
    pts = sorted(set(points))
    planes = {}
    for a, b, c in combinations(pts, 3):
        normal = _cross3(_sub(b, a), _sub(c, a))
        if not any(normal):
            continue
        offset = _dot(normal, a)
        above = any(_dot(normal, q) > offset for q in pts)
        if above and any(_dot(normal, q) < offset for q in pts):
            continue
        if above:
            normal = tuple(-x for x in normal)
            offset = -offset
        g = math.gcd(*(abs(x) for x in normal), abs(offset))
        key = (tuple(x // g for x in normal), offset // g)
        if key not in planes:
            planes[key] = [q for q in pts if _dot(key[0], q) == key[1]]
    return planes


def _ring(on_plane, normal):
    """The strict ring of coplanar points, counterclockwise seen from the
    side `normal` points to.  A directed edge (a, b) is on the boundary
    when no point lies to its right and the points on its line lie
    between a and b; each boundary edge leads to the next."""
    following = {}
    for a, b in permutations(on_plane, 2):
        turns = [_dot(normal, _cross3(_sub(b, a), _sub(q, a))) for q in on_plane]
        on_line = [q for q, t in zip(on_plane, turns) if t == 0]
        if min(turns) >= 0 and {min(on_line), max(on_line)} == {a, b}:
            following[a] = b
    ring = [min(following)]
    while len(ring) < len(following):
        ring.append(following[ring[-1]])
    return ring


def hull_vertices(points):
    """The extreme points of integer points in R^d, d <= 3, padded with
    zero coordinates to R^3: the union of the strict facet rings, or the
    lexicographic extremes when no plane passes through three points."""
    d = len(next(iter(points)))
    pts = sorted({tuple(q) + (0,) * (3 - d) for q in points})
    planes = supporting_planes(pts)
    found = {pts[0], pts[-1]} if not planes else set()
    for (normal, _offset), on_plane in planes.items():
        found.update(_ring(on_plane, normal))
    return sorted(q[:d] for q in found)


def hull_3d_bruteforce(points):
    """Outward-oriented triangulated boundary: a fan over every facet ring."""
    faces = []
    for (normal, _offset), on_plane in supporting_planes(points).items():
        ring = _ring(on_plane, normal)
        for k in range(1, len(ring) - 1):
            faces.append((ring[0], ring[k], ring[k + 1]))
    _surface_checks(faces)
    return faces


def enclosed_volume(faces):
    """Volume enclosed by an outward-oriented closed triangulated surface."""
    return Fraction(sum(_dot(a, _cross3(b, c)) for a, b, c in faces), 6)
