"""Exhaustive supporting-plane oracle for the 3D convex hull, and the
full surface check.

Every triple of points spans a candidate plane; a plane supports the
hull when no point lies strictly on both sides of it.  The facets are
the distinct supporting planes, each with the points lying on it.  The
search is cubic in the number of points, several times slower than the
library's hull, and shares nothing with the incremental construction in
`multidegree.mixedvol` apart from the exact integer primitives and the
planar ring `_facet_ring`.  Its triangulation must pass
`_surface_checks`, which reads a whole face list at once; the library
checks each surface by the half-edges that change (`_replace_faces`),
and `_surface_checks` is the oracle for that update.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from multidegree.mixedvol import _cross3, _dot, _facet_ring, _sub


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


def hull_vertices(points):
    """The extreme points: the union of the strict facet rings."""
    found = set()
    for (normal, _offset), on_plane in supporting_planes(points).items():
        found.update(_facet_ring(on_plane, normal))
    return sorted(found)


def hull_3d_bruteforce(points):
    """Outward-oriented triangulated boundary: a fan over every facet ring."""
    faces = []
    for (normal, _offset), on_plane in supporting_planes(points).items():
        ring = _facet_ring(on_plane, normal)
        for k in range(1, len(ring) - 1):
            faces.append((ring[0], ring[k], ring[k + 1]))
    _surface_checks(faces)
    return faces


def enclosed_volume(faces):
    """Volume enclosed by an outward-oriented closed triangulated surface."""
    return Fraction(sum(_dot(a, _cross3(b, c)) for a, b, c in faces), 6)
