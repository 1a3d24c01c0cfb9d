"""Oracles for the readers: the constructors that convert and check one
entry at a time, of `Support`, `RankFunction`, `LatticePolytope`,
`SubspaceFamily`, `Grading`, `MonomialIdeal` and `SimplicialComplex`,
and the schema check that walks every array entry by entry.

The library reads a clean input in a few passes over all entries at once
and falls back to its per-entry loop only to name a fault.  These are the
per-entry readers on their own.  They raise the same ValidationError at
the same first fault, and otherwise build the same object without calling
the library's constructors.
"""

from itertools import combinations
from unittest import mock

from multidegree import (
    Grading,
    LatticePolytope,
    MonomialIdeal,
    RankFunction,
    SimplicialComplex,
    SubspaceFamily,
    Support,
    UnsupportedSizeError,
    ValidationError,
    schemas,
)
from multidegree.errors import _integer, _rational, check_budget
from multidegree.mixedvol import MAX_AMBIENT_DIM
from multidegree.polymatroid import _parse_field, check_ground_set


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


def check_oracle(name, document):
    """`schemas.check` with every array walked entry by entry: no array
    is decided at once."""
    with mock.patch.object(schemas, "_meet_at_once", lambda option, entries, definitions: False):
        schemas.check(name, document)


def _build(cls, **fields):
    """An object of a `Value` class with these fields, public and
    private, set without calling its constructor."""
    value = object.__new__(cls)
    value._set(**fields)
    return value


def lattice_polytope_oracle(d, vertices):
    """Convert every entry in the order given, then check the vertex
    count and the lengths in sorted order; keep the int vertices when
    every entry is an int."""
    d = _integer(d)
    if d < 1:
        raise ValidationError("ambient dimension must be at least 1")
    if d > MAX_AMBIENT_DIM:
        raise UnsupportedSizeError(
            f"ambient dimension {d} exceeds the supported maximum {MAX_AMBIENT_DIM}"
        )
    pts = sorted({tuple(_rational(x, "vertex") for x in v) for v in vertices})
    if not pts:
        raise ValidationError("polytope needs at least one vertex")
    for pt in pts:
        if len(pt) != d:
            raise ValidationError(f"vertex {pt} has length {len(pt)}, expected {d}")
    ints = None
    if all(type(x) is int for v in vertices for x in v):
        ints = tuple(tuple(x.numerator for x in pt) for pt in pts)
    return _build(LatticePolytope, d=d, _vertices=tuple(pts), _ints=ints)


def subspace_family_oracle(ambient_dim, generators, field="Q"):
    """Parse the field, then convert and check vector by vector: the
    entries, the length, integrality over F_p."""
    ambient_dim = _integer(ambient_dim)
    if ambient_dim < 0:
        raise ValidationError("ambient dimension must be nonnegative")
    prime = _parse_field(field)
    parsed = []
    for idx, gens in enumerate(generators):
        vecs = []
        for vec in gens:
            entries = tuple(_rational(x, f"subspace {idx + 1}") for x in vec)
            if len(entries) != ambient_dim:
                raise ValidationError(
                    f"subspace {idx + 1} has a vector of length {len(entries)}, expected {ambient_dim}"
                )
            if prime is not None and any(e.denominator != 1 for e in entries):
                raise ValidationError(f"field {field} requires integer vector entries")
            vecs.append(entries)
        parsed.append(tuple(vecs))
    return _build(
        SubspaceFamily, ambient_dim=ambient_dim, field=field, generators=tuple(parsed), _prime=prime
    )


def grading_oracle(nvars, p, degree_of):
    """Convert every entry in order, then check each variable's degree:
    its length, its signs, that it is nonzero."""
    nvars, p = _integer(nvars), _integer(p)
    if len(degree_of) != nvars:
        raise ValidationError(f"grading lists {len(degree_of)} degrees for {nvars} variables")
    degrees = tuple(tuple(_integer(x) for x in d) for d in degree_of)
    for v, d in enumerate(degrees):
        if len(d) != p:
            raise ValidationError(f"degree of variable {v + 1} has length {len(d)}")
        if any(x < 0 for x in d):
            raise ValidationError(f"negative degree entry for variable {v + 1}")
        if all(x == 0 for x in d):
            raise ValidationError(f"variable {v + 1} has zero degree vector")
    return _build(Grading, nvars=nvars, p=p, degree_of=degrees)


def monomial_ideal_oracle(grading, generators):
    """Convert every entry in order, check each generator in sorted
    order, charge the pairs, then compare every pair in the order of
    `combinations`."""
    gens = sorted({tuple(_integer(x) for x in g) for g in generators})
    for g in gens:
        if len(g) != grading.nvars:
            raise ValidationError(f"generator {g} has length {len(g)}, expected {grading.nvars}")
        if any(x < 0 for x in g):
            raise ValidationError(f"negative exponent in generator {g}")
        if all(x == 0 for x in g):
            raise ValidationError("the unit monomial cannot be a generator")
    check_budget(len(gens) * (len(gens) - 1) // 2, "minimality check over generator pairs")
    for a, b in combinations(gens, 2):
        if all(x <= y for x, y in zip(a, b)) or all(y <= x for x, y in zip(a, b)):
            raise ValidationError(f"generator list is not minimal: {a} and {b} are comparable")
    supports = tuple(sum(1 << v for v, e in enumerate(g) if e) for g in gens)
    return _build(MonomialIdeal, grading=grading, generators=tuple(gens), _supports=supports)


def simplicial_complex_oracle(nverts, facets):
    """Convert every vertex in order, check the facets in sorted order,
    charge the pairs, then compare every pair in the order of
    `combinations`."""
    nverts = _integer(nverts)
    cleaned = sorted({tuple(sorted(set(map(_integer, f)))) for f in facets})
    if not cleaned:
        raise ValidationError("a complex needs at least one facet")
    for f in cleaned:
        if not f:
            raise ValidationError("empty facet")
        if any(not 1 <= v <= nverts for v in f):
            raise ValidationError(f"facet {f} has a vertex outside 1..{nverts}")
    check_budget(len(cleaned) * (len(cleaned) - 1) // 2, "nested-facet check over facet pairs")
    for a, b in combinations(cleaned, 2):
        if set(a) <= set(b) or set(b) <= set(a):
            raise ValidationError(f"facets {a} and {b} are nested")
    masks = tuple(sum(1 << v for v in f) for f in cleaned)
    return _build(SimplicialComplex, nverts=nverts, facets=tuple(cleaned), _masks=masks)
