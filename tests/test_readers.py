"""The one-pass readers of polytopes, subspace families, gradings,
monomial ideals and simplicial complexes against their per-entry
oracles, and the schema check's bulk passes against its walk.

A reader decides a clean input in a few passes over all its entries and
walks the entries one by one only to name a fault.  On valid inputs and
on inputs with one planted fault, given to the constructor or as a JSON
document, the library and the oracle build an equal value with the same
repr and the same private fields, or raise the same error with the same
message.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree import (
    Grading,
    LatticePolytope,
    MonomialIdeal,
    SimplicialComplex,
    SubspaceFamily,
    mixed_volumes,
    positivity_criterion,
    schemas,
)
from multidegree.schemas import SCHEMAS, check

from reader_oracle import (
    check_oracle,
    grading_oracle,
    lattice_polytope_oracle,
    monomial_ideal_oracle,
    simplicial_complex_oracle,
    subspace_family_oracle,
)
from test_schemas import documents  # every schema, valid and corrupted

# strings that the rational pattern refuses but int() or Fraction() may read
ODD_STRINGS = ["1\n", " 1", "+1", "1_0", "١", "1,2", "", "1/0"]
RATIONAL_STRINGS = ["0", "1", "-2", "2/2", "1/3", "-3/2", "0/5", "007", "4/002"]


def outcome(read, *args):
    """The value a reader builds with its repr and all its fields, or
    the type and message of the exception it raises."""
    try:
        built = read(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return built, repr(built), built.__getstate__()


def document_outcome(name, document, read, oracle):
    """`read(document)` against the walked schema check, then `oracle`."""
    try:
        check_oracle(name, document)
    except Exception as exc:  # noqa: BLE001
        expected = type(exc), str(exc)
    else:
        expected = outcome(oracle, document)
    return outcome(read, document), expected


def plant(draw, rows, kinds):
    """Put one drawn fault of these kinds into a random entry or row of
    `rows`, a list of lists; "none" leaves it clean."""
    fault = draw(st.sampled_from(["none", *kinds]))
    places = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if fault == "none" or not places:
        return
    i, j = draw(st.sampled_from(places))
    if fault == "bool":
        rows[i][j] = draw(st.booleans())
    elif fault == "float":
        rows[i][j] = draw(st.sampled_from([0.0, 1.0, 0.5, -2.0]))
    elif fault == "string":
        rows[i][j] = draw(st.sampled_from(ODD_STRINGS + RATIONAL_STRINGS))
    elif fault == "negative":
        rows[i][j] = draw(st.integers(-3, -1))
    elif fault == "none-entry":
        rows[i][j] = None
    elif fault == "ragged":  # in place, as the rows may be shared
        if draw(st.booleans()):
            rows[i].pop()
        else:
            rows[i].append(draw(st.integers(0, 2)))


# -- polytopes ---------------------------------------------------------------


def rational_entries(direct):
    """Entries of a rational array: ints and pattern strings in a JSON
    document; also Fractions when given to the constructor."""
    options = [st.integers(-3, 3), st.sampled_from(RATIONAL_STRINGS)]
    if direct:
        options.append(st.fractions(-3, 3, max_denominator=4))
    return st.one_of(options)


@st.composite
def polytopes(draw, direct):
    d = draw(st.integers(1, 3) | st.sampled_from([0, 4]))
    entries = rational_entries(direct) if draw(st.booleans()) else st.integers(-3, 3)
    width = max(d, 1)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    plant(draw, rows, ["bool", "float", "string", "none-entry", "ragged"])
    return d, rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(polytopes(direct=True))
def test_polytope(case):
    assert outcome(LatticePolytope, *case) == outcome(lattice_polytope_oracle, *case)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(polytopes(direct=False))
def test_polytope_document(case):
    d, rows = case
    read, expected = document_outcome(
        "polytope",
        {"d": d, "vertices": rows},
        LatticePolytope.from_json_dict,
        lambda doc: lattice_polytope_oracle(doc["d"], doc["vertices"]),
    )
    assert read == expected


def test_int_polytopes_keep_their_int_vertices():
    k = LatticePolytope(2, [(2, 2), (1, -1), (2, 2)])
    assert k.vertices == ((Fraction(1), Fraction(-1)), (Fraction(2), Fraction(2)))
    assert k._ints == ((1, -1), (2, 2))
    assert all(type(x) is int for pt in k._ints for x in pt)
    # any other entry, integral or not, is read by the walk
    assert LatticePolytope(2, [(2, "4/2"), (Fraction(1), -1)])._ints is None
    assert LatticePolytope(1, [("1/2",), (0,)])._ints is None


def test_int_polytopes_build_fractions_on_the_first_read_only():
    square = LatticePolytope(2, [[1, 1], [0, 0], [1, 0], [0, 1], [1, 1]])
    segment = LatticePolytope(2, [[0, 0], [2, 2]])
    assert mixed_volumes([square, segment]) == mixed_volumes(
        [LatticePolytope(2, [["1", 1], [0, 0], [1, 0], [0, "1"]]), LatticePolytope(2, [["0", 0], [2, 2]])]
    )
    assert positivity_criterion([square, segment], [1, 1])
    assert square._vertices is None and segment._vertices is None
    # equality and hashing read the vertices, built or not
    same = LatticePolytope(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    assert same == square and hash(same) == hash(square) and same != segment
    assert LatticePolytope(2, [[0, 0], [2, 2]]) != LatticePolytope(2, [[0, 0], [2, 3]])
    assert segment == LatticePolytope(2, [["0", 0], [2, "2"]])
    for copied in (pickle.loads(pickle.dumps(square)), copy.deepcopy(square), square):
        assert copied.vertices == tuple((Fraction(x), Fraction(y)) for x, y in [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert len({id(x) for pt in copied.vertices for x in pt}) == 2  # 0 and 1, built once each
        assert repr(copied) == repr(LatticePolytope(2, [("0", 0), (0, 1), (1, 0), (1, "1")]))


# -- subspace families ---------------------------------------------------------


@st.composite
def families(draw, direct):
    ambient = draw(st.integers(0, 3))
    field = draw(st.sampled_from(["Q", "Q", "Fp:5", "Fp:5", "Fp:4", "Fp:x", "F7"]))
    if field == "Q" or draw(st.integers(0, 4)) == 0:
        entries = rational_entries(direct)
    else:  # integral entries, as a prime field asks
        entries = st.integers(-3, 6) | st.sampled_from(["0", "4", "-1", "6/2", "10/5"])
    vectors = st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=3)
    subspaces = draw(st.lists(vectors, max_size=4))
    flat = [vec for gens in subspaces for vec in gens]
    plant(draw, flat, ["bool", "float", "string", "none-entry", "ragged"])
    return ambient, subspaces, field


@settings(max_examples=400, deadline=None, derandomize=True)
@given(families(direct=True))
def test_subspace_family(case):
    assert outcome(SubspaceFamily, *case) == outcome(subspace_family_oracle, *case)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(families(direct=False))
def test_subspace_family_document(case):
    ambient, subspaces, field = case
    read, expected = document_outcome(
        "subspace_family",
        {"ambient": ambient, "subspaces": subspaces, "field": field},
        SubspaceFamily.from_json_dict,
        lambda doc: subspace_family_oracle(doc["ambient"], doc["subspaces"], doc["field"]),
    )
    assert read == expected


# -- gradings and monomial ideals ------------------------------------------------


@st.composite
def ideals(draw):
    nvars, p = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    nonzero = st.lists(st.integers(0, 2), min_size=p, max_size=p).filter(any)
    degrees = draw(st.lists(nonzero, min_size=nvars, max_size=nvars))
    plant(draw, degrees, ["bool", "float", "string", "negative", "ragged"])
    if draw(st.booleans()) and degrees:
        degrees[draw(st.integers(0, len(degrees) - 1))] = [0] * p  # a zero degree vector
    row = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    gens = draw(st.lists(row, max_size=7))
    if draw(st.booleans()):  # most random lists are not minimal: keep an antichain
        gens = [g for g in gens if any(g) and not any(
            h != g and all(map(int.__le__, h, g)) for h in gens
        )]
    kind = draw(st.sampled_from(["none", "zero", "non-minimal", "entry"]))
    if kind == "zero" and nvars:
        gens.insert(draw(st.integers(0, len(gens))), [0] * nvars)
    elif kind == "non-minimal" and gens:
        g = draw(st.sampled_from(gens))
        gens.append([x + draw(st.integers(0, 1)) for x in g])
    elif kind == "entry":
        plant(draw, gens, ["bool", "float", "string", "negative", "none-entry", "ragged"])
    return nvars, p, degrees, gens


def ideal_oracle(nvars, p, degrees, gens):
    return monomial_ideal_oracle(grading_oracle(nvars, p, degrees), gens)


def ideal(nvars, p, degrees, gens):
    return MonomialIdeal(Grading(nvars, p, degrees), gens)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ideals())
def test_monomial_ideal(case):
    assert outcome(ideal, *case) == outcome(ideal_oracle, *case)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ideals())
def test_monomial_ideal_document(case):
    nvars, p, degrees, gens = case
    read, expected = document_outcome(
        "monomial_ideal",
        {"nvars": nvars, "p": p, "degrees": degrees, "generators": gens},
        MonomialIdeal.from_json_dict,
        lambda doc: ideal_oracle(doc["nvars"], doc["p"], doc["degrees"], doc["generators"]),
    )
    assert read == expected


@pytest.mark.parametrize(
    "gens, message",
    [
        ([(1, 1), (2, 0), (2, 1)], "generator list is not minimal: (1, 1) and (2, 1) are comparable"),
        ([(0, 3), (2, 2), (1, 0), (0, 1)], "generator list is not minimal: (0, 1) and (0, 3) are comparable"),
        ([(1, 0, 0), (0, 1, 1), (0, 1, 0)], "generator list is not minimal: (0, 1, 0) and (0, 1, 1) are comparable"),
        ([(2, 0), (0, 0)], "the unit monomial cannot be a generator"),
        ([(300, 0), (0, 300), (299, 1), (299, 5)], "generator list is not minimal: (299, 1) and (299, 5) are comparable"),
        ([(300, 0), (0, 300), (299, 1)], None),
    ],
)
def test_monomial_ideal_cases(gens, message):
    case = len(gens[0]), 1, [[1]] * len(gens[0]), gens
    got = outcome(ideal, *case)
    assert got == outcome(ideal_oracle, *case)
    if message is not None:
        assert got[1] == message


def test_grading_cases():
    for degrees in ([[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, True], [0, 1]], [[1], [0, 1]], [[1, -1], [0, 1]]):
        assert outcome(Grading, 2, 2, degrees) == outcome(grading_oracle, 2, 2, degrees)


# -- simplicial complexes --------------------------------------------------------


@st.composite
def complexes(draw):
    nverts = draw(st.integers(1, 6))
    facet = st.lists(st.integers(1, nverts), min_size=1, max_size=4)
    facets = draw(st.lists(facet, max_size=7))
    if draw(st.booleans()):  # keep the maximal ones
        sets = [set(f) for f in facets]
        facets = [f for f, s in zip(facets, sets) if not any(s < t for t in sets)]
    kind = draw(st.sampled_from(["none", "nested", "empty", "outside", "entry"]))
    if kind == "nested" and facets:
        f = draw(st.sampled_from(facets))
        facets.insert(draw(st.integers(0, len(facets))), f[: draw(st.integers(1, len(f)))])
    elif kind == "empty":
        facets.insert(draw(st.integers(0, len(facets))), [])
    elif kind == "outside" and facets:
        facets[draw(st.integers(0, len(facets) - 1))].append(draw(st.sampled_from([0, nverts + 1])))
    elif kind == "entry":
        plant(draw, facets, ["bool", "float", "string", "negative", "none-entry"])
    return nverts, facets


@settings(max_examples=500, deadline=None, derandomize=True)
@given(complexes())
def test_simplicial_complex(case):
    assert outcome(SimplicialComplex, *case) == outcome(simplicial_complex_oracle, *case)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(complexes())
def test_simplicial_complex_document(case):
    nverts, facets = case
    read, expected = document_outcome(
        "simplicial_complex",
        {"nverts": nverts, "facets": facets},
        SimplicialComplex.from_json_dict,
        lambda doc: simplicial_complex_oracle(doc["nverts"], doc["facets"]),
    )
    assert read == expected


@pytest.mark.parametrize(
    "facets, message",
    [
        # the later facet of the pair sorts first; the message keeps sorted order
        ([(2, 3), (1, 2, 3)], "facets (1, 2, 3) and (2, 3) are nested"),
        ([(1, 4), (3,), (2, 3), (1, 2)], "facets (2, 3) and (3,) are nested"),
        ([(1, 2), (1,), (2,)], "facets (1,) and (1, 2) are nested"),
        ([(1, 2), (2, 3), (1, 3)], None),
    ],
)
def test_nested_facet_cases(facets, message):
    got = outcome(SimplicialComplex, 4, facets)
    assert got == outcome(simplicial_complex_oracle, 4, facets)
    if message is not None:
        assert got[1] == message


# -- the schema check: bulk passes and work ---------------------------------------


@st.composite
def nested_arrays(draw):
    """(name, document) whose arrays of rationals or naturals are clean
    or hold one odd entry, row or nesting."""
    name = draw(st.sampled_from(["subspace_family", "polytope_tuple", "monomial_ideal", "diagram"]))
    leaf = {
        "subspace_family": rational_entries(False),
        "polytope_tuple": rational_entries(False),
        "monomial_ideal": st.integers(0, 3),
        "diagram": st.integers(1, 3),
    }[name]
    rows = draw(st.lists(st.lists(leaf, min_size=2, max_size=2), max_size=5))
    plant(draw, rows, ["bool", "float", "string", "negative", "none-entry", "ragged"])
    if rows and draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from([7, "x", {}, [[1]]]))
    document = {
        "subspace_family": {"ambient": 2, "subspaces": [rows, rows[:1]]},
        "polytope_tuple": {"polytopes": [{"d": 2, "vertices": rows}], "n": [2]},
        "monomial_ideal": {"nvars": 2, "p": 1, "degrees": [[1], [1]], "generators": rows},
        "diagram": {"p": 3, "cells": rows},
    }[name]
    return name, document


def check_outcome(check_, name, document):
    try:
        check_(name, document)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return None


@settings(max_examples=600, deadline=None, derandomize=True)
@given(nested_arrays())
def test_bulk_check_agrees_with_the_walk(case):
    assert check_outcome(check, *case) == check_outcome(check_oracle, *case)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(documents())
def test_bulk_check_agrees_with_the_walk_on_every_schema(case):
    assert check_outcome(check, *case) == check_outcome(check_oracle, *case)


@pytest.mark.parametrize(
    "polytope",
    [{"vertices": [[1, 2]]}, {"d": 2}, {"d": True, "vertices": [[1, 2]]}, {"d": 0, "vertices": []},
     {"d": "2", "vertices": []}, {"d": 2, "vertices": [[1, 2]], "extra": None}, [[1, 2]], None],
)
def test_polytope_objects_in_bulk_and_by_the_walk(polytope):
    document = {"polytopes": [{"d": 2, "vertices": [[0, 0], ["1/2", 1]]}, polytope], "n": [1, 1]}
    assert check_outcome(check, "polytope_tuple", document) == (
        check_outcome(check_oracle, "polytope_tuple", document)
    )


@pytest.mark.parametrize("text", ODD_STRINGS)
def test_odd_strings_are_refused_in_bulk_and_by_the_walk(text):
    document = {"ambient": 1, "subspaces": [[["1"], [text]]]}
    assert check_outcome(check, "subspace_family", document) == (
        check_outcome(check_oracle, "subspace_family", document)
    )
    assert check_outcome(check, "subspace_family", document)[1].startswith("subspaces[0][1][0] must match")


def count_error_calls(monkeypatch, name, document):
    calls = []
    error = schemas._error
    monkeypatch.setattr(schemas, "_error", lambda *args: calls.append(1) or error(*args))
    check(name, document)
    return len(calls)


def test_check_work_does_not_grow_with_the_arrays(monkeypatch):
    # a clean document costs a few `_error` calls, none per entry or per object
    def tuple_of(size):
        vertices = [[i, (i * i) % 7, -i] for i in range(size)]
        return {"polytopes": [{"d": 3, "vertices": vertices}] * 3, "n": [1, 1, 1]}

    def family_of(size):
        vector = ["1/2", "-3", "0", "7/3"]
        return {"ambient": 4, "field": "Q", "subspaces": [[vector] * size] * 10}

    counts = {
        (name, size): count_error_calls(monkeypatch, name, make(size))
        for name, make in [("polytope_tuple", tuple_of), ("subspace_family", family_of)]
        for size in (2, 200)
    }
    # the document and each of its properties
    assert counts[("polytope_tuple", 2)] == counts[("polytope_tuple", 200)] == 3
    assert counts[("subspace_family", 2)] == counts[("subspace_family", 200)] == 4


def test_every_array_in_the_schemas_is_decided_at_once():
    # clean entries of every array of every schema meet it in bulk
    def arrays(schema):
        if schema.get("type") == "array":
            yield schema
            yield from arrays(schema["items"])
        for option in [*schema.get("properties", {}).values(), *schema.get("definitions", {}).values()]:
            yield from arrays(option)

    def sample(schema, definitions):
        """A clean entry of `schema`."""
        if "$ref" in schema:
            return sample(definitions[schema["$ref"].rpartition("/")[2]], definitions)
        if "oneOf" in schema:
            return sample(schema["oneOf"][-1], definitions)
        if schema["type"] == "object":
            return {key: sample(option, definitions) for key, option in schema["properties"].items()}
        if schema["type"] == "array":
            return [sample(schema["items"], definitions)] * schema.get("minItems", 2)
        return {"integer": 1, "string": "1"}[schema["type"]]

    for name, schema in SCHEMAS.items():
        definitions = schema.get("definitions")
        for array in arrays(schema):
            entries = [sample(array["items"], definitions)] * 3
            assert schemas._meet_at_once(array["items"], entries, definitions), name


def test_objects_with_an_optional_property_are_walked():
    optional = {"type": "object", "required": [], "properties": {"a": {"type": "integer"}}}
    assert not schemas._meet_at_once(optional, [{}, {"a": 1}], None)
    required = {**optional, "required": ["a"]}
    assert schemas._meet_at_once(required, [{"a": 2}, {"a": 1, "b": None}], None)
    assert not schemas._meet_at_once(required, [{"a": 2}, {"b": 1}], None)
