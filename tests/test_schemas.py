"""The schemas that `--schema` prints are the input contract: `check`
held to `jsonschema` on every fixture, every output and random
documents, valid and corrupted."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from multidegree import (
    Diagram,
    IntPolynomial,
    LatticePolytope,
    MonomialIdeal,
    Permutation,
    RankFunction,
    SimplicialComplex,
    SubspaceFamily,
    Support,
    UnsupportedSizeError,
    ValidationError,
    mixed_volumes,
    octahedron_boundary,
    rothe_diagram,
    stanley_reisner_ideal,
)
from multidegree.schemas import SCHEMAS, check

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

FIXTURE_SCHEMAS = {
    "hollow_triangle.json": "simplicial_complex",
    "icosahedron.json": "simplicial_complex",
    "intro_example_rank.json": "rank_function",
    "intro_example_subspaces.json": "subspace_family",
    "octahedron.json": "simplicial_complex",
    "octahedron_sr_ideal_pairs.json": "monomial_ideal",
    "rothe_42531.json": "diagram",
}

SQUARE = LatticePolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = LatticePolytope(2, [(0, 0), (Fraction(1, 2), 0), (0, 2)])

# one object of each input type, with the schema of its JSON form
OBJECTS = [
    ("polynomial", IntPolynomial(2, {(1, 0): -4, (0, 2): 10**30})),
    ("rank_function", RankFunction(3, [0, 1, 2, 2, 3, 3, 3, 3])),
    ("support", Support(3, [(0, 1, 2), (1, 0, 2), (1, 1, 1)])),
    ("subspace_family", SubspaceFamily(2, [[(1, Fraction(-1, 2))], [(0, 1), (3, 0)]])),
    ("subspace_family", SubspaceFamily(2, [[(1, 4)]], field="Fp:5")),
    ("permutation", Permutation([4, 2, 5, 3, 1])),
    ("diagram", rothe_diagram(Permutation([4, 2, 5, 3, 1]))),
    ("monomial_ideal", stanley_reisner_ideal(octahedron_boundary(), vars_per_vertex=2)),
    ("simplicial_complex", octahedron_boundary()),
    ("polytope", TRIANGLE),
]


def accepts(name, document):
    try:
        check(name, document)
    except ValidationError:
        return False
    return True


def valid_documents():
    """(schema name, document) for every fixture and every output."""
    out = [(FIXTURE_SCHEMAS[f.name], json.loads(f.read_text())) for f in sorted(FIXTURES.glob("*.json"))]
    out += [(name, obj.to_json_dict()) for name, obj in OBJECTS]
    polytopes = [SQUARE.to_json_dict(), TRIANGLE.to_json_dict()]
    out.append(("polytope_tuple", {"polytopes": polytopes, "n": [1, 1]}))
    out.append(("mixed_volume_table", mixed_volumes([SQUARE, TRIANGLE]).to_json_dict()))
    return out


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_schema_is_draft7(name):
    Draft7Validator.check_schema(SCHEMAS[name])


def test_every_fixture_has_a_schema():
    assert sorted(f.name for f in FIXTURES.glob("*.json")) == sorted(FIXTURE_SCHEMAS)


@pytest.mark.parametrize("name, document", valid_documents())
def test_fixtures_and_outputs_validate(name, document):
    Draft7Validator(SCHEMAS[name]).validate(document)
    check(name, document)


@pytest.mark.parametrize("name, obj", OBJECTS)
def test_round_trip(name, obj):
    assert type(obj).from_json_dict(obj.to_json_dict()) == obj


def test_polytope_schema_is_the_tuple_definition():
    polytope = SCHEMAS["polytope"]
    definition = SCHEMAS["polytope_tuple"]["definitions"]["polytope"]
    assert {k: v for k, v in polytope.items() if k not in ("$schema", "title")} == definition
    assert polytope["properties"] is definition["properties"]


@pytest.mark.parametrize(
    "name, document, where",
    [
        ("support", {"p": 2, "points": [[0, 2], [1, 1], [2, 0], [1, "a"]]}, "points[3][1] must be an integer"),
        ("support", {"p": 2, "points": [[0, -2]]}, "points[0][1] must be at least 0"),
        ("support", {"p": 2}, "support document needs 'points'"),
        ("support", [], "support document must be an object, not list"),
        ("polytope_tuple", {"polytopes": [{"d": 1, "vertices": [["1/0"]]}]}, "polytopes[0].vertices[0][0] must match"),
        ("polytope_tuple", {"polytopes": [{"d": 1, "vertices": [[0.5]]}]}, "polytopes[0].vertices[0][0] must be an integer or a string, not float"),
        ("diagram", {"p": 2, "cells": [[1, 1, 1]]}, "cells[0] has 3 entries, not 2"),
        ("polynomial", {"nvars": 1, "terms": [{"exp": [1]}]}, "terms[0] needs 'coef'"),
        # arrays of integer arrays, read in one pass until a fault is named
        ("support", {"p": 2, "points": [[0, 2], [1, True]]}, "points[1][1] must be an integer, not bool"),
        ("support", {"p": 2, "points": [[0, 2], [1, 1], 7]}, "points[2] must be an array, not int"),
        ("monomial_ideal", {"nvars": 2, "p": 1, "degrees": [[1], [1]], "generators": [[1, 0], [0, -1]]},
         "generators[1][1] must be at least 0"),
        ("monomial_ideal", {"nvars": 2, "p": 1, "degrees": [[1], [1]], "generators": [[1, 0], [0, 1.0]]},
         "generators[1][1] must be an integer, not float"),
        ("simplicial_complex", {"nverts": 3, "facets": [[1, 2], [2, 0]]}, "facets[1][1] must be at least 1"),
        ("simplicial_complex", {"nverts": 3, "facets": [[1, 2], (2, 3)]}, "facets[1] must be an array, not tuple"),
        ("diagram", {"p": 2, "cells": [[1, 1], [2]]}, "cells[1] has 1 entries, not 2"),
    ],
)
def test_error_names_the_path(name, document, where):
    with pytest.raises(ValidationError, match=r"^" + where.replace("[", r"\[").replace("]", r"\]")):
        check(name, document)


@pytest.mark.parametrize(
    "name, document, valid",
    [
        # a zero denominator is no rational
        ("subspace_family", {"ambient": 1, "subspaces": [[["1/0"]]]}, False),
        ("subspace_family", {"ambient": 1, "subspaces": [[["1/007"]]]}, True),
        # an integer coefficient is read, as a decimal string is
        ("polynomial", {"nvars": 1, "terms": [{"exp": [1], "coef": -4}]}, True),
        # a dimension above 3 is valid input of an unsupported size
        ("polytope", {"d": 4, "vertices": [[0, 0, 0, 0]]}, True),
        # the empty grid and the ring without variables
        ("diagram", {"p": 0, "cells": []}, True),
        ("monomial_ideal", {"nvars": 0, "p": 0, "degrees": [], "generators": []}, True),
        # the constructor parses the field tag
        ("subspace_family", {"ambient": 1, "subspaces": [], "field": "Fp:+7"}, True),
    ],
)
def test_schema_matches_the_readers(name, document, valid):
    assert accepts(name, document) is valid
    assert Draft7Validator(SCHEMAS[name]).is_valid(document) is valid


def test_dimension_four_is_unsupported_not_invalid():
    with pytest.raises(UnsupportedSizeError):
        LatticePolytope.from_json_dict({"d": 4, "vertices": [[0, 0, 0, 0]]})


@pytest.mark.parametrize(
    "name, document",
    [
        # draft-07 calls 2.0 an integer
        ("rank_function", {"p": 1, "values": [0, 1.0]}),
        # Python's $ matches before a final newline; ECMA 262's does not
        ("subspace_family", {"ambient": 1, "subspaces": [[["1\n"]]]}),
        ("polynomial", {"nvars": 1, "terms": [{"exp": [1], "coef": "1\n"}]}),
    ],
)
def test_check_is_stricter_than_jsonschema_here(name, document):
    assert Draft7Validator(SCHEMAS[name]).is_valid(document)
    assert not accepts(name, document)


def test_five_thousand_digit_coefficient_is_refused():
    data = {"nvars": 1, "terms": [{"exp": [1], "coef": "9" * 5000}]}
    with pytest.raises(ValidationError, match="coefficient"):
        IntPolynomial.from_json_dict(data)


# -- check and jsonschema on random documents ----------------------------------


def from_schema(schema, definitions):
    """Documents that satisfy `schema`, drawn from the schema itself."""
    if "$ref" in schema:
        return from_schema(definitions[schema["$ref"].rpartition("/")[2]], definitions)
    if "oneOf" in schema:
        return st.one_of([from_schema(option, definitions) for option in schema["oneOf"]])
    kind = schema["type"]
    if kind == "integer":
        return st.integers(min_value=schema.get("minimum", -9), max_value=9)
    if kind == "string":
        if "pattern" in schema:
            return st.from_regex(schema["pattern"], fullmatch=True)
        return st.sampled_from(["Q", "Fp:5", "x"])
    if kind == "array":
        items = from_schema(schema["items"], definitions)
        return st.lists(items, min_size=schema.get("minItems", 0), max_size=schema.get("maxItems", 3))
    properties = {k: from_schema(v, definitions) for k, v in schema["properties"].items()}
    required = {k: v for k, v in properties.items() if k in schema.get("required", ())}
    optional = {k: v for k, v in properties.items() if k not in required}
    return st.fixed_dictionaries(required, optional=optional)


def paths(document, prefix=()):
    yield prefix
    if isinstance(document, dict):
        for key, value in document.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from paths(value, prefix + (i,))


DELETE = object()
# no integral float and no string with a final newline: the two places
# where `check` is deliberately stricter than jsonschema
JUNK = st.sampled_from(
    ["x", "", "1/0", "1/2", "-7", " 1", "1e5", "Fp:7", 1.5, -0.5, True, False, None,
     -1, 0, 1, 3, {}, [], [1, 2], [[0]], [["1"]], {"d": 1}, DELETE]
)


def corrupted(document, path, value):
    if not path:
        return None if value is DELETE else value
    document = json.loads(json.dumps(document))
    node = document
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return document


@st.composite
def documents(draw):
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[name]
    valid = [doc for n, doc in valid_documents() if n == name]
    drawn = from_schema(schema, schema.get("definitions"))
    document = draw(st.sampled_from(valid) | drawn if valid else drawn)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(paths(document))))
        document = corrupted(document, path, draw(JUNK))
    return name, document


@settings(max_examples=600, deadline=None, derandomize=True)
@given(documents())
# arrays of integer arrays: clean, empty, and with one fault at the end
@example(("support", {"p": 2, "points": [[0, 2], [1, 1], [2, 0]]}))
@example(("support", {"p": 2, "points": []}))
@example(("support", {"p": 2, "points": [[0, 2], []]}))
@example(("support", {"p": 2, "points": [[0, 2], [2, False]]}))
@example(("support", {"p": 2, "points": [[0, 2], [2, -1]]}))
@example(("support", {"p": 2, "points": [[0, 2], "02"]}))
@example(("monomial_ideal", {"nvars": 2, "p": 1, "degrees": [[1], [1]], "generators": [[1, 1], [0, 2.5]]}))
@example(("monomial_ideal", {"nvars": 2, "p": 1, "degrees": [[1], [1]], "generators": [[1, 1], [0, None]]}))
@example(("simplicial_complex", {"nverts": 3, "facets": [[1, 2], [2, 3], [3, 1]]}))
@example(("simplicial_complex", {"nverts": 3, "facets": [[1, 2], [0]]}))
@example(("simplicial_complex", {"nverts": 3, "facets": [[1, 2], [[3]]]}))
@example(("diagram", {"p": 2, "cells": [[1, 1], [1, 2, 3]]}))
def test_check_agrees_with_jsonschema(case):
    name, document = case
    assert accepts(name, document) == Draft7Validator(SCHEMAS[name]).is_valid(document)
