"""JSON schemas for every input type: the input contract.

`--schema <name>` prints them, and every reader of a JSON document calls
`check(name, document)` before its constructor.  So a document is read
exactly when it satisfies its schema and the constructor's semantic
checks (ragged rows, primes, nested facets, minimality, sizes).

`check` interprets the draft-07 subset these schemas use: `type`,
`required`, `properties`, `items`, `minimum`, `minItems`, `maxItems`,
`pattern`, `oneOf` and `$ref` into `definitions`.  Only `oneOf` and
`$ref` stand without a `type`, and the alternatives of a `oneOf` differ
in type.  A general draft-07 validator reads two things more loosely
than `check` does:
- an integral float such as 2.0 is an integer to draft-07, but `check`
  refuses every float (and every boolean) where an integer is asked for;
- Python's `$` also matches before a final newline, so a Python
  validator takes "1\\n" for a match of "^-?[0-9]+$"; `check` matches the
  whole string, as the ECMA 262 regular expressions of draft-07 do.
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import ValidationError


def _array(items: dict, **keywords) -> dict:
    return {"type": "array", "items": items, **keywords}


def _object(required: list[str], properties: dict) -> dict:
    return {"type": "object", "required": required, "properties": properties}


_NAT = {"type": "integer", "minimum": 0}
_POS = {"type": "integer", "minimum": 1}
_NAT_VECTOR = _array(_NAT)
_RATIONAL = {
    "oneOf": [
        {"type": "integer"},
        {"type": "string", "pattern": "^-?[0-9]+(/0*[1-9][0-9]*)?$"},
    ]
}
_POLYTOPE = _object(["d", "vertices"], {"d": _POS, "vertices": _array(_array(_RATIONAL))})

SCHEMAS: dict[str, dict] = {
    title: {"$schema": "http://json-schema.org/draft-07/schema#", "title": title, **schema}
    for title, schema in {
        "polynomial": _object(["nvars", "terms"], {
            "nvars": _NAT,
            "terms": _array(_object(["exp", "coef"], {
                "exp": _NAT_VECTOR,
                "coef": {"oneOf": [{"type": "integer"}, {"type": "string", "pattern": "^-?[0-9]+$"}]},
            })),
        }),
        "rank_function": _object(["p", "values"], {
            "p": _POS,
            "values": _array({"type": "integer"}, description="2^p entries indexed by subset bitmask"),
        }),
        "support": _object(["p", "points"], {"p": _POS, "points": _array(_NAT_VECTOR)}),
        "subspace_family": _object(["ambient", "subspaces"], {
            "ambient": _NAT,
            "field": {"type": "string", "default": "Q", "description": "Q or Fp:<prime>"},
            "subspaces": _array(_array(_array(_RATIONAL))),
        }),
        "permutation": _object(["one_line"], {"p": _POS, "one_line": _array(_POS)}),
        "diagram": _object(["p", "cells"], {
            "p": _NAT,
            "cells": _array(
                _array(_POS, minItems=2, maxItems=2, description="[row, col], 1-indexed")
            ),
        }),
        "monomial_ideal": _object(["nvars", "p", "degrees", "generators"], {
            "nvars": _NAT,
            "p": _NAT,
            "degrees": _array(_NAT_VECTOR),
            "generators": _array(_NAT_VECTOR),
        }),
        "simplicial_complex": _object(
            ["nverts", "facets"], {"nverts": _POS, "facets": _array(_array(_POS))}
        ),
        "polytope": _POLYTOPE,
        "polytope_tuple": {
            **_object(["polytopes"], {
                "polytopes": _array({"$ref": "#/definitions/polytope"}),
                "n": _NAT_VECTOR,
            }),
            "definitions": {"polytope": _POLYTOPE},
        },
        "mixed_volume_table": _object(["d", "p", "entries"], {
            "d": _POS,
            "p": _POS,
            "entries": _array(_object(["n", "v"], {"n": _NAT_VECTOR, "v": _RATIONAL})),
        }),
    }.items()
}

_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def check(name: str, document: object) -> None:
    """Raise ValidationError, naming the first place where `document`
    breaks SCHEMAS[name], e.g. "points[3][1] must be an integer, not str"."""
    schema = SCHEMAS[name]
    error = _error(schema, document, schema.get("definitions"))
    if error is not None:
        path, message = error
        raise ValidationError(f"{path.lstrip('.') or name + ' document'} {message}")


def _is(value: object, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def _a(kind: str) -> str:
    return f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}"


def _error(schema: dict, value: object, definitions: dict | None) -> tuple[str, str] | None:
    """(path, message) of the first place where value breaks schema, or None."""
    if "$ref" in schema:
        schema = definitions[schema["$ref"].rpartition("/")[2]]
    if "oneOf" in schema:
        # the alternatives differ in type, so the value's type picks the one to meet
        for option in schema["oneOf"]:
            if _is(value, option["type"]):
                return _error(option, value, definitions)
        kinds = " or ".join(_a(option["type"]) for option in schema["oneOf"])
        return "", f"must be {kinds}, not {type(value).__name__}"
    kind = schema["type"]
    if not _is(value, kind):
        return "", f"must be {_a(kind)}, not {type(value).__name__}"
    if kind == "integer" and value < schema.get("minimum", value):
        return "", f"must be at least {schema['minimum']}"
    if kind == "string" and "pattern" in schema and not re.fullmatch(schema["pattern"], value):
        return "", f"must match {schema['pattern']}"
    if kind == "object":
        missing = [key for key in schema["required"] if key not in value]
        if missing:
            return "", f"needs '{missing[0]}'"
        for key, option in schema["properties"].items():
            error = _error(option, value[key], definitions) if key in value else None
            if error is not None:
                return f".{key}{error[0]}", error[1]
    if kind == "array":
        low, high = schema.get("minItems", 0), schema.get("maxItems", len(value))
        if not low <= len(value) <= high:
            return "", f"has {len(value)} entries, not {low}" + (f" to {high}" if high > low else "")
        option = schema["items"]
        if _meet_at_once(option, value):
            return None
        for i, entry in enumerate(value):
            error = _error(option, entry, definitions)
            if error is not None:
                return f"[{i}]{error[0]}", error[1]
    return None


def _meet_at_once(option: dict, entries: list) -> bool:
    """True when every entry meets `option`, an integer schema or an array
    of integers, as decided in a few passes over all the entries at
    once; False when they must be checked one by one, to name a fault.
    Any other schema costs two dict lookups."""
    if option.get("type") == "array" and option["items"].get("type") == "integer":
        if not set(map(type, entries)) <= {list}:
            return False
        lengths = set(map(len, entries))
        short, long = min(lengths, default=0), max(lengths, default=0)
        if short < option.get("minItems", 0) or long > option.get("maxItems", long):
            return False
        option, entries = option["items"], list(chain.from_iterable(entries))
    if option.get("type") != "integer" or not set(map(type, entries)) <= {int}:
        return False
    return "minimum" not in option or not entries or min(entries) >= option["minimum"]
