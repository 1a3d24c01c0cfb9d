"""JSON schemas for every input type: the input contract.

`--schema <name>` prints them, and every reader of a JSON document calls
`check(name, document)` before its constructor.  So a document is read
exactly when it satisfies its schema and the constructor's semantic
checks (ragged rows, primes, nested facets, minimality, sizes).
`check_property` checks one property of a document alone, as
`positivity` does for the `n` it reads after building the polytopes.

`check` decides an array in a few passes over all its entries at once
when its items are one of these shapes, and walks the entries one by one
only to name the first fault:
- integers, with or without a minimum;
- strings, with or without a pattern;
- a `oneOf` of those, such as a rational (an integer or a string of the
  rational pattern): each entry's type picks its alternative;
- arrays of any of these shapes, to any depth, with or without
  `minItems` and `maxItems`;
- objects whose properties are all required, each of any of these
  shapes, such as the polytopes of a `polytope_tuple`.
So checking a clean document costs one `_error` call for the document
and one per property of it, however long its arrays are.

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
from functools import cache
from itertools import chain
from operator import itemgetter

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


def check_property(name: str, document: dict, key: str) -> None:
    """`check` of the property `key` of a document alone, with the
    message `check` of the whole document gives when its other
    properties meet SCHEMAS[name]."""
    schema = SCHEMAS[name]
    error = _error(schema["properties"][key], document[key], schema.get("definitions"))
    if error is not None:
        path, message = error
        raise ValidationError(f"{key}{path} {message}")


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
    if kind == "string" and "pattern" in schema and not _fullmatch(schema["pattern"])(value):
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
        if _meet_at_once(option, value, definitions):
            return None
        for i, entry in enumerate(value):
            error = _error(option, entry, definitions)
            if error is not None:
                return f"[{i}]{error[0]}", error[1]
    return None


@cache
def _fullmatch(pattern: str):
    """The `fullmatch` of the compiled pattern, compiled once per process."""
    return re.compile(pattern).fullmatch


def _meet_at_once(option: dict, entries: list, definitions: dict | None) -> bool:
    """True when every entry meets `option`, as decided in a few passes
    over all the entries at once; False when they must be checked one by
    one, to name a fault.  Decided at once: integers (types and the
    minimum), strings (types and one `fullmatch` of the pattern each), a
    `oneOf` of them, whose alternatives differ in type, each entry meeting
    the alternative of its type, and, to any depth, arrays of these
    (types, lengths where they are bounded, then the entries of all of
    them as one list) and
    objects whose properties are all required (types and keys, then the
    values of each property as one list).  Any other shape is left to
    the walk, for the cost of a few lookups."""
    if "$ref" in option:
        option = definitions[option["$ref"].rpartition("/")[2]]
    kind = option.get("type")
    if kind == "array":
        if not set(map(type, entries)) <= {list}:
            return False
        if "minItems" in option or "maxItems" in option:
            lengths = set(map(len, entries)) or {0}
            low, high = min(lengths), max(lengths)
            if low < option.get("minItems", 0) or high > option.get("maxItems", high):
                return False
        return _meet_at_once(option["items"], list(chain.from_iterable(entries)), definitions)
    if kind == "object":
        required = set(option["required"])
        if not (set(map(type, entries)) <= {dict} and option["properties"].keys() <= required):
            return False
        return all(map(required.issubset, entries)) and all(
            _meet_at_once(value, list(map(itemgetter(key), entries)), definitions)
            for key, value in option["properties"].items()
        )
    kinds = set(map(type, entries))
    mixed = len(kinds) > 1
    for alternative in option.get("oneOf", (option,)):
        kind = _TYPES.get(alternative.get("type"))
        if kind in kinds and kind in (int, str):
            kinds.remove(kind)
            same = [x for x in entries if type(x) is kind] if mixed else entries
            if "minimum" in alternative and min(same) < alternative["minimum"]:
                return False
            if "pattern" in alternative and not all(map(_fullmatch(alternative["pattern"]), same)):
                return False
    return not kinds  # every type met its alternative
