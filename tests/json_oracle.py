"""The CLI's JSON writer before supports were written from their slice
DAG and polynomials from their columns, the byte oracle for `cli._emit`.

Every `Support` and every `IntPolynomial` in the document is read as its
`to_json_dict`, and the whole document goes through one json.dumps with
sorted keys and no spaces, plus a newline.
"""

import json

from multidegree import IntPolynomial, Support


def _plain(value):
    if isinstance(value, (IntPolynomial, Support)):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def oracle_bytes(document) -> str:
    return json.dumps(_plain(document), sort_keys=True, separators=(",", ":")) + "\n"
