"""End-to-end CLI behavior: dispatch, JSON round trips, determinism,
and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree import Permutation, Support, cli, errors, hilbert, poly, polymatroid, schubert_polynomial
from multidegree.cli import build_parser, main
from multidegree.flagmoduli import flag_comparator_report, flag_msupp

from json_oracle import oracle_bytes
from kpoly_oracle import kpolynomial_oracle
from mconvex_oracle import exchange_report
from msupp_oracle import slice_points
from pretty_oracle import pretty_oracle
from test_hilbert import random_ideal
from test_polymatroid import rank_tables  # valid rank tables on at most 8 elements

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

OCTAHEDRON = {
    "nverts": 6,
    "facets": [
        [1, 2, 3], [1, 2, 6], [1, 3, 5], [1, 5, 6],
        [2, 3, 4], [2, 4, 6], [3, 4, 5], [4, 5, 6],
    ],
}
INTRO_SUBSPACES = {
    "ambient": 3,
    "field": "Q",
    "subspaces": [
        [["1", "0", "0"]],
        [["1", "0", "0"], ["0", "1", "0"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    ],
}

# sha256 of the stdout bytes of `flag --p <p>` that the comparator printed
# when it tested every point against the literal inequality system
FLAG_DIGESTS = [
    (1, "ba850b36f80f673747f08f0a39936572d62bfade259e7cee7f8f1649639bb0b9"),
    (2, "ac02af6bac30145be48946c37b8ac0f2fc705bdfe407cc13eca0dab203099f21"),
    (3, "4b704cc7cd362cac0a2c6f29a09172578f7fe5cc1c5f424d9f262eb40d30e5d9"),
    (4, "7ba900e61e73875af3e7defb31ed7f58dffa96db156e206aaae7a9ee7a3f3a5c"),
    (5, "28e5fefebc3d2fabb2a2fd9eef501518eb32edb6df8c727be8833cd633dc44b0"),
    (6, "99d40e290376087fed16ca54f7c5311b6a787e87f44f17486c98a0f07e8dab08"),
    (7, "84074ce0927a223311d1b250e00c2b149e96b34b1123fa4800d3162780be0d4b"),
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


class TestSubcommands:
    def test_schubert_longest(self, capsys):
        doc = run_json(["schubert", "--perm", "3,2,1"], capsys)
        assert doc["polynomial"] == {
            "nvars": 3,
            "terms": [{"coef": "1", "exp": [2, 1, 0]}],
        }
        assert doc["pretty"] == "t1^2*t2"
        assert doc["support"]["points"] == [[0, 1, 2]]
        assert doc["agrees"] is True

    def test_schubert_exponent_convention(self, capsys):
        doc = run_json(
            ["schubert", "--perm", "3,2,1", "--exponent-coordinates"], capsys
        )
        assert doc["support"]["points"] == [[2, 1, 0]]
        assert doc["support_convention"] == "exponent"

    def test_theta_anchor(self, capsys):
        doc = run_json(["theta", "--perm", "4,2,5,3,1", "--subset", "2,3"], capsys)
        assert doc["theta"] == 3
        assert doc["length"] == 7

    def test_theta_from_diagram_json(self, capsys):
        diagram = {"p": 2, "cells": [[2, 1]]}
        doc = run_json(
            ["theta", "--json", json.dumps(diagram), "--subset", "1"], capsys
        )
        assert doc["theta"] == 1

    def test_msupp_rank_intro(self, capsys):
        doc = run_json(
            ["msupp-rank", "--json", '{"p":3,"values":[0,1,2,2,3,3,3,3]}'],
            capsys,
        )
        assert doc["count"] == 5
        assert doc["support"]["points"] == [
            [0, 0, 3], [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 1, 1],
        ]

    def test_msupp_linear_intro(self, capsys):
        doc = run_json(["msupp-linear", "--json", json.dumps(INTRO_SUBSPACES)], capsys)
        assert doc["rank_function"]["values"] == [0, 1, 2, 2, 3, 3, 3, 3]
        assert doc["count"] == 5

    def test_mconvex(self, capsys):
        support = {"p": 2, "points": [[1, 2], [2, 1]]}
        doc = run_json(["mconvex", "--json", json.dumps(support)], capsys)
        assert doc == {"mconvex": True, "witness": None}

    def test_kpoly(self, capsys):
        ideal = {"nvars": 2, "p": 2, "degrees": [[1, 0], [0, 1]], "generators": [[1, 1]]}
        doc = run_json(["kpoly", "--json", json.dumps(ideal)], capsys)
        assert doc["pretty"] == "1 - t1*t2"

    def test_multidegree_warns(self, capsys):
        ideal = {"nvars": 2, "p": 2, "degrees": [[1, 0], [0, 1]], "generators": [[1, 1]]}
        code, out, err = run_cli(["multidegree", "--json", json.dumps(ideal)], capsys)
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["pretty"] == "t2 + t1"

    def test_sr_ideal_and_facet_support(self, capsys):
        doc = run_json(["sr-ideal", "--json", json.dumps(OCTAHEDRON)], capsys)
        assert len(doc["generators"]) == 3
        doc = run_json(["facet-support", "--json", json.dumps(OCTAHEDRON)], capsys)
        assert doc["count"] == 8

    def test_mixedvol_and_positivity(self, capsys):
        body = {
            "polytopes": [
                {"d": 2, "vertices": [["0", "0"], ["1", "0"]]},
                {"d": 2, "vertices": [["0", "0"], ["0", "1"]]},
            ]
        }
        doc = run_json(["mixedvol", "--json", json.dumps(body)], capsys)
        assert {"n": [1, 1], "v": "1/2"} in doc["entries"]
        body["n"] = [1, 1]
        doc = run_json(["positivity", "--json", json.dumps(body)], capsys)
        assert doc == {"n": [1, 1], "positive": True, "segments": True}

    def test_flag_report(self, capsys):
        doc = run_json(["flag", "--p", "2"], capsys)
        assert doc["support"]["points"] == [[1, 2], [2, 1]]
        assert doc["comparator"]["agree"] is False

    @pytest.mark.parametrize("p, digest", FLAG_DIGESTS)
    def test_flag_pinned_bytes(self, capsys, p, digest):
        code, out, _err = run_cli(["flag", "--p", str(p)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_m0n(self, capsys):
        doc = run_json(["m0n", "--p", "4"], capsys)
        assert doc["count"] == 14
        code, out, _err = run_cli(["m0n", "--p", "4", "--count-only"], capsys)
        assert code == 0
        assert out == "14\n"

    def test_m0n_count_only_builds_no_point(self, capsys):
        # 208,012 points of 12 coordinates; listing them peaked near 30 MB
        tracemalloc.start()
        try:
            code, out, _err = run_cli(["m0n", "--p", "12", "--count-only"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "208012\n")
        assert peak < 2 * 2**20

    def test_schema(self, capsys):
        doc = run_json(["--schema", "rank_function"], capsys)
        assert doc["title"] == "rank_function"


class TestRoundTrips:
    def test_sr_ideal_output_feeds_kpoly(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        code, out, _ = run_cli(
            ["sr-ideal", "--json", json.dumps(OCTAHEDRON), "--output", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text() == out
        doc = run_json(["kpoly", "--input", str(path)], capsys)
        assert doc["pretty"].startswith("1 -")

    def test_support_output_feeds_mconvex(self, capsys):
        doc = run_json(
            ["msupp-rank", "--json", '{"p":3,"values":[0,1,2,2,3,3,3,3]}'], capsys
        )
        doc2 = run_json(["mconvex", "--json", json.dumps(doc["support"])], capsys)
        assert doc2["mconvex"] is True


def run_quietly(argv):
    """`main(argv)` with stdout captured, for tests that capsys cannot serve."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestSupportBytes:
    """Supports are written from their slice DAG; the bytes must be those
    of the writer that dumped every support's `to_json_dict`."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rank_tables())
    def test_msupp_rank_matches_the_oracle(self, r):
        code, out = run_quietly(["msupp-rank", "--json", json.dumps(r.to_json_dict())])
        plain = Support(r.p, slice_points(r))
        document = {"support": plain, "count": len(plain), "weight": plain.weight}
        assert (code, out) == (0, oracle_bytes(document))

    @pytest.mark.parametrize(
        "values, expected",
        [
            # p = 1: a plain support, no DAG
            ([0, 4], '{"count":1,"support":{"p":1,"points":[[4]]},"weight":4}\n'),
            # p = 2: the DAG's root is the triple (low, high, weight) itself
            ([0, 1, 2, 2], '{"count":2,"support":{"p":2,"points":[[0,2],[1,1]]},"weight":2}\n'),
        ],
    )
    def test_smallest_ground_sets(self, capsys, values, expected):
        table = {"p": len(values).bit_length() - 1, "values": values}
        code, out, _err = run_cli(["msupp-rank", "--json", json.dumps(table)], capsys)
        assert (code, out) == (0, expected)
        plain = Support(table["p"], json.loads(out)["support"]["points"])
        assert out == oracle_bytes({"support": plain, "count": len(plain), "weight": plain.weight})

    @pytest.mark.parametrize(
        "argv",
        [
            ["m0n", "--p", "6"],
            ["flag", "--p", "4"],
            ["msupp-rank", "--json", '{"p":3,"values":[0,1,2,2,3,3,3,3]}'],
            ["msupp-linear", "--json", json.dumps(INTRO_SUBSPACES)],
            ["schubert", "--perm", "4,2,5,3,1"],
            ["schubert", "--perm", "4,2,5,3,1", "--exponent-coordinates"],
            ["facet-support", "--json", json.dumps(OCTAHEDRON)],
        ],
        ids=lambda argv: " ".join(argv[:2]) + (" exp" if "--exponent-coordinates" in argv else ""),
    )
    def test_every_support_command_and_its_output_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out.json"
        code, out, _err = run_cli([*argv, "--output", str(path)], capsys)
        assert code == 0
        # the old writer gives these bytes for the values printed
        assert out == oracle_bytes(json.loads(out))
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_schubert_agrees_as_the_printed_dicts_did(self, p):
        for one_line in permutations(range(1, p + 1)):
            perm = ",".join(map(str, one_line))
            for extra in ([], ["--exponent-coordinates"]):
                code, out = run_quietly(["schubert", "--perm", perm, *extra])
                doc = json.loads(out)
                assert code == 0
                assert doc["agrees"] is (doc["support"] == doc["theta_polytope_support"]) is True


def field_text(out, key):
    """The JSON text of the value of `key` in the document `out`, as written."""
    start = out.index(f'"{key}":') + len(key) + 3
    _value, end = json.JSONDecoder().raw_decode(out, start)
    return out[start:end]


class TestSupportTextOnce:
    """`flag` and an agreeing `schubert` write each support's points text
    once and put it in both fields that print it."""

    @pytest.mark.parametrize("p", range(1, 8))
    def test_flag_comparator_matches_the_report(self, p):
        code, out = run_quietly(["flag", "--p", str(p)])
        assert code == 0
        assert json.loads(out)["comparator"] == flag_comparator_report(flag_msupp(p))

    @pytest.mark.parametrize(
        "argv, digest",
        [
            *(pytest.param(["flag", "--p", str(p)], digest, id=f"flag-{p}") for p, digest in FLAG_DIGESTS),
            pytest.param(
                ["m0n", "--p", "10"],
                "73e73f4a97e16027f2946be170c4d851206c9ec6a1afd5556555e744a6a1f04f",
                id="m0n-10",
            ),
        ],
    )
    def test_no_point_tuple_is_built(self, monkeypatch, argv, digest):
        def refuse(_support):
            raise AssertionError("the output path read Support.points")

        monkeypatch.setattr(Support, "points", property(refuse))
        code, out = run_quietly(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_schubert_writes_both_supports_from_one_text(self, n):
        rng = random.Random(n)
        one_lines = [tuple(range(n, 0, -1)), *(rng.sample(range(1, n + 1), n) for _ in range(20))]
        for one_line in one_lines:
            for extra in ([], ["--exponent-coordinates"]):
                code, out = run_quietly(["schubert", "--perm", ",".join(map(str, one_line)), *extra])
                assert code == 0
                assert json.loads(out)["agrees"] is True
                assert field_text(out, "support") == field_text(out, "theta_polytope_support")
                assert out == oracle_bytes(json.loads(out))


def polynomial_ideals():
    """The ideal fixtures, the icosahedron's Stanley-Reisner ideal and
    seeded random ideals, as (id, ideal document) pairs."""
    complex_ = json.loads((FIXTURES / "icosahedron.json").read_text())
    icosahedron = hilbert.SimplicialComplex.from_json_dict(complex_)
    rng = random.Random(5)
    return [
        ("octahedron-pairs", json.loads((FIXTURES / "octahedron_sr_ideal_pairs.json").read_text())),
        ("icosahedron", hilbert.stanley_reisner_ideal(icosahedron).to_json_dict()),
        *((f"random-{k}", random_ideal(rng, max_vars=7).to_json_dict()) for k in range(6)),
    ]


class TestPolynomialBytes:
    """Polynomials are written from their packed exponent keys; the bytes
    must be those of the writer that dumped `to_json_dict` and the old
    `pretty`."""

    @staticmethod
    def assert_old_bytes(out, poly):
        document = json.loads(out)
        document.update(polynomial=poly, pretty=pretty_oracle(poly))
        assert out == oracle_bytes(document)

    @pytest.mark.parametrize("command", ["kpoly", "multidegree"])
    @pytest.mark.parametrize("ideal", polynomial_ideals(), ids=lambda pair: pair[0])
    def test_ideal_commands(self, capsys, command, ideal):
        _name, document = ideal
        code, out, _err = run_cli([command, "--json", json.dumps(document)], capsys)
        assert code == 0
        ideal = hilbert.MonomialIdeal.from_json_dict(document)
        compute = hilbert.kpolynomial if command == "kpoly" else hilbert.multidegree_polynomial
        self.assert_old_bytes(out, compute(ideal))

    # 42531 is the permutation of the Rothe diagram fixture
    @pytest.mark.parametrize(
        "one_line",
        [(4, 2, 5, 3, 1), *random.Random(5).sample(list(permutations(range(1, 7))), 4)],
        ids=lambda one_line: "".join(map(str, one_line)),
    )
    def test_schubert(self, capsys, one_line):
        code, out, _err = run_cli(["schubert", "--perm", ",".join(map(str, one_line))], capsys)
        assert code == 0
        self.assert_old_bytes(out, schubert_polynomial(Permutation(one_line)))


class TestKpolyReadsPackedKeys:
    """`kpoly` writes the packed K-polynomial as it stands: with the
    unpacking patched to raise, it still prints the oracle's bytes, and
    `len`, which the benchmark tracer counts terms with, still works."""

    @staticmethod
    def ideals():
        """The ideal fixtures, the Stanley-Reisner ideals of the complex
        fixtures in both gradings, and those of seeded random complexes."""
        documents = [json.loads((FIXTURES / "octahedron_sr_ideal_pairs.json").read_text())]
        complexes = [
            hilbert.SimplicialComplex.from_json_dict(json.loads((FIXTURES / name).read_text()))
            for name in ("hollow_triangle.json", "octahedron.json", "icosahedron.json")
        ]
        rng = random.Random(31)
        for _ in range(12):
            nverts = rng.randint(4, 10)
            facets = [rng.sample(range(1, nverts + 1), 3) for _ in range(rng.randint(2, 12))]
            facets = [f for f in facets if not any(set(f) < set(g) for g in facets)]
            complexes.append(hilbert.SimplicialComplex(nverts, facets))
        for complex_ in complexes:
            for pairs in (1, 2):
                documents.append(hilbert.stanley_reisner_ideal(complex_, pairs).to_json_dict())
        return documents

    def test_no_exponent_tuple_is_built(self, monkeypatch):
        def refuse(_bases, _keys):
            raise AssertionError("the kpoly path unpacked an exponent tuple")

        # the oracle's arithmetic and writer read exponent tuples, so its
        # bytes are taken before unpacking is refused
        cases, routes = [], set()
        for document in self.ideals():
            ideal = hilbert.MonomialIdeal.from_json_dict(document)
            expected = kpolynomial_oracle(ideal)[0]
            text = oracle_bytes({"polynomial": expected, "pretty": pretty_oracle(expected)})
            cases.append((document, ideal, text, len(expected)))
            gens = ideal.generators
            used = {v for g in gens for v, e in enumerate(g) if e}
            routes.add(len(used) <= len(gens))
        assert routes == {True, False}  # the face table and the recursion
        monkeypatch.setattr(poly, "_unpack", refuse)
        for document, ideal, text, terms in cases:
            code, out = run_quietly(["kpoly", "--json", json.dumps(document)])
            assert code == 0
            assert out == text
            assert len(hilbert.kpolynomial(ideal)) == terms


class TestDeterminismAndErrors:
    def test_identical_bytes(self, capsys):
        _code, out1, _ = run_cli(["schubert", "--perm", "4,2,5,3,1"], capsys)
        _code, out2, _ = run_cli(["schubert", "--perm", "4,2,5,3,1"], capsys)
        assert out1 == out2

    def test_malformed_json_exit_2(self, capsys):
        code, out, err = run_cli(["mconvex", "--json", "{not json"], capsys)
        assert code == 2
        assert out == ""
        assert "line 1" in err

    @pytest.mark.parametrize("via", ["--json", "--input"])
    @pytest.mark.parametrize(
        "command", [name for name, command in cli._COMMANDS.items() if "--json" in command.options]
    )
    def test_deeply_nested_input_exit_2(self, capsys, monkeypatch, command, via):
        depth = 50_000  # arrays and objects in turn, 100,000 deep
        text = '[{"a":' * depth + "1" + "}]" * depth
        argv = [command, "--subset", "1"] if command == "theta" else [command]
        if via == "--json":
            argv += ["--json", text]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            argv += ["--input", "-"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        origin = "--json" if via == "--json" else "stdin"
        assert err == json.dumps({"error": f"JSON from {origin} is nested too deeply"}) + "\n"

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "support.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(["mconvex", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        }

    def test_non_utf8_strict_stdin_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multidegree.cli", "mconvex", "--input", "-"],
            input=b"\xff\xfe{}",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert json.loads(proc.stderr) == {
            "error": "cannot read stdin: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        }

    def test_invalid_rank_table_exit_2(self, capsys):
        code, out, err = run_cli(
            ["msupp-rank", "--json", '{"p":2,"values":[0,1,1,3]}'], capsys
        )
        assert code == 2
        assert "submodularity" in err

    def test_unsupported_dimension_exit_3(self, capsys):
        body = {"polytopes": [{"d": 4, "vertices": [["0", "0", "0", "0"]]}]}
        code, _out, err = run_cli(["mixedvol", "--json", json.dumps(body)], capsys)
        assert code == 3
        assert "dimension" in err

    def test_multidegree_beyond_20_variables(self, capsys):
        # the codimension is read off K(1 - t), not from the capped
        # dimension search
        ideal = {
            "nvars": 21,
            "p": 1,
            "degrees": [[1]] * 21,
            "generators": [[1, 1] + [0] * 19],
        }
        doc = run_json(["multidegree", "--json", json.dumps(ideal)], capsys)
        assert doc["codimension"] == 1
        assert doc["pretty"] == "2*t1"

    @pytest.mark.parametrize(
        "ideal, message",
        [
            # 17 disjoint edges: 2^17 minimum primes
            (
                {
                    "nvars": 34,
                    "p": 34,
                    "degrees": [[int(j == i) for j in range(34)] for i in range(34)],
                    "generators": [
                        [int(v in (2 * i, 2 * i + 1)) for v in range(34)] for i in range(17)
                    ],
                },
                "minimum-prime search",
            ),
            # x^(10^7): a standard-monomial box of 10^7 cells
            (
                {"nvars": 1, "p": 1, "degrees": [[1]], "generators": [[10**7]]},
                "standard-monomial count",
            ),
        ],
        ids=["cover-search", "monomial-box"],
    )
    def test_multidegree_budget_exit_3(self, capsys, ideal, message):
        code, out, err = run_cli(["multidegree", "--json", json.dumps(ideal)], capsys)
        assert code == 3
        assert out == ""
        assert message in json.loads(err.splitlines()[-1])["error"]

    def test_minimal_nonface_budget_exit_3(self, capsys):
        # 3,000 degree rows of 3,000 entries; refused before any face is listed
        complex_ = {"nverts": 3000, "facets": [[1]]}
        start = time.perf_counter()
        code, out, err = run_cli(["sr-ideal", "--json", json.dumps(complex_)], capsys)
        assert time.perf_counter() - start < 3.0
        assert code == 3
        assert out == ""
        assert "Stanley-Reisner ideal entries: 9000000 exceeds" in json.loads(err)["error"]

    def test_many_facets_nonface_work_is_bounded(self, capsys):
        # 1,999 edges on 100 vertices: the face set holds 2,100 faces, and
        # the 23,653 minimal non-faces are refused as generator rows
        edges = islice(combinations(range(1, 101), 2), 1999)
        complex_ = {"nverts": 100, "facets": [list(e) for e in edges]}
        start = time.perf_counter()
        code, out, err = run_cli(["sr-ideal", "--json", json.dumps(complex_)], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert out == ""
        assert "Stanley-Reisner ideal entries: 2375300 exceeds" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, amount",
        [
            # 44,850 non-faces of 300 entries each, on top of 300 degrees of 300
            (["--json", json.dumps({"nverts": 300, "facets": [[v] for v in range(1, 301)]})], 13545000),
            # a grading of 6 * 60000 degrees of 6 entries each
            (["--input", str(FIXTURES / "octahedron.json"), "--vars-per-vertex", "60000"], 2160000),
        ],
        ids=["isolated-vertices", "octahedron-wide"],
    )
    def test_sr_ideal_entries_budget_exit_3(self, capsys, argv, amount):
        start = time.perf_counter()
        code, out, err = run_cli(["sr-ideal", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert f"Stanley-Reisner ideal entries: {amount} exceeds" in json.loads(err)["error"]

    def test_sr_ideal_past_the_generator_pair_budget(self, capsys):
        # 2,415 minimal non-faces: C(2415, 2) = 2,914,905 pairs, which the
        # public MonomialIdeal constructor refuses to check
        isolated = {"nverts": 70, "facets": [[v] for v in range(1, 71)]}
        doc = run_json(["sr-ideal", "--json", json.dumps(isolated)], capsys)
        assert len(doc["generators"]) == 2415
        assert all(sum(g) == 2 for g in doc["generators"])

    def test_sr_ideal_pairs_keep_the_icosahedron_multidegree(self, capsys):
        path = str(FIXTURES / "icosahedron.json")
        single, pairs = (run_json(["sr-ideal", "--input", path, "--vars-per-vertex", v], capsys) for v in "12")
        assert pairs["nvars"] == 2 * single["nvars"] == 24
        assert run_json(["multidegree", "--json", json.dumps(pairs)], capsys) == run_json(
            ["multidegree", "--json", json.dumps(single)], capsys
        )

    def test_nested_facet_budget_exit_3(self, capsys):
        # 4,498,500 facet pairs; refused before any is compared
        complex_ = {"nverts": 3000, "facets": [[v] for v in range(1, 3001)]}
        start = time.perf_counter()
        code, out, err = run_cli(["facet-support", "--json", json.dumps(complex_)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "nested-facet check over facet pairs: 4498500 exceeds" in json.loads(err)["error"]

    def test_invalid_rank_table_validated_once(self, capsys, monkeypatch):
        # the exit-2 report is the one msupp_from_rank computed, byte for byte
        calls = []
        validate = polymatroid.validate_rank_function
        monkeypatch.setattr(
            polymatroid, "validate_rank_function", lambda r: calls.append(r) or validate(r)
        )
        table = {"p": 2, "values": [0, 1, 1, 3]}
        code, out, err = run_cli(["msupp-rank", "--json", json.dumps(table)], capsys)
        assert code == 2
        assert out == ""
        report = validate(polymatroid.RankFunction.from_json_dict(table))
        assert err == json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
        assert len(calls) == 1
        run_json(["msupp-rank", "--json", '{"p":3,"values":[0,1,2,2,3,3,3,3]}'], capsys)
        assert len(calls) == 2

    @pytest.mark.parametrize("p", [8, 11])
    def test_rank_report_budget_exit_3(self, capsys, monkeypatch, p):
        # a random table with entries 0..3 fails nearly everywhere (1,167
        # violations at p = 8, 16,050 at p = 11); the failures are charged
        # to the budget before a single violation is built, and a budget
        # of one fewer than their number refuses the table
        rng = random.Random(p)
        table = {"p": p, "values": [rng.randint(0, 3) for _ in range(1 << p)]}
        argv = ["msupp-rank", "--json", json.dumps(table)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        count = len(json.loads(err)["violations"]) - (table["values"][0] != 0)
        built = []
        violation = polymatroid.RankViolation
        monkeypatch.setattr(polymatroid, "RankViolation", lambda *a: built.append(a) or violation(*a))
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", count - 1)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, built) == (3, "", [])
        message = json.loads(err)["error"]
        assert message.startswith("rank violations: ")
        assert message.endswith(f" exceeds the budget of {count - 1}")
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", count)
        code, out, again = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert len(json.loads(again)["violations"]) == count + (table["values"][0] != 0)

    def test_mconvex_beyond_ground_set_cap(self, capsys):
        # p = 21 has no rank table, and the exchange test needs none
        unit = [[int(j == i) for j in range(21)] for i in range(21)]
        doc = run_json(["mconvex", "--json", json.dumps({"p": 21, "points": unit})], capsys)
        assert doc == {"mconvex": True, "witness": None}
        pair = [[1, 1] + [0] * 19, [0, 0, 1, 1] + [0] * 17]
        doc = run_json(["mconvex", "--json", json.dumps({"p": 21, "points": pair})], capsys)
        assert doc["mconvex"] is False
        assert doc == exchange_report(Support(21, pair)).to_json_dict()

    def test_output_into_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(["m0n", "--p", "3", "--output", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert "cannot write" in json.loads(err)["error"]
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", ["m0n", "flag"])
    def test_ground_set_cap_before_the_table(self, capsys, command):
        # the cap is checked before a 2^p table is built, so this is quick
        start = time.perf_counter()
        code, out, err = run_cli([command, "--p", "40"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "exceeds the supported maximum" in json.loads(err)["error"]

    def test_missing_subcommand_exit_2(self, capsys):
        code, out, _err = run_cli([], capsys)
        assert code == 2
        assert out == ""

    def test_bad_permutation_exit_2(self, capsys):
        code, _out, _err = run_cli(["schubert", "--perm", "1,1,2"], capsys)
        assert code == 2

    # only a check on the JSON type refuses these: int() and Fraction()
    # would accept the floats, the booleans and "1e5", and would crash on
    # the rest
    @pytest.mark.parametrize(
        "command, document",
        [
            ("msupp-rank", {"p": "x", "values": [0, 1]}),
            ("msupp-rank", {"p": 1.0, "values": [0, 1]}),
            ("msupp-rank", {"p": 1, "values": [0, 1.5]}),
            ("msupp-rank", {"p": 1, "values": [0, True]}),
            ("msupp-rank", {"p": 1, "values": 2}),
            ("mconvex", {"p": 2, "points": [[1, "a"]]}),
            ("mconvex", {"p": 2, "points": [[1, 0.5]]}),
            ("mconvex", {"p": 2, "points": [[1, 1], [2, 0.0]]}),
            ("mconvex", {"p": 2, "points": 3}),
            ("mconvex", {"p": 2, "points": [7]}),
            ("mconvex", {"p": "2", "points": [[1, 1]]}),
            ("msupp-linear", {"ambient": 1, "subspaces": [[["1/0"]]]}),
            ("msupp-linear", {"ambient": 1, "subspaces": [[[0.1]]]}),
            ("msupp-linear", {"ambient": 1, "subspaces": [[["1e5"]]]}),
            ("msupp-linear", {"ambient": "1", "subspaces": [[["1"]]]}),
            ("msupp-linear", {"ambient": 1, "subspaces": [[["1"]]], "field": 5}),
            ("mixedvol", {"polytopes": [{"d": 1, "vertices": [["2/0"]]}]}),
            ("mixedvol", {"polytopes": [{"d": 1, "vertices": [[0.1]]}]}),
            ("mixedvol", {"polytopes": [{"d": 1, "vertices": [[True]]}]}),
            ("mixedvol", {"polytopes": [{"d": 1, "vertices": [[" 1"]]}]}),
            ("mixedvol", {"polytopes": [{"d": 1.0, "vertices": [[1]]}]}),
            ("positivity", {"polytopes": [{"d": 1, "vertices": [[0], [1]]}], "n": ["x"]}),
            ("sr-ideal", {"nverts": "x", "facets": [[1]]}),
            ("sr-ideal", {"nverts": 2, "facets": 3}),
            ("kpoly", {"nvars": 1, "p": 1, "degrees": [[1]], "generators": 5}),
            ("kpoly", {"nvars": 1, "p": 1, "degrees": [[1]], "generators": [[1.5]]}),
            ("kpoly", {"nvars": 1, "p": 1, "degrees": [[1.0]], "generators": [[1]]}),
            ("multidegree", {"nvars": 1, "p": 1, "degrees": [[True]], "generators": [[1]]}),
            ("kpoly", {"nvars": "1", "p": 1, "degrees": [[1]], "generators": [[1]]}),
            ("schubert", {"one_line": ["a", 2]}),
            ("schubert", {"one_line": 5}),
            ("schubert", {"one_line": [2, 1], "p": "x"}),
            ("schubert", {"one_line": [2.0, 1]}),
            ("theta --subset 1", {"p": "x", "cells": []}),
            ("theta --subset 1", {"p": 2, "cells": [[1]]}),
            ("theta --subset 1", {"p": 2, "cells": 5}),
            ("theta --subset 1", {"p": 2.5, "cells": [[1, 1]]}),
            ("theta --subset 1", {"p": 2, "cells": [[1, 1, 1]]}),
            # an integer, but a negative grid size
            ("theta --subset=", {"p": -3, "cells": []}),
            ("mixedvol", {"polytopes": 5}),
            ("positivity", {"polytopes": 5, "n": [1]}),
            # a complex with no facets
            ("sr-ideal", {"nverts": 2, "facets": []}),
            ("facet-support", {"nverts": 2, "facets": []}),
        ],
    )
    def test_non_integer_json_exit_2(self, capsys, command, document):
        code, out, err = run_cli([*command.split(), "--json", json.dumps(document)], capsys)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    # Python reads at most 4,300 digits into an int
    @pytest.mark.parametrize(
        "command, text",
        [
            ("msupp-rank", '{"p":1,"values":[0,' + "9" * 5000 + "]}"),
            ("mixedvol", '{"polytopes":[{"d":1,"vertices":[["' + "9" * 5000 + '"]]}]}'),
        ],
        ids=["json-integer", "rational-string"],
    )
    def test_five_thousand_digits_exit_2(self, capsys, command, text):
        code, out, err = run_cli([command, "--json", text], capsys)
        assert code == 2
        assert out == ""
        assert "digits" in json.loads(err)["error"]

    def test_rank_report_past_the_digit_limit_exit_2(self, capsys):
        # each entry is read, but the witness sum r({1,2}) + r({}) has 4,301 digits
        big = "9" * 4300
        document = '{"p":2,"values":[%s,0,0,%s]}' % (big, big)
        code, out, err = run_cli(["msupp-rank", "--json", document], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "digits" in json.loads(err)["error"]

    def test_mixed_volume_past_the_digit_limit_exit_3(self, capsys):
        # the area 1/(2 q^2) of this triangle has about 8,000 digits
        q = "1/" + "7" * 4000
        body = {"polytopes": [{"d": 2, "vertices": [["0", "0"], [q, "0"], ["0", q]]}]}
        code, out, err = run_cli(["mixedvol", "--json", json.dumps(body)], capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "digits" in json.loads(err)["error"]

    def test_multidegree_past_the_digit_limit_exit_3(self, capsys):
        # C = d1 d2 d3 t^3 for (x1, x2, x3): 1,501-digit degrees give a
        # 4,501-digit coefficient, more than str() writes
        degrees = [[int(str(k) * 1501)] for k in (7, 8, 9)]
        ideal = {"nvars": 3, "p": 1, "degrees": degrees, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        code, out, err = run_cli(["multidegree", "--json", json.dumps(ideal)], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("warning:")
        assert len(lines) == 2 and "digits" in json.loads(lines[1])["error"]

    def test_support_budget_exit_3(self, capsys):
        # n_1 + n_2 = 10^9: a billion points in a 60-byte document
        n = 10**9
        start = time.perf_counter()
        code, out, err = run_cli(["msupp-rank", "--json", json.dumps({"p": 2, "values": [0, n, n, n]})], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "budget" in json.loads(err)["error"]

    def test_wide_packed_rank_table_budget_exit_3(self, capsys):
        # one 4,000-digit entry in the m0n table at p = 16 needs 1,662-byte
        # fields, 2^16 of them: refused by their bytes before any is packed
        values = [mask.bit_length() for mask in range(1 << 16)]
        values[5] = int("9" * 4000)
        document = json.dumps({"p": 16, "values": values})
        start = time.perf_counter()
        code, out, err = run_cli(["msupp-rank", "--json", document], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "bytes of the packed rank table: 108920832 exceeds the budget of 2000000"
        }

    @pytest.mark.parametrize("span", [(1 << 62) - 1, 1 << 62])
    def test_rank_table_at_p18_refused_from_a_span_of_2_62(self, span, capsys):
        # r(T) = span on every nonempty T but the full set, whose rank is 0:
        # 18 monotonicity drops.  A span below 2^62 packs into 8-byte fields
        # and is reported; 2^62 needs 9-byte fields, 9 * 2^18 bytes in all
        values = [0] + [span] * ((1 << 18) - 2) + [0]
        code, out, err = run_cli(["msupp-rank", "--json", json.dumps({"p": 18, "values": values})], capsys)
        assert out == ""
        if span < 1 << 62:
            assert code == 2
            report = json.loads(err)
            assert not report["valid"]
            assert len(report["violations"]) == 18
            assert {v["axiom"] for v in report["violations"]} == {"monotonicity"}
        else:
            assert code == 3
            assert json.loads(err.splitlines()[-1]) == {
                "error": "bytes of the packed rank table: 2359296 exceeds the budget of 2000000"
            }

    def test_flag_p8_budget_exit_3(self, capsys):
        # 3,104,160 points, refused by their count before one is listed
        code, out, err = run_cli(["flag", "--p", "8"], capsys)
        assert code == 3
        assert out == ""
        assert "budget" in json.loads(err)["error"]

    def test_mixed_volume_budget_exit_3(self, capsys):
        # 120 unit segments in R^3 have no cells; each of the C(120, 3)
        # triples i < j < k charges |C_i| 2 |C_j| |C_k| = 16 evaluations
        # against the cells of a pair sum, 4,493,440 in all
        segments = [{"d": 3, "vertices": [[0, 0, 0], [int(j == i % 3) for j in range(3)]]} for i in range(120)]
        start = time.perf_counter()
        code, out, err = run_cli(["mixedvol", "--json", json.dumps({"polytopes": segments})], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert out == ""
        assert "support function evaluations: 4493440 exceeds" in json.loads(err)["error"]

    def test_mixed_volumes_of_45_segments(self, capsys):
        # 45 unit segments along the axes in turn: by the determinant law
        # each of the C(47, 3) entries is 1/6 when its three segments
        # span the three axes, and 0 otherwise
        segments = [{"d": 3, "vertices": [[0, 0, 0], [int(j == i % 3) for j in range(3)]]} for i in range(45)]
        start = time.perf_counter()
        doc = run_json(["mixedvol", "--json", json.dumps({"polytopes": segments})], capsys)
        assert time.perf_counter() - start < 2.0
        assert len(doc["entries"]) == 16215
        for entry in doc["entries"]:
            axes = sorted(i % 3 for i, k in enumerate(entry["n"]) for _ in range(k))
            assert entry["v"] == ("1/6" if axes == [0, 1, 2] else "0")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a 4000 x 4000 grid walked column by column
            (["theta", "--subset", "", "--json", '{"p":4000,"cells":[]}'], "4000x4000 grid"),
            # trial division up to isqrt(2^61 - 1), about 1.5 * 10^9
            (
                ["msupp-linear", "--json", '{"ambient":1,"field":"Fp:2305843009213693951","subspaces":[[["1"]]]}'],
                "trial division of 2305843009213693951: 1518500249 exceeds",
            ),
        ],
        ids=["theta-grid", "prime-field"],
    )
    def test_unbounded_loop_budget_exit_3(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert message in json.loads(err)["error"]

    @pytest.mark.parametrize("p", [40, 60])
    def test_schubert_past_the_ground_set_cap_exit_3(self, capsys, p):
        # the identity's divided-difference recursion runs C(p, 2) calls deep
        code, out, err = run_cli(["schubert", "--perm", ",".join(map(str, range(1, p + 1)))], capsys)
        assert code == 3
        assert out == ""
        assert f"ground set size {p}" in json.loads(err)["error"]

    def test_positivity_past_the_ground_set_cap_exit_3(self, capsys):
        p = polymatroid.MAX_GROUND_SET + 1
        body = {"polytopes": [{"d": 1, "vertices": [[k]]} for k in range(p)]}
        n = ",".join(["1"] + ["0"] * (p - 1))
        code, out, err = run_cli(["positivity", "--json", json.dumps(body), "--n", n], capsys)
        assert code == 3
        assert out == ""
        assert f"ground set size {p}" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "document, flags, message, checks",
        [
            # a bad polytope is named before a bad n, as the schema lists them
            ({"polytopes": [{"d": 1, "vertices": [["x"]]}], "n": ["y"]}, [],
             "polytopes[0].vertices[0][0] must match ^-?[0-9]+(/0*[1-9][0-9]*)?$", ["polytope_tuple"]),
            # and so is a polytope the schema passes but its constructor refuses
            ({"polytopes": [{"d": 2, "vertices": [[0, 0], [1]]}], "n": [-1]}, [],
             "vertex (Fraction(1, 1),) has length 1, expected 2", ["polytope_tuple"]),
            ({"polytopes": [{"d": 1, "vertices": [[0], [1]]}], "n": [-1]}, [], "n[0] must be at least 0",
             ["polytope_tuple", "polytope_tuple.n"]),
            ({"polytopes": [{"d": 1, "vertices": [[0], [1]]}], "n": "x"}, [], "n must be an array, not str",
             ["polytope_tuple", "polytope_tuple.n"]),
            ({"polytopes": [{"d": 1, "vertices": [[0], [1]]}]}, [],
             "positivity needs --n or an 'n' field in the input", ["polytope_tuple"]),
            # --n wins, and the document's n is not read
            ({"polytopes": [{"d": 1, "vertices": [[0], [1]]}], "n": ["y"]}, ["--n", "1"], None, ["polytope_tuple"]),
            ({"polytopes": [{"d": 1, "vertices": [[0], [1]]}], "n": [1]}, [], None,
             ["polytope_tuple", "polytope_tuple.n"]),
        ],
    )
    def test_positivity_checks_its_document_once(self, capsys, monkeypatch, document, flags, message, checks):
        # the polytopes are checked once, and n alone after them
        checked = []
        check, check_property = cli.check, cli.check_property
        monkeypatch.setattr(cli, "check", lambda name, doc: checked.append(name) or check(name, doc))
        monkeypatch.setattr(
            cli,
            "check_property",
            lambda name, doc, key: checked.append(f"{name}.{key}") or check_property(name, doc, key),
        )
        code, out, err = run_cli(["positivity", "--json", json.dumps(document), *flags], capsys)
        assert checked == checks
        if message is None:
            assert code == 0 and json.loads(out)["positive"] is True
        else:
            assert code == 2 and json.loads(err)["error"] == message

    def test_prime_below_the_trial_division_budget(self, capsys):
        document = '{"ambient":1,"field":"Fp:2147483647","subspaces":[[["1"]]]}'
        doc = run_json(["msupp-linear", "--json", document], capsys)
        assert doc["support"]["points"] == [[1]]


class TestKPoly:
    # sha256 of the stdout bytes that the per-node IntPolynomial
    # recursion printed for these inputs
    @pytest.mark.parametrize(
        "fixture, sr_ideal, digest",
        [
            ("octahedron.json", True, "594987a29563053c996f13bc6ccff8daed776825a23c298a8e324e3afd178136"),
            ("icosahedron.json", True, "64183cc4fd03ad2462720348ae6b316e85807defd0c803c6878b2a5a84b3cbf1"),
            (
                "octahedron_sr_ideal_pairs.json",
                False,
                "594987a29563053c996f13bc6ccff8daed776825a23c298a8e324e3afd178136",
            ),
        ],
        ids=["octahedron", "icosahedron", "octahedron-pairs"],
    )
    def test_pinned_bytes(self, capsys, fixture, sr_ideal, digest):
        document = (FIXTURES / fixture).read_text()
        if sr_ideal:
            code, document, _err = run_cli(["sr-ideal", "--json", document], capsys)
            assert code == 0
        code, out, _err = run_cli(["kpoly", "--json", document], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_staircase_deeper_than_the_recursion_limit(self, capsys):
        # K(S/(x^i y^(n-1-i))) = 1 - sum t^g_i + sum t^lcm(g_i, g_(i+1))
        n = 1200
        gens = [[i, n - 1 - i] for i in range(n)]
        ideal = {"nvars": 2, "p": 2, "degrees": [[1, 0], [0, 1]], "generators": gens}
        doc = run_json(["kpoly", "--json", json.dumps(ideal)], capsys)
        expected = {(0, 0): 1}
        expected.update({tuple(g): -1 for g in gens})
        expected.update({(a + 1, b): 1 for a, b in gens[:-1]})
        terms = {tuple(t["exp"]): int(t["coef"]) for t in doc["polynomial"]["terms"]}
        assert terms == expected

    def test_minimality_pair_budget_exit_3(self, capsys):
        n = 2001
        gens = [[i, n - 1 - i] for i in range(n)]
        ideal = {"nvars": 2, "p": 2, "degrees": [[1, 0], [0, 1]], "generators": gens}
        code, out, err = run_cli(["kpoly", "--json", json.dumps(ideal)], capsys)
        assert code == 3
        assert out == ""
        assert "minimality check over generator pairs: 2001000 exceeds" in json.loads(err)["error"]

    def test_not_minimal_stderr_pinned(self, capsys):
        ideal = {
            "nvars": 3,
            "p": 2,
            "degrees": [[1, 0], [0, 1], [1, 1]],
            "generators": [[1, 1, 0], [2, 0, 1], [1, 0, 0], [0, 1, 1], [0, 2, 1]],
        }
        code, out, err = run_cli(["kpoly", "--json", json.dumps(ideal)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            '{"error": "generator list is not minimal: (0, 1, 1) and (0, 2, 1) are comparable"}\n'
        )


class TestPolytopeBytes:
    # sha256 of the stdout bytes that the hull without stored planes, with
    # a rank test for the dimension, printed for these inputs
    PYRAMID = {
        "d": 3,
        "vertices": [
            [0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 0], [1, 0, 0],
            ["1/2", "1/2", "3/2"],
        ],
    }
    SLIVER = {
        "d": 3,
        "vertices": [
            [0, 0, 0], ["1/3", 0, 0], [0, "1/2", 0], [0, 0, 1], ["1/6", "1/4", 0],
            [0, "1/4", "1/2"],
        ],
    }
    TILTED = {
        "d": 3,
        "vertices": [
            [0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2], ["1/2", "1/2", 1], ["1/2", 0, "1/2"],
        ],
    }
    TRIANGLE = {"d": 2, "vertices": [[0, 0], [2, 0], [0, 1], [1, 0]]}
    SEGMENT = {"d": 2, "vertices": [[0, 0], ["3/2", "1/2"], ["3/4", "1/4"]]}
    SQUARE = {"d": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1], ["1/2", "1/2"]]}
    FLAT = [
        {"d": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], ["1/2", "1/2", 0]]},
        {"d": 3, "vertices": [[0, 0, 0], ["2/3", "1/3", 0]]},
        {"d": 3, "vertices": [[1, 0, 0], [1, "1/2", 0], [1, "1/4", 0]]},
    ]

    @pytest.mark.parametrize(
        "command, polytopes, digest",
        [
            (
                ["mixedvol"],
                [PYRAMID, SLIVER],
                "11bd7c922de923f382278b407662b6397ea02b09ed01ea1c05820674a8278726",
            ),
            (
                ["mixedvol"],
                [PYRAMID, SLIVER, TILTED],
                "f9e89965aa70c6cff5a192f34960661fc5edfd3d85675136a22b561ff1dbbbad",
            ),
            (
                ["mixedvol"],
                [TRIANGLE, SEGMENT, SQUARE],
                "848134038630674a8c74fc3aab0485eb66d7655b2e88ca65caed8402983c4a2c",
            ),
            (
                ["mixedvol"],
                FLAT,
                "25a4002d3263a01a34ef514e7a8e3a98c60658b17ddd77345bdb278fa926546b",
            ),
            (
                ["positivity", "--n", "1,1,1"],
                FLAT,
                "17d95b3864a20b76d77a9374229744ce73903599a74539113bd819e587883890",
            ),
        ],
        ids=["mixedvol-3d-pair", "mixedvol-3d-triple", "mixedvol-2d-segment",
             "mixedvol-3d-flat", "positivity-3d-flat"],
    )
    def test_pinned_bytes(self, capsys, command, polytopes, digest):
        document = json.dumps({"polytopes": polytopes})
        code, out, _err = run_cli([*command, "--json", document], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The help and error bytes of the CLI at an 80-column terminal.  The
# texts are argparse's, so they are pinned for this interpreter's
# argparse (Python 3.11); another version may word or wrap them
# differently.
COMMANDS = [
    "schubert", "theta", "msupp-rank", "msupp-linear", "mconvex", "kpoly", "multidegree",
    "facet-support", "mixedvol", "sr-ideal", "positivity", "flag", "m0n",
]

HELP = {
    None: """\
usage: multidegree [-h] [--schema NAME]
                   {schubert,theta,msupp-rank,msupp-linear,mconvex,kpoly,multidegree,facet-support,mixedvol,sr-ideal,positivity,flag,m0n}
                   ...

Exact multidegree supports from combinatorial data.

positional arguments:
  {schubert,theta,msupp-rank,msupp-linear,mconvex,kpoly,multidegree,facet-support,mixedvol,sr-ideal,positivity,flag,m0n}
    schubert            Schubert polynomial and its supports
    theta               column-word statistic of a diagram
    msupp-rank          lattice points of the base polytope of a rank function
    msupp-linear        rank function and support of a subspace family
    mconvex             M-convexity test with an exchange-axiom witness
    kpoly               K-polynomial of a monomial ideal
    multidegree         multidegree polynomial of a monomial ideal
    facet-support       incidence vectors of the top-dimensional facets
    mixedvol            mixed-volume table of a polytope tuple
    sr-ideal            Stanley-Reisner ideal of a simplicial complex
    positivity          positivity and independent-segments criteria
    flag                flag variety support and comparator report
    m0n                 moduli-of-rational-curves support (Catalan count)

options:
  -h, --help            show this help message and exit
  --schema NAME         print the JSON schema for an input type and exit (one
                        of: diagram, mixed_volume_table, monomial_ideal,
                        permutation, polynomial, polytope, polytope_tuple,
                        rank_function, simplicial_complex, subspace_family,
                        support)
""",
    'schubert': """\
usage: multidegree schubert [-h] [--output OUTPUT] [-v] [--input INPUT]
                            [--json JSON] [--perm PERM]
                            [--exponent-coordinates]

options:
  -h, --help            show this help message and exit
  --output OUTPUT       also write the JSON result to this path
  -v, --verbose
  --input INPUT         path of the input JSON document ('-' for stdin)
  --json JSON           inline input JSON document
  --perm PERM           one-line notation, e.g. 3,2,1
  --exponent-coordinates
                        report supports as polynomial exponents m instead of
                        multidegree types n
""",
    'theta': """\
usage: multidegree theta [-h] [--output OUTPUT] [-v] [--input INPUT]
                         [--json JSON] [--perm PERM] [--subset SUBSET]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
  --perm PERM      use the Rothe diagram of this permutation
  --subset SUBSET  comma-separated rows, e.g. 2,3 (empty for the empty set)
""",
    'msupp-rank': """\
usage: multidegree msupp-rank [-h] [--output OUTPUT] [-v] [--input INPUT]
                              [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'msupp-linear': """\
usage: multidegree msupp-linear [-h] [--output OUTPUT] [-v] [--input INPUT]
                                [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'mconvex': """\
usage: multidegree mconvex [-h] [--output OUTPUT] [-v] [--input INPUT]
                           [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'kpoly': """\
usage: multidegree kpoly [-h] [--output OUTPUT] [-v] [--input INPUT]
                         [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'multidegree': """\
usage: multidegree multidegree [-h] [--output OUTPUT] [-v] [--input INPUT]
                               [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'facet-support': """\
usage: multidegree facet-support [-h] [--output OUTPUT] [-v] [--input INPUT]
                                 [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'mixedvol': """\
usage: multidegree mixedvol [-h] [--output OUTPUT] [-v] [--input INPUT]
                            [--json JSON]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
""",
    'sr-ideal': """\
usage: multidegree sr-ideal [-h] [--output OUTPUT] [-v] [--input INPUT]
                            [--json JSON] [--vars-per-vertex VARS_PER_VERTEX]

options:
  -h, --help            show this help message and exit
  --output OUTPUT       also write the JSON result to this path
  -v, --verbose
  --input INPUT         path of the input JSON document ('-' for stdin)
  --json JSON           inline input JSON document
  --vars-per-vertex VARS_PER_VERTEX
                        variables per vertex (2 gives the one-projective-line-
                        per-vertex grading)
""",
    'positivity': """\
usage: multidegree positivity [-h] [--output OUTPUT] [-v] [--input INPUT]
                              [--json JSON] [--n N]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --input INPUT    path of the input JSON document ('-' for stdin)
  --json JSON      inline input JSON document
  --n N            type vector, e.g. 1,1,1
""",
    'flag': """\
usage: multidegree flag [-h] [--output OUTPUT] [-v] [--p P]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --p P            number of projective factors
""",
    'm0n': """\
usage: multidegree m0n [-h] [--output OUTPUT] [-v] [--p P] [--count-only]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  also write the JSON result to this path
  -v, --verbose
  --p P            number of projective factors
  --count-only     print only the cardinality
""",
}

USAGE = """\
usage: multidegree [-h] [--schema NAME]
                   {schubert,theta,msupp-rank,msupp-linear,mconvex,kpoly,multidegree,facet-support,mixedvol,sr-ideal,positivity,flag,m0n}
                   ...
"""


def run_argparse(argv, capsys, monkeypatch):
    """Exit code, stdout and stderr of `main(argv)` at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on -h and on bad arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelpAndErrorBytes:
    def test_top_level_help(self, capsys, monkeypatch):
        assert run_argparse(["-h"], capsys, monkeypatch) == (0, HELP[None], "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, capsys, monkeypatch, command):
        assert run_argparse([command, "-h"], capsys, monkeypatch) == (0, HELP[command], "")

    def test_missing_subcommand(self, capsys, monkeypatch):
        assert run_argparse([], capsys, monkeypatch) == (2, "", USAGE)

    def test_unknown_subcommand(self, capsys, monkeypatch):
        choices = ", ".join(f"'{c}'" for c in COMMANDS)
        assert run_argparse(["frobnicate"], capsys, monkeypatch) == (
            2,
            "",
            USAGE + "multidegree: error: argument subcommand: invalid choice: "
            f"'frobnicate' (choose from {choices})\n",
        )

    @pytest.mark.parametrize("extra", ["--bogus", "extra"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unrecognized_arguments(self, capsys, monkeypatch, command, extra):
        assert run_argparse([command, extra], capsys, monkeypatch) == (
            2,
            "",
            USAGE + f"multidegree: error: unrecognized arguments: {extra}\n",
        )

    def test_invalid_int_value(self, capsys, monkeypatch):
        assert run_argparse(["flag", "--p", "x"], capsys, monkeypatch) == (
            2,
            "",
            "usage: multidegree flag [-h] [--output OUTPUT] [-v] [--p P]\n"
            "multidegree flag: error: argument --p: invalid int value: 'x'\n",
        )


def fresh_process(argv):
    """Exit code, stdout and stderr of one `python -m multidegree.cli` run."""
    proc = subprocess.run(
        [sys.executable, "-m", "multidegree.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


# values for the reader's options: ones argparse reads as options,
# converts or refuses, and a JSON document
READER_VALUES = [
    "-", "-1", "-1,2", "", " 5", "+5", "5_0", "\u0665", "x", "-x y", "3", "2,3",
    '{"p": 2, "values": [0, 1, 1, 2]}',
]
# every token of argvs for `cli._read_argv` and argparse: the values,
# every subcommand, option string and schema name, prefixes and forms
# that only argparse reads
READER_TOKENS = sorted(
    {name for command in cli._COMMANDS.values() for name in command.options}
    | set(COMMANDS) | set(cli.SCHEMAS)
) + ["--js", "--count", "--json={}", "-vv", "--", "-h", "--schema", *READER_VALUES]


@st.composite
def reader_argvs(draw):
    """An argv of tokens from READER_TOKENS, most often a subcommand or
    --schema followed by runs of its own: an option string of the
    subcommand with a value if it takes one, or a schema name."""
    head = draw(st.sampled_from([*COMMANDS, "--schema"]) | st.sampled_from(READER_TOKENS))
    options = cli._COMMANDS[head].options if head in cli._COMMANDS else {}
    argv = [head]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(READER_TOKENS)))
        elif not options:
            argv.append(draw(st.sampled_from(sorted(cli.SCHEMAS))))
        else:
            name = draw(st.sampled_from(sorted(options)))
            argv.append(name)
            if options[name][1] not in ("store_true", "count"):
                argv.append(draw(st.sampled_from(READER_VALUES)))
    return argv


def typed_vars(namespace):
    """The fields of a namespace with their types, so that True and 1 differ."""
    return {key: (type(value), value) for key, value in vars(namespace).items()}


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_unusual_calls_parse_with_the_one_parser(self, capsys, monkeypatch):
        parser = build_parser()
        seen = []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(argv) or parse(argv))
        calls = [[], ["flag", "--p", "x"], ["m0n", "--p=3"], ["m0n", "-vv", "--p", "3"]]
        for argv in calls:
            run_argparse(argv, capsys, monkeypatch)
        assert seen == calls

    def test_pool_shaped_calls_build_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert all(cli._read_argv(argv) is not None for argv in POOL_CALLS)
        # one pool call of each shape, option strings in order, run whole
        shapes = {}
        for argv in POOL_CALLS:
            shapes.setdefault(tuple(a for a in argv if a.startswith("--")), argv)
        for argv in [*shapes.values(), ["--schema", "support"], ["m0n", "-v", "--p", "4"]]:
            assert run_cli(argv, capsys)[0] == 0

    def test_usual_calls_never_import_argparse(self):
        calls = [
            ["--schema", "rank_function"],
            ["m0n", "--p", "5", "--count-only"],
            ["positivity", "--json", json.dumps(MUTATION_BASES[-1][0]), "--n", "2,0"],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from multidegree.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'argparse' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)], capture_output=True, text=True
        )
        assert json.loads(proc.stdout) == [[0, 0, 0], False], proc.stderr

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(reader_argvs())
    def test_reader_gives_what_argparse_gives(self, argv):
        fields = cli._read_argv(argv)
        if fields is not None:
            assert typed_vars(fields) == typed_vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("good", [["flag", "--p", "3"], ["m0n", "--p", "5", "--count-only"]])
    def test_a_rejected_call_leaves_no_trace(self, capsys, monkeypatch, good):
        assert run_argparse(["flag", "--p", "x"], capsys, monkeypatch) == (
            2,
            "",
            "usage: multidegree flag [-h] [--output OUTPUT] [-v] [--p P]\n"
            "multidegree flag: error: argument --p: invalid int value: 'x'\n",
        )
        assert run_argparse(good, capsys, monkeypatch) == fresh_process(good)

    def test_bare_call_and_schema_keep_their_bytes(self, capsys, monkeypatch):
        run_json(["m0n", "--p", "3"], capsys)  # the parser exists already
        assert run_argparse([], capsys, monkeypatch) == (2, "", USAGE)
        code, out, err = run_argparse(["--schema", "support"], capsys, monkeypatch)
        assert (code, err) == (0, "")
        # the bytes printed when a named subcommand had a parser of its own
        digest = "881f3a539866ac10129c4bc45c59ff9873dd6f48e51fe4951e1c6de4c0f816e4"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multidegree.cli", "m0n", "--p", "5", "--count-only"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "42\n"


# a valid document of each input type, with the calls that read it
MUTATION_BASES = [
    (json.loads((FIXTURES / "intro_example_rank.json").read_text()), [["msupp-rank"]]),
    (INTRO_SUBSPACES, [["msupp-linear"]]),
    ({"p": 3, "points": [[0, 1, 2], [1, 0, 2], [1, 1, 1], [0, 2, 1]]}, [["mconvex"]]),
    ({"p": 5, "one_line": [4, 2, 5, 3, 1]}, [["schubert"]]),
    (json.loads((FIXTURES / "rothe_42531.json").read_text()), [["theta", "--subset", "2,3"]]),
    (
        {"nvars": 3, "p": 2, "degrees": [[1, 0], [0, 1], [1, 1]], "generators": [[1, 1, 0], [0, 0, 2]]},
        [["kpoly"], ["multidegree"]],
    ),
    (OCTAHEDRON, [["sr-ideal"], ["facet-support"]]),
    (
        {"polytopes": [{"d": 2, "vertices": [[0, 0], ["1/2", 0], [0, 1]]}, {"d": 2, "vertices": [[0, 0], [1, 1]]}], "n": [1, 1]},
        [["mixedvol"], ["positivity"], ["positivity", "--n", "2,0"]],
    ),
]
BIG = "<5,000 digits>"


def json_paths(document, prefix=()):
    yield prefix
    if isinstance(document, dict):
        for key, value in document.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(document, list):
        for i, value in enumerate(document):
            yield from json_paths(value, prefix + (i,))


def mutated_text(draw, document):
    """The JSON text of `document` with one fault put in."""
    document = json.loads(json.dumps(document))
    path = draw(st.sampled_from([p for p in json_paths(document) if p]))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["type", "delete", "integer", "rational"]))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "type":
        parent[path[-1]] = draw(st.sampled_from(["x", 1.5, 2.0, True, None, {}, [], [[]], 7]))
    elif kind == "integer":
        parent[path[-1]] = draw(st.sampled_from([-1, -7, BIG, "-" + BIG]))
    else:
        parent[path[-1]] = draw(st.sampled_from(["1/0", "2/00", "1/", "/2", "a", "1.5", "1e5", " 1", "+1", "1/-2", "-" + BIG]))
    return json.dumps(document).replace(f'"{BIG}"', "9" * 5000).replace(f'"-{BIG}"', "-" + "9" * 5000)


@st.composite
def mutated_calls(draw):
    """argv of a call on a valid document with one fault put in."""
    document, calls = draw(st.sampled_from(MUTATION_BASES))
    return [*draw(st.sampled_from(calls)), "--json", mutated_text(draw, document)]


class TestExitCodes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_calls())
    def test_mutated_documents_exit_0_2_or_3(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert out.getvalue() == ""
            assert isinstance(json.loads(err.getvalue().splitlines()[-1]), dict)


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"


def pool_jobs(workload):
    """The recorded jobs of one benchmark pool file, which is only read."""
    with open(POOL / f"{workload}.json", encoding="utf-8") as handle:
        return [job for c in json.load(handle)["classes"] for job in c["jobs"]]


POOL_CALLS = [
    job["argv"] for workload in ("enumerate", "certify", "sr-ideals", "polytopes") for job in pool_jobs(workload)
]
INT_OPTIONS = {"--p", "--vars-per-vertex"}


@st.composite
def mutated_pool_calls(draw):
    """argv of a benchmark pool job, or of a complex on up to 300
    vertices, as it is or with its document or one option value changed."""
    if draw(st.booleans()):
        argv = list(draw(st.sampled_from(POOL_CALLS)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        nverts = rng.randint(1, 300)
        drawn = {
            frozenset(rng.sample(range(1, nverts + 1), min(nverts, rng.randint(1, 4))))
            for _ in range(rng.randint(1, 300))
        }
        facets = [sorted(f) for f in drawn if not any(f < g for g in drawn)]
        document = json.dumps({"nverts": nverts, "facets": facets})
        argv = [draw(st.sampled_from(["sr-ideal", "facet-support"])), "--json", document]
        if argv[0] == "sr-ideal" and draw(st.booleans()):
            argv += ["--vars-per-vertex", "2"]
    # every call has an option with a value: --json, --p or --perm
    options = [i for i, a in enumerate(argv[:-1]) if a.startswith("--") and not argv[i + 1].startswith("--")]
    i = draw(st.sampled_from(options))
    kind = draw(st.sampled_from(["none", "value", "delete"]))
    if kind == "delete":
        del argv[i : i + 2]
    elif kind == "value" and argv[i] == "--json":
        argv[i + 1] = mutated_text(draw, json.loads(argv[i + 1]))
    elif kind == "value" and argv[i] in INT_OPTIONS:
        argv[i + 1] = str(draw(st.sampled_from([-1, 0, 1, 2, 3, 12, 25, 10**6])))
    elif kind == "value":
        junk = ["", "x", "0", "-3", "1,1", "2,1", "1,,2", "1,2,3,4,5,6,7,8,9,10", "9" * 40]
        argv[i + 1] = draw(st.sampled_from(junk))
    return argv


RANK_POOL_CALLS = [argv for argv in POOL_CALLS if argv[0] == "msupp-rank"]


@st.composite
def huge_rank_calls(draw):
    """argv of an msupp-rank pool job whose values are replaced by huge or
    negative integers: all negated, all scaled by 10^e, or one set to an
    integer of 4,000 digits of either sign."""
    argv = list(draw(st.sampled_from(RANK_POOL_CALLS)))
    i = argv.index("--json") + 1
    document = json.loads(argv[i])
    values = document["values"]
    kind = draw(st.sampled_from(["negate", "scale", "one"]))
    if kind == "negate":
        document["values"] = [-v for v in values]
    elif kind == "scale":
        e = draw(st.sampled_from([19, 40, 300, 1200]))
        document["values"] = [v * 10**e for v in values]
    else:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([1, -1])) * int("9" * 4000)
    argv[i] = json.dumps(document)
    return argv


class CallOverran(BaseException):
    """Raised by the alarm of one fuzzed call; no handler in the library
    can catch it."""


class TestContractFuzzer:
    """Benchmark pool jobs, read from perfbench/pool and never written,
    with a document or an option mutated: every call exits 0, 2 or 3
    without a traceback, a refusal prints its JSON error as the last
    stderr line and nothing on stdout, and no call outlives its alarm."""

    SECONDS = 10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mutated_pool_calls())
    def test_every_call_keeps_the_contract(self, argv):
        self.keeps_the_contract(argv)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(huge_rank_calls())
    def test_huge_and_negative_rank_values_keep_the_contract(self, argv):
        self.keeps_the_contract(argv)

    def keeps_the_contract(self, argv):
        def overran(signum, frame):
            raise CallOverran(f"{argv[0]} ran past {self.SECONDS} s")

        previous = signal.signal(signal.SIGALRM, overran)
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(self.SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3)
        if code != 0:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert isinstance(json.loads(lines[-1]), dict)
            assert all(line.startswith("warning: ") for line in lines[:-1])


class TestBenchmarkPool:
    """The benchmark's byte check, run as a test: every job of every pool
    keeps its recorded exit code, stdout and stderr report, with all the
    jobs of a pool run one after another in this process."""

    @pytest.mark.parametrize(
        "workload, commands",
        [
            ("enumerate", {"theta": 50, "schubert": 40, "msupp-linear": 35, "msupp-rank": 35, "m0n": 5, "flag": 3}),
            ("certify", {"mconvex": 24, "msupp-rank": 24}),
            ("sr-ideals", {"kpoly": 33, "multidegree": 33, "sr-ideal": 12, "facet-support": 12}),
            ("polytopes", {"mixedvol": 70, "positivity": 50}),
        ],
    )
    def test_jobs_keep_their_bytes(self, capsys, workload, commands):
        jobs = pool_jobs(workload)
        assert Counter(job["argv"][0] for job in jobs) == commands
        for job in jobs:
            code, out, err = run_cli(job["argv"], capsys)
            assert code == job["exit"], job["argv"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == job["stdout_sha256"], job["argv"]
            if job.get("stderr_json") is not None:
                assert json.loads(err.splitlines()[-1]) == job["stderr_json"], job["argv"]
