"""End-to-end CLI behavior: dispatch, JSON round trips, determinism,
and exit codes."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree import Support, cli, polymatroid
from multidegree.cli import build_parser, main

from mconvex_oracle import exchange_report

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

    # sha256 of the stdout bytes that the comparator printed when it
    # tested every point against the literal inequality system
    @pytest.mark.parametrize(
        "p, digest",
        [
            (1, "ba850b36f80f673747f08f0a39936572d62bfade259e7cee7f8f1649639bb0b9"),
            (2, "ac02af6bac30145be48946c37b8ac0f2fc705bdfe407cc13eca0dab203099f21"),
            (3, "4b704cc7cd362cac0a2c6f29a09172578f7fe5cc1c5f424d9f262eb40d30e5d9"),
            (4, "7ba900e61e73875af3e7defb31ed7f58dffa96db156e206aaae7a9ee7a3f3a5c"),
            (5, "28e5fefebc3d2fabb2a2fd9eef501518eb32edb6df8c727be8833cd633dc44b0"),
            (6, "99d40e290376087fed16ca54f7c5311b6a787e87f44f17486c98a0f07e8dab08"),
            (7, "84074ce0927a223311d1b250e00c2b149e96b34b1123fa4800d3162780be0d4b"),
        ],
    )
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
        # 4,501,500 candidate subsets; refused before any is tried
        complex_ = {"nverts": 3000, "facets": [[1]]}
        start = time.perf_counter()
        code, out, err = run_cli(["sr-ideal", "--json", json.dumps(complex_)], capsys)
        assert time.perf_counter() - start < 3.0
        assert code == 3
        assert out == ""
        assert "minimal non-face search" in json.loads(err)["error"]

    def test_nested_facet_budget_exit_3(self, capsys):
        # 4,498,500 facet pairs; refused before any is compared
        complex_ = {"nverts": 3000, "facets": [[v] for v in range(1, 3001)]}
        start = time.perf_counter()
        code, out, err = run_cli(["facet-support", "--json", json.dumps(complex_)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "nested-facet check over 4498500 facet pairs" in json.loads(err)["error"]

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

    def test_support_budget_exit_3(self, capsys):
        # n_1 + n_2 = 10^9: a billion points in a 60-byte document
        n = 10**9
        start = time.perf_counter()
        code, out, err = run_cli(["msupp-rank", "--json", json.dumps({"p": 2, "values": [0, n, n, n]})], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "budget" in json.loads(err)["error"]

    def test_mixed_volume_budget_exit_3(self, capsys):
        # 120 unit segments in R^3: sum_k C(3, k) e_k(2, ..., 2) points
        segments = [{"d": 3, "vertices": [[0, 0, 0], [int(j == i % 3) for j in range(3)]]} for i in range(120)]
        start = time.perf_counter()
        code, out, err = run_cli(["mixedvol", "--json", json.dumps({"polytopes": segments})], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 3
        assert out == ""
        assert "2333120 points" in json.loads(err)["error"]


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
        assert "minimality check over 2001000 generator pairs" in json.loads(err)["error"]

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


def parse_outcome(parser, argv):
    """The Namespace, or argparse's exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def option_strings():
    """Every option string of the parser: the top level's, the ones all
    subcommands share, and each subcommand's own."""
    common = ["-h", "--help", "--schema", "--output", "-v", "--verbose", "--input", "--json"]
    return common + sorted({o for c in cli._COMMANDS.values() for o, _ in c.arguments})


JUNK = ["", "x", "-", "--", "-1", "3", "1,2", "rank_function", "{}", "--bogus", "-x", "--p=2", "--ou"]
# deferred, so that this module imports where the table is absent
ARGUMENT = st.deferred(lambda: st.sampled_from(COMMANDS + option_strings() + JUNK) | st.text(max_size=3))


class TestPartialParser:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(COMMANDS), st.lists(ARGUMENT, max_size=6))
    def test_same_parse_as_the_full_parser(self, command, rest):
        argv = [command, *rest]
        assert parse_outcome(build_parser(command), argv) == parse_outcome(build_parser(), argv)

    def test_a_call_builds_only_its_own_subparser(self, capsys, monkeypatch):
        seen = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda only=None: seen.append(only) or build(only))
        run_json(["m0n", "--p", "3"], capsys)
        run_json(["--schema", "support"], capsys)
        run_cli([], capsys)
        assert seen == ["m0n", None, None]


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


@st.composite
def mutated_calls(draw):
    """argv of a call on a valid document with one fault put in."""
    document, calls = draw(st.sampled_from(MUTATION_BASES))
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
    text = json.dumps(document).replace(f'"{BIG}"', "9" * 5000).replace(f'"-{BIG}"', "-" + "9" * 5000)
    return [*draw(st.sampled_from(calls)), "--json", text]


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


class TestBenchmarkPool:
    """The benchmark's byte check on its `msupp-rank` jobs, run as a test:
    every job keeps its recorded exit code, stdout and stderr report."""

    @pytest.mark.parametrize("workload", ["certify", "enumerate"])
    def test_msupp_rank_jobs_keep_their_bytes(self, capsys, workload):
        with open(POOL / f"{workload}.json", encoding="utf-8") as handle:
            classes = json.load(handle)["classes"]
        jobs = [job for c in classes for job in c["jobs"] if job["argv"][0] == "msupp-rank"]
        assert jobs
        for job in jobs:
            code, out, err = run_cli(job["argv"], capsys)
            assert code == job["exit"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == job["stdout_sha256"]
            if job.get("stderr_json") is not None:
                assert json.loads(err.splitlines()[-1]) == job["stderr_json"]
