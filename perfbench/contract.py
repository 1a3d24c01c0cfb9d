"""The untimed contract slice run at the end of every benchmark run.

`errors.py` sets the contract: any input ends with exit 0 and a correct
result, or with exit 2 or 3 and a JSON error on stderr; a traceback is a
bug.  Each workload checks seeded malformed documents of its own input
types, built by corrupting a document drawn from its pool, plus one
`--output` into a missing directory.  `sr-ideals` also asks for the
multidegree of the icosahedron in its 24-variable pair grading, which
must equal the one-variable-per-vertex output.

`flag --p 8` is left out: it builds all 32 M compositions of 36 into 8
parts with no budget, so it would not end within a run.

KNOWN_FAILURES lists the cases that fail at the commit that added this
benchmark, with what they do there.  They count in `failed_frac`; any
other failing case makes the run incorrect.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from jobs import ROOT, JobClass, Outcome, call

KNOWN_FAILURES = {
    "rank_function/p-not-integer": "raises ValueError",
    "rank_function/float-entry": "accepts the float 1.5 with exit 0",
    "subspace_family/zero-denominator": "raises ZeroDivisionError",
    "subspace_family/float-entry": "accepts the float 0.1 with exit 0",
    "support/non-integer-entry": "raises ValueError",
    "support/points-not-list": "raises TypeError",
    "support/float-entry": "accepts the float with exit 0",
    "simplicial_complex/nverts-not-integer": "raises ValueError",
    "monomial_ideal/generators-not-list": "raises TypeError",
    "monomial_ideal/float-exponent": "accepts the float 1.5 with exit 0",
    "monomial_ideal/icosahedron-pairs": "refuses the 24 variables with exit 3",
    "polytopes/zero-denominator": "raises ZeroDivisionError",
    "polytopes/float-vertex": "accepts the float 0.1 with exit 0",
    "positivity/n-not-integer": "raises ValueError",
    "output/missing-directory": "raises FileNotFoundError after printing the result",
}

MISSING_OUTPUT = ROOT / ".bench_missing_dir" / "out.json"


@dataclass(frozen=True)
class Case:
    name: str
    argv: list[str]
    # None: the input must be refused; otherwise the argv whose stdout
    # bytes this case must reproduce with exit 0
    same_as: list[str] | None = None


def _doc(argv: tuple[str, ...]) -> dict:
    return json.loads(argv[argv.index("--json") + 1])


def _dump(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _argvs(classes: list[JobClass], command: str, valid: bool = False) -> list[tuple[str, ...]]:
    """Pool argvs of one subcommand, only those with exit 0 if `valid`."""
    return sorted(
        job.argv for c in classes for job in c.jobs if job.argv[0] == command and (job.exit == 0 or not valid)
    )


def _base(rng, classes: list[JobClass], command: str, valid: bool = False) -> tuple[str, ...]:
    return rng.choice(_argvs(classes, command, valid))


def _rank_cases(rng, classes, with_valid: bool) -> list[Case]:
    table = _doc(_base(rng, classes, "msupp-rank"))
    k = rng.randrange(1, len(table["values"]))
    cases = [
        Case("rank_function/p-not-integer", ["msupp-rank", "--json", _dump({**table, "p": "x"})]),
        Case("rank_function/missing-values", ["msupp-rank", "--json", _dump({"p": table["p"]})]),
        Case("rank_function/short-table", ["msupp-rank", "--json", _dump({**table, "values": table["values"][:k]})]),
        Case("rank_function/malformed-json", ["msupp-rank", "--json", _dump(table)[: -rng.randint(2, 9)]]),
    ]
    if with_valid:
        # a float that truncates back to the valid entry: only a check
        # on the JSON type can refuse it
        valid = _doc(_base(rng, classes, "msupp-rank", valid=True))
        values = list(valid["values"])
        values[k % len(values)] += 0.5
        cases.append(Case("rank_function/float-entry", ["msupp-rank", "--json", _dump({**valid, "values": values})]))
    return cases


def _family_cases(rng, classes) -> list[Case]:
    family = _doc(_base(rng, classes, "msupp-linear"))
    rational = rng.choice([f for f in map(_doc, _argvs(classes, "msupp-linear")) if f["field"] == "Q"])

    def with_entry(doc, value):
        subspaces = json.loads(json.dumps(doc["subspaces"]))
        j = rng.randrange(len(subspaces))
        subspaces[j][0][rng.randrange(doc["ambient"])] = value
        return ["msupp-linear", "--json", _dump({**doc, "subspaces": subspaces})]

    ragged = json.loads(json.dumps(family["subspaces"]))
    ragged[rng.randrange(len(ragged))][0].append("1")
    return [
        Case("subspace_family/zero-denominator", with_entry(rational, f"{rng.randint(1, 5)}/0")),
        Case("subspace_family/float-entry", with_entry(rational, 0.1)),
        Case("subspace_family/bad-field", ["msupp-linear", "--json", _dump({**family, "field": "Fp:8"})]),
        Case("subspace_family/ragged", ["msupp-linear", "--json", _dump({**family, "subspaces": ragged})]),
    ]


def _support_cases(rng, classes) -> list[Case]:
    support = _doc(_base(rng, classes, "mconvex"))
    points = support["points"]
    i = rng.randrange(len(points))
    k = rng.randrange(support["p"])

    def with_point(point):
        return ["mconvex", "--json", _dump({**support, "points": points[:i] + [point] + points[i + 1 :]})]

    heavier = list(points[i])
    heavier[k] += 1
    return [
        Case("support/non-integer-entry", with_point(points[i][:k] + ["a"] + points[i][k + 1 :])),
        Case("support/float-entry", with_point(points[i][:k] + [points[i][k] + 0.5] + points[i][k + 1 :])),
        Case("support/points-not-list", ["mconvex", "--json", _dump({**support, "points": len(points)})]),
        Case("support/mixed-weights", with_point(heavier)),
        Case("support/empty", ["mconvex", "--json", _dump({**support, "points": []})]),
    ]


def _complex_cases(rng, classes) -> list[Case]:
    cx = _doc(_base(rng, classes, "facet-support"))
    facets = cx["facets"]
    f = rng.randrange(len(facets))
    outside = [list(facets[f][:-1]) + [cx["nverts"] + 1]]
    nested = [facets[f][:2]] if len(facets[f]) > 2 else [facets[f][:1]]
    return [
        Case("simplicial_complex/vertex-out-of-range", ["sr-ideal", "--json", _dump({**cx, "facets": facets + outside})]),
        Case("simplicial_complex/nested-facets", ["facet-support", "--json", _dump({**cx, "facets": facets + nested})]),
        Case("simplicial_complex/nverts-not-integer", ["sr-ideal", "--json", _dump({**cx, "nverts": "x"})]),
    ]


def _ideal_cases(rng, classes) -> list[Case]:
    ideal = _doc(_base(rng, classes, "kpoly"))
    gens = ideal["generators"]
    g = rng.randrange(len(gens))
    v = gens[g].index(1)
    floated = [list(x) for x in gens]
    floated[g][v] = 1.5
    multiple = list(gens[g])
    multiple[(v + 1) % len(multiple)] += 1
    missing = {k: x for k, x in ideal.items() if k != "degrees"}
    return [
        Case("monomial_ideal/generators-not-list", ["kpoly", "--json", _dump({**ideal, "generators": len(gens)})]),
        Case("monomial_ideal/not-minimal", ["kpoly", "--json", _dump({**ideal, "generators": gens + [multiple]})]),
        Case("monomial_ideal/float-exponent", ["kpoly", "--json", _dump({**ideal, "generators": floated})]),
        Case("monomial_ideal/missing-degrees", ["multidegree", "--json", _dump(missing)]),
    ]


def _icosahedron_case(main) -> Case:
    path = str(ROOT / "fixtures" / "icosahedron.json")
    single, pairs = (
        call(main, ["sr-ideal", "--input", path, "--vars-per-vertex", v]).stdout.decode("utf-8") for v in "12"
    )
    return Case("monomial_ideal/icosahedron-pairs", ["multidegree", "--json", pairs], same_as=["multidegree", "--json", single])


def _polytope_cases(rng, classes) -> list[Case]:
    tuple_ = _doc(_base(rng, classes, "mixedvol"))["polytopes"]
    d = tuple_[0]["d"]
    j = rng.randrange(len(tuple_))

    def with_vertex(entry):
        polys = json.loads(json.dumps(tuple_))
        polys[j]["vertices"][0][rng.randrange(d)] = entry
        return ["mixedvol", "--json", _dump({"polytopes": polys})]

    other = [{"d": d + 1, "vertices": [[0] * (d + 1)]}] if d < 3 else [{"d": 2, "vertices": [[0, 0]]}]
    positivity = _base(rng, classes, "positivity")
    pos_doc = _doc(positivity)
    n = positivity[positivity.index("--n") + 1].split(",")
    return [
        Case("polytopes/missing-key", ["mixedvol", "--json", _dump({"tuple": tuple_})]),
        Case("polytopes/zero-denominator", with_vertex(f"{rng.randint(1, 3)}/0")),
        Case("polytopes/float-vertex", with_vertex(0.1)),
        Case("polytopes/dimension-4", ["mixedvol", "--json", _dump({"polytopes": [{"d": 4, "vertices": [[0, 0, 0, 0]]}]})]),
        Case("polytopes/mismatched-dimensions", ["mixedvol", "--json", _dump({"polytopes": tuple_ + other})]),
        Case("positivity/n-wrong-length", ["positivity", "--json", _dump(pos_doc), "--n", ",".join(n + ["0"])]),
        Case("positivity/n-not-integer", ["positivity", "--json", _dump({**pos_doc, "n": n[:-1] + ["x"]})]),
    ]


def cases(main, workload: str, classes: list[JobClass], seed: int) -> list[Case]:
    rng = random.Random(f"contract:{seed}")
    if workload == "enumerate":
        found = _rank_cases(rng, classes, with_valid=True) + _family_cases(rng, classes)
        found += [
            Case("permutation/repeated-entry", ["schubert", "--perm", "1,1," + ",".join(str(i) for i in range(3, rng.randint(6, 9)))]),
            Case("m0n/p-zero", ["m0n", "--p", "0"]),
        ]
    elif workload == "certify":
        found = _support_cases(rng, classes) + _rank_cases(rng, classes, with_valid=False)
    elif workload == "sr-ideals":
        found = _complex_cases(rng, classes) + _ideal_cases(rng, classes) + [_icosahedron_case(main)]
    else:
        found = _polytope_cases(rng, classes)
    base = _base(rng, classes, found[0].argv[0], valid=True)
    found.append(Case("output/missing-directory", list(base) + ["--output", str(MISSING_OUTPUT)]))
    return found


def failure(main, case: Case) -> str | None:
    """None when the case meets the contract, else what went wrong."""
    outcome: Outcome = call(main, case.argv)
    if outcome.error is not None:
        return f"raises {outcome.error}"
    if case.same_as is not None:
        expected = call(main, case.same_as)
        if outcome.exit != 0 or outcome.stdout != expected.stdout:
            return f"exit {outcome.exit}, stdout differs from {case.same_as[0]} on the reference input"
        return None
    if outcome.exit not in (2, 3):
        return f"accepted with exit {outcome.exit}"
    report = outcome.stderr_json()
    if not isinstance(report, dict) or "error" not in report:
        return f"exit {outcome.exit} without a JSON error on stderr"
    return None
