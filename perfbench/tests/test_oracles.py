"""Cross-checks of the recorded pool expectations against independent
oracles, on the small instances of each pool.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Each test runs a pool job, requires the outcome the pool recorded, and
then checks that output against a computation that shares no code path
with the library route that produced it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from jobs import ROOT, call, import_cli, load_pool  # noqa: E402

MAIN = import_cli().main
sys.path.insert(0, str(ROOT / "tests"))
import pipe_dreams  # noqa: E402
from multidegree import Grading, MonomialIdeal, Permutation, hilbert_function_oracle  # noqa: E402


def pool_jobs(workload: str, *classes: str):
    return [job for c in load_pool(workload) if c.name in classes for job in c.jobs]


def checked_output(job) -> dict:
    """Run the job, require the recorded outcome, return its stdout JSON."""
    outcome = call(MAIN, list(job.argv))
    assert job.check(outcome), f"{job.argv[:3]} no longer gives the recorded outcome"
    return json.loads(outcome.stdout)


def json_arg(job) -> dict:
    return json.loads(job.argv[job.argv.index("--json") + 1])


def job_id(job) -> str:
    return " ".join(job.argv)[:60]


def bounded_compositions(total: int, caps: list[int]):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in bounded_compositions(total - first, caps[1:]):
            yield (first,) + rest


def brute_force_support(p: int, values: list[int]) -> list[list[int]]:
    """Every n with |n| = r([p]) and n(J) <= r(J) for all J, by filtering
    all compositions bounded by the singleton ranks."""
    caps = [values[1 << j] for j in range(p)]
    points = []
    for n in bounded_compositions(values[-1], caps):
        if all(
            sum(n[j] for j in range(p) if mask >> j & 1) <= values[mask]
            for mask in range(1 << p)
        ):
            points.append(list(n))
    return sorted(points)


# -- enumerate ---------------------------------------------------------------


def catalan(p: int) -> int:
    return comb(2 * p, p) // (p + 1)


@pytest.mark.parametrize("job", [j for j in pool_jobs("enumerate", "m0n") if j.argv[2] != "10"], ids=job_id)
def test_m0n_count_is_catalan(job):
    out = checked_output(job)
    p = int(job.argv[2])
    count = out if "--count-only" in job.argv else out["count"]
    assert count == catalan(p)


@pytest.mark.parametrize("job", pool_jobs("enumerate", "schubert-S6"), ids=job_id)
def test_schubert_support_matches_pipe_dreams(job):
    out = checked_output(job)
    pi = Permutation([int(x) for x in job.argv[2].split(",")])
    oracle = pipe_dreams.schubert_via_pipe_dreams(pi)
    terms = {tuple(t["exp"]): int(t["coef"]) for t in out["polynomial"]["terms"]}
    assert terms == dict(oracle.terms)
    bound = pi.p - 1
    exponents = sorted(list(e) for e, c in oracle.terms.items() if c > 0)
    if "--exponent-coordinates" not in job.argv:
        exponents = sorted([bound - x for x in e] for e in exponents)
    assert out["support"]["points"] == exponents
    assert out["agrees"] is True


@pytest.mark.parametrize("job", [j for j in pool_jobs("enumerate", "rank") if json_arg(j)["p"] <= 7], ids=job_id)
def test_msupp_rank_matches_brute_force(job):
    out = checked_output(job)
    table = json_arg(job)
    assert out["support"]["points"] == brute_force_support(table["p"], table["values"])


def oracle_rank(rows: list[list[Fraction]], field: str) -> int:
    """Rank from sympy's own domain matrices, over Q or GF(p)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    domain = QQ if field == "Q" else GF(int(field[3:]))
    entries = [[domain.convert(sympy.Rational(x.numerator, x.denominator)) if field == "Q" else domain(int(x)) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()


@pytest.mark.parametrize("job", [j for j in pool_jobs("enumerate", "linear-Q", "linear-Fp") if len(json_arg(j)["subspaces"]) <= 7], ids=job_id)
def test_msupp_linear_matches_oracle_rank_and_brute_force(job):
    out = checked_output(job)
    family = json_arg(job)
    p = len(family["subspaces"])
    vectors = [[[Fraction(x) for x in v] for v in sub] for sub in family["subspaces"]]
    values = [
        oracle_rank([v for j in range(p) if mask >> j & 1 for v in vectors[j]], family["field"])
        for mask in range(1 << p)
    ]
    assert out["rank_function"]["values"] == values
    assert out["support"]["points"] == brute_force_support(p, values)


# -- certify -----------------------------------------------------------------


def exchange_witness(points: list[tuple[int, ...]]):
    """First (x, y, i) violating the exchange axiom, by brute force."""
    members = set(points)
    for x in points:
        for y in points:
            for i in range(len(x)):
                if x[i] > y[i] and not any(
                    x[j] < y[j] and tuple(x[k] - (k == i) + (k == j) for k in range(len(x))) in members
                    for j in range(len(x))
                ):
                    return x, y, i
    return None


@pytest.mark.parametrize("job", pool_jobs("certify", "mconvex-ok", "mconvex-broken")[::4], ids=job_id)
def test_mconvex_verdict_matches_exchange_axiom(job):
    out = checked_output(job)
    points = sorted(tuple(pt) for pt in json_arg(job)["points"])
    assert out["mconvex"] == (exchange_witness(points) is None)


@pytest.mark.parametrize("job", pool_jobs("certify", "rank-corrupt")[::6], ids=job_id)
def test_rank_corrupt_reports_genuine_violations(job):
    assert job.exit == 2 and call(MAIN, list(job.argv)).stderr_json() == job.stderr_json
    table = json_arg(job)
    values = table["values"]

    def rank(subset):
        return values[sum(1 << (j - 1) for j in subset)]

    violations = job.stderr_json["violations"]
    assert violations and job.stderr_json["valid"] is False
    for v in violations:
        a, b = (set(s) for s in v["subsets"])
        if v["axiom"] == "monotonicity":
            assert a < b and rank(a) > rank(b)
        elif v["axiom"] == "submodularity":
            assert rank(a) + rank(b) < rank(a | b) + rank(a & b)
        else:
            assert v["axiom"] == "normalization" and values[0] != 0


# -- sr-ideals ---------------------------------------------------------------


def ideal_of(doc: dict) -> MonomialIdeal:
    return MonomialIdeal(Grading(doc["nvars"], doc["p"], doc["degrees"]), [tuple(g) for g in doc["generators"]])


def small_kpoly_jobs():
    return [j for j in pool_jobs("sr-ideals", "fixtures", "kpoly", "pair") if j.argv[0] == "kpoly" and json_arg(j)["p"] <= 8]


@pytest.mark.parametrize("job", small_kpoly_jobs(), ids=job_id)
def test_kpolynomial_matches_hilbert_function_oracle(job):
    """Coefficients of K(t) / prod(1 - t^deg) against monomial counts,
    for every degree vector with entries at most 1 and total at most 3."""
    out = checked_output(job)
    doc = json_arg(job)
    ideal = ideal_of(doc)
    free = MonomialIdeal(ideal.grading, [])
    kpoly = {tuple(t["exp"]): int(t["coef"]) for t in out["polynomial"]["terms"]}
    p = doc["p"]
    for nu in product((0, 1), repeat=p):
        if sum(nu) > 3:
            continue
        series = sum(
            coef * hilbert_function_oracle(free, [n - e for n, e in zip(nu, exp)])
            for exp, coef in kpoly.items()
            if all(e <= n for e, n in zip(exp, nu))
        )
        assert series == hilbert_function_oracle(ideal, nu), nu


def single_grading(doc: dict) -> dict:
    """The one-variable-per-vertex ideal under a pair-graded one."""
    n = doc["p"]
    return {"nvars": n, "p": n, "degrees": doc["degrees"][:n], "generators": [g[:n] for g in doc["generators"]]}


@pytest.mark.parametrize(
    "job",
    [j for j in pool_jobs("sr-ideals", "fixtures", "pair") if j.argv[0] == "multidegree" and json_arg(j)["nvars"] > json_arg(j)["p"]],
    ids=job_id,
)
def test_pair_graded_multidegree_equals_single_grading(job):
    checked_output(job)
    single = json.dumps(single_grading(json_arg(job)), sort_keys=True, separators=(",", ":"))
    assert call(MAIN, ["multidegree", "--json", single]).stdout == call(MAIN, list(job.argv)).stdout


# -- polytopes ---------------------------------------------------------------


def shoelace_area(points: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Area of the convex hull: monotone chain, then the shoelace sum."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return Fraction(0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    ring = lower[:-1] + upper[:-1]
    return abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1]))) / 2


@pytest.mark.parametrize("job", pool_jobs("polytopes", "mixedvol-2d")[::3], ids=job_id)
def test_mixed_areas_match_shoelace(job):
    out = checked_output(job)
    polys = [[tuple(Fraction(x) for x in v) for v in k["vertices"]] for k in json_arg(job)["polytopes"]]
    table = {tuple(e["n"]): Fraction(e["v"]) for e in out["entries"]}
    for i, j in combinations(range(len(polys)), 2):
        both = [(a[0] + b[0], a[1] + b[1]) for a in polys[i] for b in polys[j]]
        n = tuple(int(k in (i, j)) for k in range(len(polys)))
        assert table[n] == (shoelace_area(both) - shoelace_area(polys[i]) - shoelace_area(polys[j])) / 2
    for i in range(len(polys)):
        assert table[tuple(2 * (k == i) for k in range(len(polys)))] == shoelace_area(polys[i])
