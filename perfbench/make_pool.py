"""Build the job pools in `pool/` and record every job's expected outcome.

    python3 perfbench/make_pool.py [workload ...]

Each workload is a list of job classes; each class gets a pool of jobs
generated from the fixed POOL_SEED.  Some inputs are derived from the
program's own output (the rank tables fed to `msupp-rank` come from
`msupp-linear`, the ideals fed to `kpoly` come from `sr-ideal`); the
expected exit code, stdout sha256 and report stderr are those of the
program at the commit that ran this script.  `tests/test_oracles.py`
checks those expectations against independent oracles.  Re-run this
script only when the CLI's output bytes change on purpose, and say so.
"""

from __future__ import annotations

import json
import random
import sys
import time
from itertools import combinations

from jobs import POOL_DIR, WORKLOADS, call, import_cli

POOL_SEED = 2005_07808
# rounds in a run of the standard length (BENCHMARK.json run_seconds)
POOL_ROUNDS = 5
FIXTURES = POOL_DIR.parent.parent / "fixtures"

cli_main = import_cli().main


def _compact(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _run_json(argv: list[str]):
    outcome = call(cli_main, argv)
    if outcome.exit != 0 or outcome.error:
        raise RuntimeError(f"{argv[:3]} failed: {outcome}")
    return json.loads(outcome.stdout)


def _perm(rng: random.Random, p: int) -> list[int]:
    pi = list(range(1, p + 1))
    rng.shuffle(pi)
    return pi


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _family(rng: random.Random, p: int, field: str, ambient: int | None = None) -> dict:
    """p random subspaces of dimension 1-2 in an ambient space of
    dimension 3-5 unless given; over Q some entries are fractions."""
    ambient = ambient or rng.randint(3, 5)
    subspaces = []
    for _ in range(p):
        vecs = []
        for _ in range(rng.choice((1, 1, 2))):
            if field == "Q":
                vec = [str(rng.randint(-2, 2)) for _ in range(ambient)]
                k = rng.randrange(ambient)
                vec[k] = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
            else:
                prime = int(field[3:])
                vec = [str(rng.randrange(prime)) for _ in range(ambient)]
            vecs.append(vec)
        subspaces.append(vecs)
    return {"ambient": ambient, "field": field, "subspaces": subspaces}


def _complex(rng: random.Random, n: int) -> dict:
    """Random 2-complex on n vertices: random triangles plus the edges
    needed to reach every vertex."""
    triangles = rng.sample(list(combinations(range(1, n + 1), 3)), rng.randint(n, 2 * n))
    facets = [list(t) for t in triangles]
    covered = {v for t in triangles for v in t}
    for v in range(1, n + 1):
        if v not in covered:
            facets.append(sorted([v, 1 if v != 1 else 2]))
    return {"nverts": n, "facets": sorted(facets)}


def _polytope(rng: random.Random, d: int, npoints: int) -> dict:
    return {"d": d, "vertices": [[rng.randint(0, 3) for _ in range(d)] for _ in range(npoints)]}


def _flat_polytope(rng: random.Random, d: int) -> dict:
    """A point or a lattice segment, so that positivity can fail."""
    a = [rng.randint(0, 3) for _ in range(d)]
    if rng.random() < 0.5:
        return {"d": d, "vertices": [a]}
    b = [rng.randint(0, 3) for _ in range(d)]
    return {"d": d, "vertices": [a, b]}


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


# -- workloads ---------------------------------------------------------------
#
# Each generator yields (class, why, per_round, argvs).  A class either
# repeats a fixed list every round (len(argvs) == per_round) or has
# per_round * POOL_ROUNDS distinct jobs, so that a standard run uses each
# of them once.  Either way every seed times the same multiset of jobs,
# which keeps percentiles steady from seed to seed.


def enumerate_classes(rng):
    # p=9 twice per round (once count-only): with 3 heavier jobs per
    # round and 40 jobs in all, the p90 rank falls inside the p=9 block
    yield "m0n", "output-sensitive enumeration with a Catalan-number count; p=10 prints 16,796 points", 5, [
        ["m0n", "--p", "7"], ["m0n", "--p", "8"], ["m0n", "--p", "9"], ["m0n", "--p", "9", "--count-only"], ["m0n", "--p", "10"]
    ]
    yield "flag", "flag rank table, enumeration, and the comparator over every composition of binom(p+1,2)", 3, [
        ["flag", "--p", str(p)] for p in (4, 5, 6)
    ]
    seen = set()
    for p in (6, 7, 8, 9):
        argvs = []
        while len(argvs) < 2 * POOL_ROUNDS:
            pi = tuple(_perm(rng, p))
            if pi in seen:
                continue
            seen.add(pi)
            argv = ["schubert", "--perm", _csv(pi)]
            if len(argvs) % 2:
                argv.append("--exponent-coordinates")
            argvs.append(argv)
        yield f"schubert-S{p}", "divided differences through the shared cache plus the theta polytope; p<=9 because one S_10 permutation takes 10 s", 2, argvs
    argvs = []
    for _ in range(10 * POOL_ROUNDS):
        p = rng.randint(6, 9)
        subset = sorted(rng.sample(range(1, p + 1), rng.randint(0, p)))
        argvs.append(["theta", "--perm", _csv(_perm(rng, p)), "--subset", _csv(subset)])
    yield "theta", "one theta value of a Rothe diagram: the cheap floor of the latency distribution", 10, argvs
    small_q = [_family(rng, 7 + k % 2, "Q") for k in range(2 * POOL_ROUNDS)]
    big_q = [_family(rng, 10, "Q", ambient=rng.randint(4, 5)) for _ in range(POOL_ROUNDS)]
    fp = [_family(rng, 7 + k % 4, f"Fp:{rng.choice((5, 7, 11))}") for k in range(4 * POOL_ROUNDS)]
    yield "linear-Q", "rank tables by Fraction elimination over all 2^p subsets (p 7-8), then enumeration", 2, [
        ["msupp-linear", "--json", _compact(f)] for f in small_q
    ]
    yield "linear-Q10", "the same at p=10, where 1,024 eliminations make it the slowest random job", 1, [
        ["msupp-linear", "--json", _compact(f)] for f in big_q
    ]
    yield "linear-Fp", "families over F_p (p 7-10): elimination is cheap, enumeration dominates", 4, [
        ["msupp-linear", "--json", _compact(f)] for f in fp
    ]
    families = small_q + big_q + fp
    rng.shuffle(families)
    tables = [_run_json(["msupp-linear", "--json", _compact(f)])["rank_function"] for f in families[: 7 * POOL_ROUNDS]]
    yield "rank", "msupp-rank on rank tables of those families: validation plus enumeration, no elimination", 7, [
        ["msupp-rank", "--json", _compact(t)] for t in tables
    ]


def _mconvex_supports(rng, want: int) -> list[dict]:
    """Supports of 200-500 points from random F_p families with p 6-8."""
    found = []
    while len(found) < want:
        family = _family(rng, rng.randint(6, 8), f"Fp:{rng.choice((5, 7))}")
        support = _run_json(["msupp-linear", "--json", _compact(family)])["support"]
        if 200 <= len(support["points"]) <= 500:
            found.append(support)
    return found


def _break(rng, support: dict) -> dict:
    """Remove one point, or move one point by -e_i + e_j off the set."""
    points = [list(pt) for pt in support["points"]]
    victim = points.pop(rng.randrange(len(points)))
    if rng.random() < 0.5:
        present = {tuple(pt) for pt in points} | {tuple(victim)}
        moves = [
            (i, j)
            for i in range(len(victim))
            for j in range(len(victim))
            if i != j and victim[i] > 0
        ]
        rng.shuffle(moves)
        for i, j in moves:
            moved = list(victim)
            moved[i] -= 1
            moved[j] += 1
            if tuple(moved) not in present:
                points.append(moved)
                break
    return {"p": support["p"], "points": sorted(points)}


def certify_classes(rng):
    # No layer on the certify path caches, so every round checks the
    # whole pool again; that keeps the pool file small.
    supports = _mconvex_supports(rng, 24)
    yield "mconvex-ok", "M-convex supports of 200-500 points: the exchange test runs to the end over every pair", 12, [
        ["mconvex", "--json", _compact(s)] for s in supports[:12]
    ]
    yield "mconvex-broken", "one point removed or moved: the test stops at the first witness", 12, [
        ["mconvex", "--json", _compact(_break(rng, s))] for s in supports[12:]
    ]
    argvs = []
    while len(argvs) < 24:
        family = _family(rng, rng.randint(8, 11), f"Fp:{rng.choice((5, 7, 11))}")
        table = _run_json(["msupp-linear", "--json", _compact(family)])["rank_function"]
        values = list(table["values"])
        values[rng.randrange(1, len(values))] += rng.choice((-1, 1))
        argv = ["msupp-rank", "--json", _compact({"p": table["p"], "values": values})]
        if call(cli_main, argv).exit == 2:
            argvs.append(argv)
    yield "rank-corrupt", "one corrupted rank entry (p 8-11): validation reports violations with exit 2", 24, argvs


def sr_ideal_classes(rng):
    argvs = []
    for name in ("octahedron", "icosahedron"):
        doc = _compact(json.loads((FIXTURES / f"{name}.json").read_text()))
        ideal = _compact(_run_json(["sr-ideal", "--json", doc]))
        argvs += [
            ["sr-ideal", "--json", doc],
            ["facet-support", "--json", doc],
            ["kpoly", "--json", ideal],
            ["multidegree", "--json", ideal],
        ]
        if name == "octahedron":
            pair = _compact(_run_json(["sr-ideal", "--json", doc, "--vars-per-vertex", "2"]))
            argvs += [["kpoly", "--json", pair], ["multidegree", "--json", pair]]
    yield "fixtures", "octahedron and icosahedron from the paper; the icosahedron multidegree is the slowest job", 10, argvs
    complexes = [_compact(_complex(rng, 8 + k % 4)) for k in range(12 * POOL_ROUNDS)]
    ideals = [_compact(_run_json(["sr-ideal", "--json", cx])) for cx in complexes]
    yield "complex", "sr-ideal and facet-support on random 2-complexes: minimal non-faces, no K-polynomial", 4, [
        [("sr-ideal", "facet-support")[k % 2], "--json", cx] for k, cx in enumerate(complexes[: 4 * POOL_ROUNDS])
    ]
    yield "kpoly", "the K-polynomial recursion on random Stanley-Reisner ideals (8-11 vertices)", 4, [
        ["kpoly", "--json", i] for i in ideals[4 * POOL_ROUNDS : 8 * POOL_ROUNDS]
    ]
    yield "multidegree", "recursion plus the substitution t -> 1-t and the degree filter", 4, [
        ["multidegree", "--json", i] for i in ideals[8 * POOL_ROUNDS :]
    ]
    small = [cx for cx in complexes if json.loads(cx)["nverts"] <= 10][: 4 * POOL_ROUNDS]
    pairs = [_compact(_run_json(["sr-ideal", "--json", cx, "--vars-per-vertex", "2"])) for cx in small]
    yield "pair", "one projective line per vertex: twice the variables in the same grading (at most 20)", 4, [
        [("kpoly", "multidegree")[k % 2], "--json", i] for k, i in enumerate(pairs)
    ]


def polytope_classes(rng):
    def tuples(count: int, d: int, p: int, lo: int, hi: int) -> list[list[str]]:
        return [
            ["mixedvol", "--json", _compact({"polytopes": [_polytope(rng, d, rng.randint(lo, hi)) for _ in range(p)]})]
            for _ in range(count)
        ]

    yield "mixedvol-2d", "mixed areas of 3-4 plane polytopes: 2D hulls of Minkowski sums and one exact solve", 8, (
        tuples(4 * POOL_ROUNDS, 2, 3, 2, 5) + tuples(4 * POOL_ROUNDS, 2, 4, 2, 5)
    )
    yield "mixedvol-3d-pair", "mixed volumes of two space polytopes: few small 3D hulls", 2, tuples(2 * POOL_ROUNDS, 3, 2, 3, 6)
    yield "mixedvol-3d-triple", "three space polytopes: 3D hulls of 10 weighted Minkowski sums, the slowest jobs", 4, tuples(4 * POOL_ROUNDS, 3, 3, 4, 6)
    argvs = []
    for k in range(10 * POOL_ROUNDS):
        d = 2 + k % 2
        p = rng.randint(2, 4)
        polys = [
            _flat_polytope(rng, d) if rng.random() < 0.3 else _polytope(rng, d, rng.randint(2, 5))
            for _ in range(p)
        ]
        n = _composition(rng, d, p)
        argvs.append(["positivity", "--json", _compact({"polytopes": polys}), "--n", _csv(n)])
    yield "positivity", "dimension tests of partial Minkowski sums against the segments route; some tuples are flat", 10, argvs


GENERATORS = {
    "enumerate": enumerate_classes,
    "certify": certify_classes,
    "sr-ideals": sr_ideal_classes,
    "polytopes": polytope_classes,
}


def build(workload: str) -> dict:
    rng = random.Random(f"{POOL_SEED}:{workload}")
    classes = []
    for name, why, per_round, argvs in GENERATORS[workload](rng):
        jobs = []
        for argv in argvs:
            start = time.perf_counter()
            outcome = call(cli_main, argv)
            elapsed = time.perf_counter() - start
            if outcome.error is not None:
                raise RuntimeError(f"{name} job raised {outcome.error}: {argv[:3]}")
            job = {"argv": argv, "exit": outcome.exit, "stdout_sha256": outcome.stdout_sha256}
            if outcome.exit == 2:
                job["stderr_json"] = outcome.stderr_json()
            jobs.append(job)
            print(f"{workload:10s} {name:16s} {elapsed * 1e3:9.1f} ms  {len(outcome.stdout):8d} B", file=sys.stderr)
        classes.append({"name": name, "why": why, "per_round": per_round, "jobs": jobs})
    return {"workload": workload, "pool_seed": POOL_SEED, "classes": classes}


def main(argv: list[str]) -> None:
    for workload in argv or WORKLOADS:
        document = build(workload)
        path = POOL_DIR / f"{workload}.json"
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
