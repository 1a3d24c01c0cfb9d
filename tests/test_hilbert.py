"""K-polynomials, Hilbert-function oracle, multidegrees, and
Stanley-Reisner constructions.

The brute-force monomial count is the oracle for the Hilbert series; a
test-local recursion with randomized pivot choices is the oracle for
pivot-independence of the K-polynomial, and the per-node IntPolynomial
recursion of `kpoly_oracle` the oracle for its packed accumulator and
node count; the face sum of `kpoly_oracle`, one subset at a time, the
oracle for the face table of squarefree ideals, and the arithmetic of
that recursion the oracle for the packed keys both routes build; the
lowest-degree part of K(S/I; 1 - t) and the box walk of
`box_walk_oracle` are the oracles for the multidegree by additivity, an
exhaustive subset search the oracle for the minimum primes, and the
vertex-subset search of `nonface_oracle` the oracle for the minimal
non-faces.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations, product
from operator import le
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree import (
    BudgetExceededError,
    Grading,
    IntPolynomial,
    MonomialIdeal,
    RankFunction,
    SimplicialComplex,
    Support,
    ValidationError,
    facet_support,
    hilbert_function_oracle,
    hollow_triangle,
    icosahedron_boundary,
    is_mconvex,
    kpolynomial,
    minimum_primes,
    msupp_from_rank,
    multidegree_polynomial,
    octahedron_boundary,
    quotient_krull_dimension,
    stanley_reisner_ideal,
)
from multidegree import errors, hilbert, poly
from multidegree.hilbert import (
    MAX_GROUND_SET,
    _face_table_kpolynomial,
    _length_at,
    _minimalize,
    _recursive_kpolynomial,
)

from box_walk_oracle import box_walk_multidegree
from divided_difference_oracle import assert_divided_differences_match
from kpoly_oracle import face_sum_oracle, kpolynomial_oracle, minimalize
from nonface_oracle import minimal_nonfaces_oracle
from pretty_oracle import pretty_oracle


@contextmanager
def recursion_budget(nodes):
    """DEFAULT_RECURSION_BUDGET set to `nodes` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "DEFAULT_RECURSION_BUDGET", nodes)
        yield


def ideal_2vars(*generators):
    return MonomialIdeal(Grading.standard(2), generators)


def random_ideal(
    rng, max_vars=6, max_p=3, entries=(0, 0, 1, 2), max_gens=5, degree_entries=(0, 0, 1, 2)
):
    """Random monomial ideal: non-squarefree generators, non-standard grading."""
    nvars = rng.randint(1, max_vars)
    p = rng.randint(1, max_p)
    degrees = []
    for _ in range(nvars):
        degree = [0] * p
        while not any(degree):
            degree = [rng.choice(degree_entries) for _ in range(p)]
        degrees.append(degree)
    gens = set()
    for _ in range(rng.randint(0, max_gens)):
        exps = tuple(rng.choice(entries) for _ in range(nvars))
        if any(exps) and not any(all(x <= y for x, y in zip(g, exps)) for g in gens):
            gens = {g for g in gens if not all(x <= y for x, y in zip(exps, g))}
            gens.add(exps)
    return MonomialIdeal(Grading(nvars, p, degrees), gens)


def multidegree_oracle(ideal):
    """Lowest-degree part of K(S/I; 1 - t): the expansion route."""
    expanded = kpolynomial(ideal).substitute_one_minus()
    return expanded.truncate_total_degree(min(sum(e) for e in expanded.terms))


def minimum_covers_oracle(ideal):
    """Smallest variable sets meeting every generator support, by trying
    every subset in order of size."""
    nvars = ideal.grading.nvars
    supports = [{v for v, e in enumerate(g) if e} for g in ideal.generators]
    for size in range(nvars + 1):
        covers = [
            c
            for c in combinations(range(nvars), size)
            if all(set(c) & s for s in supports)
        ]
        if covers:
            return covers
    raise AssertionError("the set of all variables is always a cover")


def transversal_rank(grading, cover):
    """r_P(J) = #{i in P : deg x_i meets J}, the rank function whose base
    polytope holds the support of prod_{i in P} <deg x_i, t>."""
    meets = [sum(1 << j for j, d in enumerate(grading.degree_of[v]) if d) for v in cover]
    return RankFunction(
        grading.p, [sum(1 for m in meets if m & mask) for mask in range(1 << grading.p)]
    )


@st.composite
def monomial_ideals(draw):
    nvars = draw(st.integers(1, 5))
    p = draw(st.integers(1, 3))
    nonzero = st.lists(st.integers(0, 2), min_size=p, max_size=p).filter(any)
    degrees = draw(st.lists(nonzero, min_size=nvars, max_size=nvars))
    exponents = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(any)
    candidates = {tuple(e) for e in draw(st.lists(exponents, max_size=5))}
    gens = [
        g
        for g in candidates
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in candidates)
    ]
    return MonomialIdeal(Grading(nvars, p, degrees), gens)


@st.composite
def squarefree_ideals(draw):
    """Squarefree ideals in a random positive grading, or in a pair
    grading, where variables v and v + k have the same degree."""
    p = draw(st.integers(1, 3))
    nonzero = st.lists(st.integers(0, 2), min_size=p, max_size=p).filter(any)
    if draw(st.booleans()):
        degrees = draw(st.lists(nonzero, min_size=1, max_size=4)) * 2
    else:
        degrees = draw(st.lists(nonzero, min_size=1, max_size=7))
    nvars = len(degrees)
    drawn = draw(st.lists(st.frozensets(st.integers(0, nvars - 1), min_size=1), max_size=10))
    minimal = {s for s in drawn if not any(t < s for t in drawn)}
    gens = [tuple(int(v in s) for v in range(nvars)) for s in minimal]
    return MonomialIdeal(Grading(nvars, p, degrees), gens)


def used_variables(ideal):
    return sorted({v for g in ideal.generators for v, e in enumerate(g) if e})


def kpoly_random_pivots(ideal, rng):
    """Reference recursion choosing pivots at random."""
    grading = ideal.grading

    def recurse(gens):
        if not gens:
            return IntPolynomial.one(grading.p)
        idx = rng.randrange(len(gens))
        m = gens[idx]
        rest = gens[:idx] + gens[idx + 1 :]
        colon = minimalize(
            tuple(max(g - mv, 0) for g, mv in zip(gen, m)) for gen in rest
        )
        t_deg = IntPolynomial.monomial(grading.p, grading.degree_of_monomial(m))
        return recurse(rest) - t_deg * recurse(colon)

    return recurse(ideal.generators)


def hilbert_series_coefficients_upto(ideal, box):
    """Coefficients of K(S/I) / prod_vars(1 - t^deg) for all nu <= box.

    The series is expanded exactly inside the coordinate box; exponents
    outside the box cannot influence those inside, so the truncation is
    safe.
    """

    def truncated_mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                if all(k <= m for k, m in zip(key, box)):
                    out[key] = out.get(key, 0) + c1 * c2
        return {e: c for e, c in out.items() if c != 0}

    series = {(0,) * ideal.grading.p: 1}
    for deg in ideal.grading.degree_of:
        factor = {}
        k = 0
        while all(k * d <= m for d, m in zip(deg, box)):
            factor[tuple(k * d for d in deg)] = 1
            k += 1
        series = truncated_mul(series, factor)
    return truncated_mul(series, kpolynomial(ideal).terms)


class TestKPolynomial:
    def test_zero_ideal(self):
        assert kpolynomial(ideal_2vars()) == IntPolynomial.one(2)

    def test_single_variable(self):
        expected = IntPolynomial(2, {(0, 0): 1, (1, 0): -1})
        assert kpolynomial(ideal_2vars((1, 0))) == expected

    def test_cross_term(self):
        expected = IntPolynomial(2, {(0, 0): 1, (1, 1): -1})
        assert kpolynomial(ideal_2vars((1, 1))) == expected

    def test_nonminimal_generators_rejected(self):
        with pytest.raises(ValidationError):
            ideal_2vars((1, 0), (1, 1))

    def test_pivot_choice_irrelevant(self):
        rng = random.Random(211)
        tri = stanley_reisner_ideal(hollow_triangle())
        oct_pairs = stanley_reisner_ideal(octahedron_boundary(), vars_per_vertex=2)
        mixed = MonomialIdeal(
            Grading.standard(3), [(2, 1, 0), (0, 1, 1), (1, 0, 2)]
        )
        for ideal in (tri, oct_pairs, mixed):
            reference = kpolynomial(ideal)
            for _ in range(5):
                assert kpoly_random_pivots(ideal, rng) == reference

    def test_series_identity_small(self):
        # coefficientwise: K/(prod(1-t^deg)) == brute-force monomial count
        cases = [
            (ideal_2vars((1, 1)), (3, 3)),
            (stanley_reisner_ideal(hollow_triangle()), (2, 2, 2)),
            (
                MonomialIdeal(Grading.standard(3), [(2, 1, 0), (0, 1, 1), (1, 0, 2)]),
                (2, 2, 2),
            ),
        ]
        for ideal, bound in cases:
            series = hilbert_series_coefficients_upto(ideal, bound)
            for nu in product(*(range(b + 1) for b in bound)):
                assert series.get(nu, 0) == hilbert_function_oracle(ideal, nu)

    def test_budget_guard(self):
        ico = stanley_reisner_ideal(icosahedron_boundary())
        with recursion_budget(50), pytest.raises(BudgetExceededError):
            _recursive_kpolynomial(ico)

    def test_budget_guard_of_the_public_function(self):
        # not squarefree, so the public function takes the recursion
        ideal = MonomialIdeal(Grading.standard(3), [(2, 1, 0), (0, 1, 1), (1, 0, 2)])
        expected, nodes = kpolynomial_oracle(ideal)
        with recursion_budget(nodes):
            assert kpolynomial(ideal) == expected
        message = f"K-polynomial recursion nodes: {nodes} exceeds the budget of {nodes - 1}"
        with recursion_budget(nodes - 1), pytest.raises(BudgetExceededError, match=message):
            kpolynomial(ideal)


def assert_matches_oracle(ideal):
    """Equal polynomial, and a node budget of the recursion that the
    oracle's node count meets exactly."""
    expected, nodes = kpolynomial_oracle(ideal)
    assert kpolynomial(ideal) == expected
    with recursion_budget(nodes):
        assert _recursive_kpolynomial(ideal) == expected
    with recursion_budget(nodes - 1), pytest.raises(BudgetExceededError):
        _recursive_kpolynomial(ideal)


class TestKPolynomialAgainstOracle:
    def test_random_ideals(self):
        rng = random.Random(97)
        for _ in range(200):
            ideal = random_ideal(
                rng, entries=(0, 0, 1, 2, 3), max_gens=6, degree_entries=(0, 0, 1, 2, 3)
            )
            assert_matches_oracle(ideal)

    def test_pair_gradings(self):
        complexes = [
            hollow_triangle(),
            octahedron_boundary(),
            icosahedron_boundary(),
            SimplicialComplex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
            SimplicialComplex(4, [(1, 2, 3), (2, 3, 4)]),
        ]
        for complex_ in complexes:
            assert_matches_oracle(stanley_reisner_ideal(complex_, vars_per_vertex=2))
        # both variables of a pair in the generators
        grading = Grading(4, 2, [(1, 0), (0, 1), (1, 0), (0, 1)])
        assert_matches_oracle(MonomialIdeal(grading, [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 1)]))
        assert_matches_oracle(MonomialIdeal(grading, [(2, 0, 0, 0), (0, 0, 3, 0), (1, 1, 1, 1)]))
        # random ideals in which each degree belongs to two variables
        rng = random.Random(5)
        for _ in range(100):
            half = random_ideal(rng, max_vars=3, max_gens=0).grading
            nvars = 2 * half.nvars
            draws = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(nvars)) for _ in range(6)]
            gens = minimalize(g for g in draws if any(g))
            assert_matches_oracle(MonomialIdeal(Grading(nvars, half.p, half.degree_of * 2), gens))

    def test_exponents_at_the_lcm_bound(self):
        # the top term of a complete intersection is t^deg(lcm): every
        # packed digit sits at its largest value b_k
        cases = [
            (Grading.standard(3), [(2, 0, 0), (0, 3, 0), (0, 0, 1)]),
            (Grading(2, 2, [(1, 2), (3, 1)]), [(2, 0), (0, 3)]),
            (Grading(3, 3, [(1, 0, 2), (0, 1, 0), (3, 3, 1)]), [(1, 0, 0), (0, 2, 0), (0, 0, 2)]),
        ]
        for grading, gens in cases:
            ideal = MonomialIdeal(grading, gens)
            lcm = [max(column) for column in zip(*gens)]
            top = grading.degree_of_monomial(lcm)
            assert kpolynomial(ideal).coefficient(top) == (-1) ** len(gens)
            assert_matches_oracle(ideal)

    def test_zero_and_single_generator_ideals(self):
        gradings = [Grading.standard(1), Grading.standard(3), Grading(3, 2, [(1, 2), (3, 0), (1, 1)])]
        for grading in gradings:
            assert_matches_oracle(MonomialIdeal(grading, []))
        single = [
            (Grading.standard(1), (4,)),
            (Grading.standard(3), (1, 1, 1)),
            (Grading(3, 2, [(1, 2), (3, 0), (1, 1)]), (2, 0, 3)),
            (Grading(3, 2, [(1, 2), (3, 0), (1, 1)]), (0, 5, 0)),
        ]
        for grading, g in single:
            ideal = MonomialIdeal(grading, [g])
            assert kpolynomial(ideal) == IntPolynomial(
                grading.p, {(0,) * grading.p: 1, grading.degree_of_monomial(g): -1}
            )
            assert_matches_oracle(ideal)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monomial_ideals())
    def test_property(self, ideal):
        assert_matches_oracle(ideal)

    def test_minimalize_matches_oracle_on_colon_ideals(self):
        rng = random.Random(43)
        for _ in range(300):
            gens = random_ideal(rng, entries=(0, 0, 1, 2, 3), max_gens=8).generators
            for m in gens:
                quotients = [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens if g != m]
                assert _minimalize(quotients) == minimalize(quotients)
                mixed = quotients + list(gens)
                assert _minimalize(mixed) == minimalize(mixed)


class TestFaceTable:
    """The face table against the face sum and the recursion oracle, and
    the rule that picks the route."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(squarefree_ideals())
    def test_property(self, ideal):
        expected = face_sum_oracle(ideal)
        assert kpolynomial(ideal) == expected
        assert kpolynomial_oracle(ideal)[0] == expected
        # the table is right past the generator bound too
        assert _face_table_kpolynomial(ideal, used_variables(ideal)) == expected

    def test_fixtures(self):
        for complex_ in (hollow_triangle(), octahedron_boundary(), icosahedron_boundary()):
            ideal = stanley_reisner_ideal(complex_)
            assert kpolynomial(ideal) == face_sum_oracle(ideal)
            pairs = stanley_reisner_ideal(complex_, vars_per_vertex=2)
            assert kpolynomial(pairs) == kpolynomial_oracle(pairs)[0]

    def test_free_variables_do_not_change_k(self):
        grading = Grading(5, 2, [(1, 0), (0, 1), (1, 1), (2, 0), (0, 3)])
        ideal = MonomialIdeal(grading, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0)])
        assert used_variables(ideal) == [0, 1, 2]
        assert kpolynomial(ideal) == face_sum_oracle(ideal)

    @staticmethod
    def route(monkeypatch, ideal):
        taken = []
        monkeypatch.setattr(
            hilbert, "_face_table_kpolynomial", lambda ideal, variables: taken.append("table")
        )
        monkeypatch.setattr(
            hilbert, "_recursive_kpolynomial", lambda ideal: taken.append("recursion")
        )
        kpolynomial(ideal)
        return taken

    @staticmethod
    def cycle(n):
        """Squarefree ideal of the n edges of an n-cycle."""
        edges = [tuple(int(v in (i, (i + 1) % n)) for v in range(n)) for i in range(n)]
        return MonomialIdeal(Grading.standard(n), edges)

    def test_route_of_pinned_ideals(self, monkeypatch):
        product_20 = MonomialIdeal(Grading.standard(20), [(1,) * 20])
        cases = [
            (MonomialIdeal(Grading.standard(2), []), "table"),
            (ideal_2vars((1, 0)), "table"),
            (ideal_2vars((1, 1)), "recursion"),  # 2 variables, 1 generator
            (ideal_2vars((2, 0)), "recursion"),  # not squarefree
            (product_20, "recursion"),
            (stanley_reisner_ideal(octahedron_boundary()), "recursion"),  # 6 variables, 3 generators
            (stanley_reisner_ideal(icosahedron_boundary()), "table"),
            (stanley_reisner_ideal(icosahedron_boundary(), vars_per_vertex=2), "table"),
            (self.cycle(MAX_GROUND_SET), "table"),
            (self.cycle(MAX_GROUND_SET + 1), "recursion"),
        ]
        for ideal, expected in cases:
            assert self.route(monkeypatch, ideal) == [expected]

    def test_route_follows_the_rule(self, monkeypatch):
        rng = random.Random(29)
        routes = set()
        for _ in range(300):
            ideal = random_ideal(rng, max_vars=8, entries=(0, 0, 1, 1, 2), max_gens=10)
            gens = ideal.generators
            squarefree = all(e <= 1 for g in gens for e in g)
            small = len(used_variables(ideal)) <= min(MAX_GROUND_SET, len(gens))
            expected = "table" if squarefree and small else "recursion"
            assert self.route(monkeypatch, ideal) == [expected]
            routes.add(expected)
        assert routes == {"table", "recursion"}

    def test_product_of_twenty_variables(self):
        # three nodes of the recursion, where a table would have 2^20 entries
        ideal = MonomialIdeal(Grading.standard(20), [(1,) * 20])
        expected = IntPolynomial(20, {(0,) * 20: 1, (1,) * 20: -1})
        with recursion_budget(3):
            assert kpolynomial(ideal) == expected
        with recursion_budget(2), pytest.raises(BudgetExceededError):
            kpolynomial(ideal)

    def test_recursion_budget_does_not_bound_the_table(self):
        ico = stanley_reisner_ideal(icosahedron_boundary())
        expected = _recursive_kpolynomial(ico)
        with recursion_budget(1):
            assert kpolynomial(ico) == expected


@st.composite
def graded_ideals(draw):
    """Ideals, squarefree or not, in one of five gradings: fine
    (deg x_v = e_v), pair (x_v and x_{v+n} both of degree e_v), permuted
    unit (deg x_v = e_sigma(v)), coarse (p = 1, degrees 1 to 3) and
    random degree vectors with entries 0 to 2.  In the pair, coarse and
    random gradings two monomials can share a degree, so terms merge and
    can cancel."""
    kind = draw(st.sampled_from(["fine", "pair", "permuted", "coarse", "random"]))
    n = draw(st.integers(1, 5))
    units = [[int(j == k) for j in range(n)] for k in range(n)]
    if kind == "fine":
        degrees = units
    elif kind == "pair":
        degrees = units * 2
    elif kind == "permuted":
        degrees = [units[k] for k in draw(st.permutations(range(n)))]
    elif kind == "coarse":
        degrees = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=1), min_size=n, max_size=n))
    else:
        p = draw(st.integers(1, 3))
        nonzero = st.lists(st.integers(0, 2), min_size=p, max_size=p).filter(any)
        degrees = draw(st.lists(nonzero, min_size=n, max_size=n))
    nvars = len(degrees)
    top = 1 if draw(st.booleans()) else 3
    exponents = st.lists(st.integers(0, top), min_size=nvars, max_size=nvars).filter(any)
    candidates = {tuple(e) for e in draw(st.lists(exponents, max_size=6))}
    gens = [g for g in candidates if not any(h != g and all(map(le, h, g)) for h in candidates)]
    return MonomialIdeal(Grading(nvars, len(degrees[0]), degrees), gens)


def assert_packed_equals(packed, plain):
    """A K-polynomial against the same polynomial from the oracle's
    arithmetic: `len` and `render` first, which must read the packed keys
    alone, so they run with unpacking patched to raise, then every
    reading by exponent."""
    expected = plain.render()
    with mock.patch.object(poly, "_unpack", side_effect=AssertionError("unpacked a key")):
        assert len(packed) == len(plain)
        text, pretty = packed.render()
    assert (text, pretty) == expected
    assert text == json.dumps(plain.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert pretty == pretty_oracle(plain)
    assert packed == plain and plain == packed
    assert hash(packed) == hash(plain)
    assert packed.to_json_dict() == plain.to_json_dict()
    assert support_or_fault(packed) == support_or_fault(plain)


def support_or_fault(f):
    """f.support(), or the message of the ValidationError it raises when
    its positive terms have different total degrees."""
    try:
        return f.support()
    except ValidationError as exc:
        return str(exc)


class TestPackedForm:
    """Both K-polynomial routes build packed keys in bases of their own,
    and the result reads the same as the oracle recursion's in every way."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(graded_ideals())
    def test_property(self, ideal):
        plain = kpolynomial_oracle(ideal)[0]
        assert_packed_equals(kpolynomial(ideal), plain)
        assert_packed_equals(_recursive_kpolynomial(ideal), plain)
        if all(e <= 1 for g in ideal.generators for e in g):
            assert_packed_equals(_face_table_kpolynomial(ideal, used_variables(ideal)), plain)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(graded_ideals(), st.lists(st.integers(1, 2), min_size=1, max_size=4))
    def test_divided_differences_match_the_tuple_route(self, ideal, chain):
        f = kpolynomial(ideal)
        assert_divided_differences_match(f, [i for i in chain if i < f.nvars])

    def test_terms_merge_and_cancel(self):
        coarse = Grading(3, 1, [(1,), (1,), (2,)])
        cases = [
            # x1 x2 and x2 x3 have one degree: 1 - 2t^2 + t^3
            (MonomialIdeal(Grading(3, 1, [(1,)] * 3), [(1, 1, 0), (0, 1, 1)]), "1 - 2*t1^2 + t1^3"),
            # (1 - t)(1 - t)(1 - t^2): -t^2 from x3 cancels +t^2 from x1 x2
            (MonomialIdeal(coarse, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), "1 - 2*t1 + 2*t1^3 - t1^4"),
            # the hollow triangle in the pair grading: 2^6 subsets on 3 degrees
            (stanley_reisner_ideal(hollow_triangle(), vars_per_vertex=2), None),
        ]
        for ideal, pretty in cases:
            plain = kpolynomial_oracle(ideal)[0]
            for packed in (
                kpolynomial(ideal),
                _face_table_kpolynomial(ideal, used_variables(ideal)),
                _recursive_kpolynomial(ideal),
            ):
                assert_packed_equals(packed, plain)
            assert pretty in (None, plain.pretty())

    def test_twenty_variables(self):
        rng = random.Random(20)
        grading = Grading.standard(20)
        ideals = [MonomialIdeal(grading, [(1,) * 20])]
        for _ in range(5):
            gens = {tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(20)) for _ in range(4)}
            gens = [g for g in gens if any(g) and not any(h != g and all(map(le, h, g)) for h in gens)]
            ideals.append(MonomialIdeal(grading, gens))
        for ideal in ideals:
            assert_packed_equals(kpolynomial(ideal), kpolynomial_oracle(ideal)[0])
        assert kpolynomial(ideals[0]).pretty() == "1 - " + "*".join(f"t{i}" for i in range(1, 21))

    def test_exponents_past_a_byte(self):
        grading = Grading(2, 2, [(1, 0), (1, 3)])
        for gens in ([(300, 0)], [(256, 1), (0, 2)], [(255, 255)], [(1000, 0), (3, 400)]):
            ideal = MonomialIdeal(grading, gens)
            assert_packed_equals(kpolynomial(ideal), kpolynomial_oracle(ideal)[0])
        assert kpolynomial(MonomialIdeal(grading, [(300, 0)])).pretty() == "1 - t1^300"


class TestMinimalityCheck:
    def test_many_variables_checked_quickly(self):
        # 1,121,251 pairs of disjoint supports: the support masks settle
        # every pair without a coordinate comparison
        n = 1500
        gens = [tuple(int(v == i) for v in range(n)) for i in range(n - 1)]
        start = time.perf_counter()
        ideal = MonomialIdeal(Grading(n, 1, [(1,)] * n), gens)
        assert time.perf_counter() - start < 10.0
        assert len(ideal.generators) == n - 1


class TestHilbertOracle:
    def test_polynomial_ring_one_var_per_block(self):
        assert hilbert_function_oracle(ideal_2vars(), (2, 2)) == 1

    def test_two_vars_per_block(self):
        grading = Grading(4, 2, [(1, 0), (1, 0), (0, 1), (0, 1)])
        ideal = MonomialIdeal(grading, [])
        assert hilbert_function_oracle(ideal, (1, 1)) == 4

    def test_principal_variable_kills_high_degrees(self):
        grading = Grading(1, 1, [(1,)])
        ideal = MonomialIdeal(grading, [(1,)])
        for k in (1, 2, 3):
            assert hilbert_function_oracle(ideal, (k,)) == 0
        assert hilbert_function_oracle(ideal, (0,)) == 1

    def test_cross_term_kills_mixed_degree(self):
        assert hilbert_function_oracle(ideal_2vars((1, 1)), (1, 1)) == 0

    def test_float_degree_refused(self):
        with pytest.raises(ValidationError, match="not an integer"):
            hilbert_function_oracle(ideal_2vars(), (1.5, 1))

    def test_budget(self):
        grading = Grading(6, 1, [(1,)] * 6)
        ideal = MonomialIdeal(grading, [])
        with pytest.raises(BudgetExceededError):
            hilbert_function_oracle(ideal, (12,), budget=100)


class TestMultidegree:
    def test_zero_ideal_one_var(self):
        grading = Grading(1, 1, [(1,)])
        ideal = MonomialIdeal(grading, [])
        assert multidegree_polynomial(ideal) == IntPolynomial.one(1)

    def test_cross_term_two_blocks(self):
        # K = 1 - t1 t2; substitute: t1 + t2 - t1 t2; dim S/I = 1, codim 1
        expected = IntPolynomial(2, {(1, 0): 1, (0, 1): 1})
        assert multidegree_polynomial(ideal_2vars((1, 1))) == expected

    def test_octahedron_facet_formula(self):
        complex_ = octahedron_boundary()
        ideal = stanley_reisner_ideal(complex_, vars_per_vertex=2)
        result = multidegree_polynomial(ideal)
        expected_terms = {}
        for facet in complex_.facets:
            exp = tuple(0 if v in facet else 1 for v in range(1, 7))
            expected_terms[exp] = 1
        assert result == IntPolynomial(6, expected_terms)

    def test_facet_formula_for_small_complexes(self):
        # multidegree of a Stanley-Reisner quotient = sum over top facets
        # of the product of the complementary variables
        fixtures = [
            hollow_triangle(),
            octahedron_boundary(),
            SimplicialComplex(4, [(1, 2, 3), (2, 3, 4)]),
            SimplicialComplex(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
            SimplicialComplex(4, [(1, 2), (3, 4)]),
        ]
        for complex_ in fixtures:
            ideal = stanley_reisner_ideal(complex_)
            top = max(map(len, complex_.facets))
            expected_terms = {}
            for facet in complex_.facets:
                if len(facet) != top:
                    continue
                exp = tuple(
                    0 if v in facet else 1 for v in range(1, complex_.nverts + 1)
                )
                expected_terms[exp] = expected_terms.get(exp, 0) + 1
            assert multidegree_polynomial(ideal) == IntPolynomial(
                complex_.nverts, expected_terms
            )

    def test_krull_dimension(self):
        assert quotient_krull_dimension(ideal_2vars((1, 1))) == 1
        oct_pairs = stanley_reisner_ideal(octahedron_boundary(), vars_per_vertex=2)
        assert quotient_krull_dimension(oct_pairs) == 9
        ico_pairs = stanley_reisner_ideal(icosahedron_boundary(), vars_per_vertex=2)
        assert quotient_krull_dimension(ico_pairs) == 15
        assert (
            quotient_krull_dimension(stanley_reisner_ideal(hollow_triangle())) == 2
        )

    def test_dimension_beyond_20_variables(self):
        grading = Grading(21, 1, [(1,)] * 21)
        ideal = MonomialIdeal(grading, [tuple(1 if i < 2 else 0 for i in range(21))])
        assert quotient_krull_dimension(ideal) == 20
        assert multidegree_polynomial(ideal) == IntPolynomial(1, {(1,): 2})

    def test_degree_is_codimension_randomized(self):
        # the multidegree is homogeneous of degree nvars - dim(S/I), the
        # size of a minimum variable cover, found here by the exhaustive
        # subset search, on non-squarefree ideals and non-standard gradings
        rng = random.Random(8)
        for _ in range(150):
            ideal = random_ideal(rng)
            nvars = ideal.grading.nvars
            codimension = len(minimum_covers_oracle(ideal)[0])
            poly = multidegree_polynomial(ideal)
            assert poly.total_degree() == codimension
            assert quotient_krull_dimension(ideal) == nvars - codimension
            assert all(sum(e) == poly.total_degree() for e in poly.terms)


class TestMultidegreeByAdditivity:
    def test_matches_expansion_randomized(self):
        zero_ideals = [
            MonomialIdeal(Grading(len(d), len(d[0]), d), [])
            for d in ([(1, 0)], [(2, 1), (0, 3)], [(1, 1, 1)] * 3)
        ]
        # x^k has length k at (x)
        pure_powers = [MonomialIdeal(Grading(1, 2, [(2, 1)]), [(k,)]) for k in range(1, 7)]
        # (x^2, xy, y^3) has the four standard monomials 1, x, y, y^2
        artinian = [MonomialIdeal(Grading(2, 2, [(1, 2), (3, 0)]), [(2, 0), (1, 1), (0, 3)])]
        rng = random.Random(61)
        randomized = [random_ideal(rng, entries=(0, 0, 1, 2, 3), max_gens=6) for _ in range(300)]
        for ideal in zero_ideals + pure_powers + artinian + randomized:
            assert multidegree_polynomial(ideal) == multidegree_oracle(ideal)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monomial_ideals())
    def test_matches_expansion_property(self, ideal):
        assert multidegree_polynomial(ideal) == multidegree_oracle(ideal)

    def test_minimum_primes_match_exhaustive_search(self):
        rng = random.Random(17)
        for _ in range(300):
            ideal = random_ideal(rng, max_vars=7, max_gens=8)
            assert minimum_primes(ideal) == minimum_covers_oracle(ideal)

    def test_minimum_primes_of_fixtures(self):
        for complex_ in (hollow_triangle(), octahedron_boundary(), icosahedron_boundary()):
            top = max(map(len, complex_.facets))
            expected = sorted(
                tuple(v - 1 for v in range(1, complex_.nverts + 1) if v not in facet)
                for facet in complex_.facets
                if len(facet) == top
            )
            for pairs in (1, 2):
                ideal = stanley_reisner_ideal(complex_, vars_per_vertex=pairs)
                assert minimum_primes(ideal) == expected

    def test_pure_powers_only_after_restriction(self):
        # x1^2 x3 and x2^3 x3 become pure powers at the cover (x1, x2),
        # where the standard monomials are 1, x1, x2, x2^2; the box takes
        # the least of the powers x1^3, x1^2 of x1, and at (x1, x3) the
        # least of x1^3, x1
        ideal = MonomialIdeal(Grading.standard(3), [(3, 0, 0), (2, 0, 1), (0, 3, 1), (1, 1, 0)])
        assert minimum_primes(ideal) == [(0, 1), (0, 2)]
        assert _length_at(ideal, (0, 1), 100) == (4, 6)
        assert _length_at(ideal, (0, 2), 100) == (1, 1)
        expected = IntPolynomial(3, {(1, 1, 0): 4, (1, 0, 1): 1})
        assert multidegree_polynomial(ideal) == expected == multidegree_oracle(ideal)

    def test_length_without_a_pure_power_is_a_bug(self):
        with pytest.raises(AssertionError, match="non-Artinian"):
            _length_at(ideal_2vars((1, 1)), (0, 1), 100)

    def test_cover_search_budget(self):
        # 17 disjoint edges have 2^17 minimum covers
        grading = Grading.standard(34)
        edges = [tuple(int(v in (2 * i, 2 * i + 1)) for v in range(34)) for i in range(17)]
        with pytest.raises(BudgetExceededError, match="minimum-prime search"):
            multidegree_polynomial(MonomialIdeal(grading, edges))

    def test_cover_search_reads_the_recursion_budget_at_call_time(self):
        # nodes: the root, {x2}, {x1, x2} (a cover), {x2, x3} (cut), {x3}, {x1, x3}
        ideal = MonomialIdeal(Grading.standard(3), [(3, 0, 0), (2, 0, 1), (0, 3, 1), (1, 1, 0)])
        expected = IntPolynomial(3, {(1, 1, 0): 4, (1, 0, 1): 1})
        with recursion_budget(6):
            assert multidegree_polynomial(ideal) == expected
        message = "minimum-prime search nodes: 6 exceeds the budget of 5"
        with recursion_budget(5), pytest.raises(BudgetExceededError, match=message):
            multidegree_polynomial(ideal)

    def test_standard_monomial_budget(self):
        ideal = MonomialIdeal(Grading.standard(1), [(10**7,)])
        with pytest.raises(BudgetExceededError, match="standard-monomial count"):
            multidegree_polynomial(ideal)

    def test_standard_monomial_budget_is_shared_by_the_covers(self, monkeypatch):
        # x1^3 x2^3 x3^3 x4^3 has four minimum covers of a 3-cell box each
        ideal = MonomialIdeal(Grading.standard(4), [(3, 3, 3, 3)])
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 12)
        expected = {tuple(int(j == k) for j in range(4)): 3 for k in range(4)}
        assert multidegree_polynomial(ideal) == IntPolynomial(4, expected)
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 11)
        with pytest.raises(BudgetExceededError, match="standard-monomial count cells: 12 exceeds the budget of 11"):
            multidegree_polynomial(ideal)


class TestSquarefreeMultiplicity:
    """A squarefree ideal takes mult_P = 1 at every minimum prime without
    the standard-monomial count; every other ideal still counts.  The
    box-walk route of `box_walk_oracle` counts every multiplicity."""

    @staticmethod
    def counted(monkeypatch):
        """The covers `_length_at` is called with, from here on."""
        calls = []

        def spy(ideal, cover, spent):
            calls.append(cover)
            return _length_at(ideal, cover, spent)

        monkeypatch.setattr(hilbert, "_length_at", spy)
        return calls

    @pytest.mark.parametrize("pairs", [1, 2], ids=["fine", "pair"])
    def test_random_squarefree_ideals(self, monkeypatch, pairs):
        calls = self.counted(monkeypatch)
        rng = random.Random(22 + pairs)
        for _ in range(60):
            nverts = rng.randint(1, 7)
            facets = [rng.sample(range(1, nverts + 1), rng.randint(1, nverts)) for _ in range(rng.randint(1, 5))]
            facets = [f for f in facets if not any(set(f) < set(g) for g in facets)]
            ideal = stanley_reisner_ideal(SimplicialComplex(nverts, facets), vars_per_vertex=pairs)
            assert multidegree_polynomial(ideal) == box_walk_multidegree(ideal)
        assert calls == []

    def test_random_squarefree_ideals_in_random_gradings(self, monkeypatch):
        calls = self.counted(monkeypatch)
        rng = random.Random(23)
        for _ in range(200):
            ideal = random_ideal(rng, max_vars=7, entries=(0, 0, 1), max_gens=6)
            assert multidegree_polynomial(ideal) == box_walk_multidegree(ideal)
        assert calls == []

    def test_other_ideals_still_count(self, monkeypatch):
        calls = self.counted(monkeypatch)
        # x1^2 x2 is not squarefree; its covers (x1) and (x2) have lengths 2 and 1
        ideal = MonomialIdeal(Grading.standard(2), [(2, 1)])
        assert multidegree_polynomial(ideal) == IntPolynomial(2, {(1, 0): 2, (0, 1): 1})
        assert calls == [(0,), (1,)]
        rng = random.Random(24)
        for _ in range(200):
            ideal = random_ideal(rng, max_vars=6, entries=(0, 0, 1, 2, 3), max_gens=6)
            squarefree = all(e <= 1 for g in ideal.generators for e in g)
            del calls[:]
            assert multidegree_polynomial(ideal) == box_walk_multidegree(ideal)
            assert (calls == []) is squarefree
            if not squarefree:
                assert calls == minimum_primes(ideal)


class TestSupportAsUnionOfPolymatroids:
    """The positive support of the multidegree is the union, over the
    minimum primes P, of the lattice points of the transversal
    polymatroids r_P: the paper's reducible case."""

    @staticmethod
    def union_of_components(ideal):
        components = [msupp_from_rank(transversal_rank(ideal.grading, P)) for P in minimum_primes(ideal)]
        return Support(ideal.grading.p, [pt for s in components for pt in s.points])

    def test_randomized(self):
        rng = random.Random(29)
        for _ in range(200):
            ideal = random_ideal(rng, entries=(0, 0, 1, 2, 3), max_gens=6)
            assert multidegree_oracle(ideal).support() == self.union_of_components(ideal)

    def test_fixtures(self):
        for complex_ in (octahedron_boundary(), icosahedron_boundary()):
            for pairs in (1, 2):
                ideal = stanley_reisner_ideal(complex_, vars_per_vertex=pairs)
                support = multidegree_polynomial(ideal).support()
                assert support == self.union_of_components(ideal)
                assert support == facet_support(complex_).complement(1)


class TestStanleyReisner:
    def test_full_simplex_gives_zero_ideal(self):
        c = SimplicialComplex(3, [(1, 2, 3)])
        assert stanley_reisner_ideal(c).generators == ()

    def test_hollow_triangle_single_generator(self):
        ideal = stanley_reisner_ideal(hollow_triangle())
        assert ideal.generators == ((1, 1, 1),)

    def test_octahedron_three_diagonals(self):
        ideal = stanley_reisner_ideal(octahedron_boundary())
        assert ideal.generators == (
            (0, 0, 1, 0, 0, 1),
            (0, 1, 0, 0, 1, 0),
            (1, 0, 0, 1, 0, 0),
        )

    def test_pairs_convention_grading(self):
        ideal = stanley_reisner_ideal(octahedron_boundary(), vars_per_vertex=2)
        assert ideal.grading.nvars == 12
        assert ideal.grading.p == 6
        assert ideal.grading.degree_of[0] == ideal.grading.degree_of[6]
        assert all(sum(g) == 2 for g in ideal.generators)
        assert all(all(g[i] == 0 for i in range(6, 12)) for g in ideal.generators)

    def test_nested_facets_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex(3, [(1, 2), (1, 2, 3)])
        # the larger facet comes first in sorted order
        with pytest.raises(ValidationError, match=r"facets \(1, 2, 3\) and \(1, 3\) are nested"):
            SimplicialComplex(3, [(1, 3), (1, 2, 3)])


@st.composite
def small_complexes(draw):
    """A complex on at most 9 vertices: the maximal sets among a few
    drawn vertex sets."""
    nverts = draw(st.integers(1, 9))
    drawn = draw(
        st.lists(st.frozensets(st.integers(1, nverts), min_size=1), min_size=1, max_size=8)
    )
    return SimplicialComplex(nverts, [f for f in drawn if not any(f < g for g in drawn)])


class TestFaceQueries:
    """`minimal_nonfaces` from the downward-closed face set against the
    exhaustive search over vertex subsets of `nonface_oracle`."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(small_complexes())
    def test_against_sets(self, complex_):
        assert complex_.minimal_nonfaces() == minimal_nonfaces_oracle(complex_)

    def test_fixtures(self):
        for complex_ in (hollow_triangle(), octahedron_boundary(), icosahedron_boundary()):
            assert complex_.minimal_nonfaces() == minimal_nonfaces_oracle(complex_)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_complexes(), st.sampled_from([1, 2]))
    def test_trusted_ideal_equals_the_checked_one(self, complex_, vars_per_vertex):
        # the ideal skips the pairwise minimality check of the public constructor
        ideal = stanley_reisner_ideal(complex_, vars_per_vertex)
        checked = MonomialIdeal(ideal.grading, ideal.generators)
        assert ideal == checked and ideal._supports == checked._supports
        width = complex_.nverts * vars_per_vertex
        assert ideal.generators == tuple(sorted(
            tuple(int(v + 1 in sigma) for v in range(width))
            for sigma in minimal_nonfaces_oracle(complex_)
        ))

    def test_isolated_and_missing_vertices(self):
        # vertex 3 lies in no facet; vertices 1 and 2 span no edge
        complex_ = SimplicialComplex(4, [(1,), (2, 4)])
        assert complex_.minimal_nonfaces() == [(3,), (1, 2), (1, 4)]

    @pytest.mark.parametrize(
        "budget, message",
        [
            # the facets (1, 2, 3) and (3, 4) have 8 + 4 subsets
            (11, "face closure over facet subsets: 12 exceeds the budget of 11"),
            # the 10 faces tau extend by 5 - max(tau) vertices each: 5 (the
            # empty face), 4 + 3 + 2 + 1, 3 + 2 + 2 + 1 and 2, 25 in all
            (24, "minimal non-face search over face extensions: 25 exceeds the budget of 24"),
        ],
    )
    def test_each_charge_comes_before_its_work(self, monkeypatch, budget, message):
        complex_ = SimplicialComplex(5, [(1, 2, 3), (3, 4)])
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 25)
        assert complex_.minimal_nonfaces() == [(5,), (1, 4), (2, 4)]
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", budget)
        with pytest.raises(BudgetExceededError, match=message):
            complex_.minimal_nonfaces()

    def test_generator_rows_are_charged_together(self, monkeypatch):
        # 3 degree rows of 3 entries, then 3 rows for the 3 non-faces
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 18)
        assert len(stanley_reisner_ideal(SimplicialComplex(3, [(1,), (2,), (3,)])).generators) == 3
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 14)
        with pytest.raises(BudgetExceededError, match="Stanley-Reisner ideal entries: 18 exceeds"):
            stanley_reisner_ideal(SimplicialComplex(3, [(1,), (2,), (3,)]))

    @pytest.mark.parametrize("value", [1.5, True, "2"])
    def test_vars_per_vertex_must_be_an_integer(self, value):
        with pytest.raises(ValidationError, match="not an integer"):
            stanley_reisner_ideal(hollow_triangle(), vars_per_vertex=value)


class TestFacetSupport:
    def test_hollow_triangle(self):
        support = facet_support(hollow_triangle())
        assert support.points == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_single_full_facet(self):
        c = SimplicialComplex(4, [(1, 2, 3, 4)])
        assert facet_support(c).points == ((1, 1, 1, 1),)

    def test_only_top_dimension_used(self):
        c = SimplicialComplex(4, [(1, 2, 3), (3, 4)])
        assert facet_support(c).points == ((1, 1, 1, 0),)

    def test_icosahedron_sanity_and_support(self):
        ico = icosahedron_boundary()
        vertices = {v for f in ico.facets for v in f}
        edges = {e for f in ico.facets for e in combinations(f, 2)}
        assert (len(vertices), len(edges), len(ico.facets)) == (12, 30, 20)
        # 5-regularity
        degree = {v: 0 for v in range(1, 13)}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {5}
        support = facet_support(ico)
        assert len(support) == 20
        assert support.weight == 3

    def test_icosahedron_not_mconvex_with_witness(self):
        support = facet_support(icosahedron_boundary())
        report = is_mconvex(support)
        assert not report.mconvex
        x, y, i = report.witness
        members = set(support.points)
        assert x in members and y in members and x[i - 1] > y[i - 1]
        for j in range(12):
            if x[j] < y[j]:
                moved = list(x)
                moved[i - 1] -= 1
                moved[j] += 1
                assert tuple(moved) not in members


class TestGradingValidation:
    def test_zero_degree_vector_rejected(self):
        with pytest.raises(ValidationError):
            Grading(1, 1, [(0,)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Grading(2, 2, [(1, 0)])

    def test_non_integer_degree_rejected(self):
        # int() read 1.5 as 1
        with pytest.raises(ValidationError, match="not an integer"):
            Grading(2, 1, [[1.5], [1]])

    def test_non_integer_generator_rejected(self):
        with pytest.raises(ValidationError, match="not an integer"):
            MonomialIdeal(Grading.standard(2), [(1, True)])

    def test_non_integer_complex_rejected(self):
        # 3.7 was kept as the vertex count, and 2.0 read as vertex 2
        with pytest.raises(ValidationError, match="not an integer"):
            SimplicialComplex(3.7, [[1, 2], [3]])
        with pytest.raises(ValidationError, match="not an integer"):
            SimplicialComplex(3, [[1, 2.0], [3]])

    def test_json_round_trip(self):
        ideal = stanley_reisner_ideal(octahedron_boundary(), vars_per_vertex=2)
        assert MonomialIdeal.from_json_dict(ideal.to_json_dict()) == ideal

    def test_complex_json_round_trip(self):
        ico = icosahedron_boundary()
        assert SimplicialComplex.from_json_dict(ico.to_json_dict()) == ico
