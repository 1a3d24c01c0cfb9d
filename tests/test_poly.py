"""Polynomial arithmetic: pinned examples plus randomized algebra laws."""

import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multidegree import IntPolynomial, UnsupportedSizeError, ValidationError

from divided_difference_oracle import assert_divided_differences_match
from pretty_oracle import pretty_oracle

SRC = Path(__file__).resolve().parents[1] / "src" / "multidegree"


def poly(nvars, *terms):
    return IntPolynomial(nvars, list(terms))


def random_poly(rng, nvars, max_terms=5, max_exp=3, max_coef=6):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        coef = rng.randint(-max_coef, max_coef)
        terms.append((exp, coef))
    return IntPolynomial(nvars, terms)


def swap_adjacent(f, i):
    """f with the variables t_i and t_{i+1} exchanged (1-indexed)."""
    return IntPolynomial(
        f.nvars, [(e[: i - 1] + (e[i], e[i - 1]) + e[i + 1 :], c) for e, c in f.terms.items()]
    )


@st.composite
def rendered_polynomials(draw):
    """A polynomial in 0 to 14 variables with up to 6 terms, exponents up
    to 14 and coefficients from +-1 to 45 digits."""
    nvars = draw(st.integers(0, 14))
    exps = st.tuples(*[st.integers(0, 14)] * nvars)
    coefs = st.one_of(st.integers(-3, 3), st.integers(-(10**45), 10**45))
    return IntPolynomial(nvars, draw(st.lists(st.tuples(exps, coefs), max_size=6)))


@st.composite
def divided_difference_cases(draw):
    """(f, chain): f in 2 to 6 variables, whose exponents of t_k lie
    below a top of t_k's own, up to 300, so adjacent bases differ and
    digits pass a byte; half the time packed in wider bases than it
    needs.  chain is 1 to 4 divided-difference indices."""
    nvars = draw(st.integers(2, 6))
    tops = draw(st.lists(st.sampled_from((0, 1, 2, 5, 255, 256, 300)), min_size=nvars, max_size=nvars))
    exps = st.tuples(*[st.integers(0, top) for top in tops])
    f = IntPolynomial(nvars, draw(st.lists(st.tuples(exps, st.integers(-4, 4)), max_size=4)))
    if draw(st.booleans()):
        extra = draw(st.lists(st.integers(0, 300), min_size=nvars, max_size=nvars))
        f = packed_copy(f, [top + 1 + e for top, e in zip(tops, extra)])
    return f, draw(st.lists(st.integers(1, nvars - 1), min_size=1, max_size=4))


class TestAddMul:
    def test_additive_inverse(self):
        t1 = IntPolynomial.variable(1, 1)
        assert t1 + (-t1) == IntPolynomial.zero(1)

    def test_doubling(self):
        m = IntPolynomial.monomial(2, (1, 1))
        assert m + m == IntPolynomial.monomial(2, (1, 1), 2)

    def test_mixed_sum(self):
        a = poly(2, ((2, 1), 1), ((0, 1), 1))
        b = IntPolynomial.variable(2, 1)
        assert a + b == poly(2, ((2, 1), 1), ((0, 1), 1), ((1, 0), 1))

    def test_difference_of_squares(self):
        t1 = IntPolynomial.variable(2, 1)
        t2 = IntPolynomial.variable(2, 2)
        assert (t1 + t2) * (t1 - t2) == poly(2, ((2, 0), 1), ((0, 2), -1))

    def test_one_is_identity(self):
        rng = random.Random(11)
        p = random_poly(rng, 3)
        assert IntPolynomial.one(3) * p == p

    def test_inclusion_exclusion_product(self):
        one = IntPolynomial.one(2)
        t1 = IntPolynomial.variable(2, 1)
        t2 = IntPolynomial.variable(2, 2)
        assert (one - t1) * (one - t2) == poly(
            2, ((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1)
        )

    def test_other_operands_are_not_implemented(self):
        f = IntPolynomial.one(2)
        for operate in (lambda: f * 2.0, lambda: 2.0 * f, lambda: f + 2.0, lambda: f - 2.0, lambda: f * "t"):
            with pytest.raises(TypeError):
                operate()

    def test_nvars_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            IntPolynomial.one(2) + IntPolynomial.one(3)
        with pytest.raises(ValidationError):
            IntPolynomial.one(2) * IntPolynomial.one(3)

    def test_ring_laws_randomized(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_poly(rng, 3)
            b = random_poly(rng, 3)
            c = random_poly(rng, 3)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestDividedDifference:
    def test_hand_example_first_index(self):
        # (t1^2 t2 - t2^2 t1) / (t1 - t2) = t1 t2
        f = IntPolynomial.monomial(2, (2, 1))
        assert f.divided_difference(1) == IntPolynomial.monomial(2, (1, 1))

    def test_symmetric_input_is_killed(self):
        t1 = IntPolynomial.variable(2, 1)
        t2 = IntPolynomial.variable(2, 2)
        assert (t1 + t2).divided_difference(1) == IntPolynomial.zero(2)

    def test_hand_example_second_index(self):
        # (t1^2 t2 - t1^2 t3) / (t2 - t3) = t1^2
        f = IntPolynomial.monomial(3, (2, 1, 0))
        assert f.divided_difference(2) == IntPolynomial.monomial(3, (2, 0, 0))

    def test_index_bounds(self):
        f = IntPolynomial.one(2)
        with pytest.raises(ValidationError):
            f.divided_difference(0)
        with pytest.raises(ValidationError):
            f.divided_difference(2)
        # read as constructor input is: no float, and no bool as index 1
        for i in (1.0, True):
            with pytest.raises(ValidationError, match="is not an integer"):
                f.divided_difference(i)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(divided_difference_cases())
    @example((IntPolynomial.zero(2), [1]))
    @example((IntPolynomial.zero(6), [5, 4, 3, 2]))
    @example((IntPolynomial.monomial(3, (300, 0, 256)), [1, 2, 1]))
    @example((IntPolynomial.monomial(4, (3, 2, 1, 0)), [1, 2, 1, 3]))
    def test_matches_the_tuple_route(self, case):
        assert_divided_differences_match(*case)

    def test_squares_to_zero_randomized(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_poly(rng, 3)
            for i in (1, 2):
                assert f.divided_difference(i).divided_difference(i) == IntPolynomial.zero(3)

    def test_result_is_symmetric_randomized(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_poly(rng, 4)
            for i in (1, 2, 3):
                g = f.divided_difference(i)
                assert g == swap_adjacent(g, i)

    def test_exactness_against_multiplication(self):
        # f = (t_i - t_{i+1}) * g has divided difference g + s_i(g) ... not in
        # general; instead check the defining identity numerator = quotient * divisor.
        rng = random.Random(31)
        for _ in range(40):
            f = random_poly(rng, 3)
            i = rng.choice((1, 2))
            numerator = f - swap_adjacent(f, i)
            divisor = IntPolynomial.variable(3, i) - IntPolynomial.variable(3, i + 1)
            assert f.divided_difference(i) * divisor == numerator


class TestSubstituteOneMinus:
    def test_single_variable(self):
        t1 = IntPolynomial.variable(1, 1)
        assert t1.substitute_one_minus() == IntPolynomial.one(1) - t1

    def test_involution_on_simple_input(self):
        f = IntPolynomial.one(1) - IntPolynomial.variable(1, 1)
        assert f.substitute_one_minus() == IntPolynomial.variable(1, 1)

    def test_product_expansion(self):
        f = IntPolynomial.monomial(2, (1, 1))
        expected = poly(2, ((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1))
        assert f.substitute_one_minus() == expected

    def test_involution_randomized(self):
        rng = random.Random(37)
        for _ in range(40):
            f = random_poly(rng, 3)
            assert f.substitute_one_minus().substitute_one_minus() == f


class TestTruncateAndSupport:
    def test_truncate_picks_exact_total_degree(self):
        f = poly(2, ((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1))
        assert f.truncate_total_degree(2) == IntPolynomial.monomial(2, (1, 1))

    def test_truncate_high_degree(self):
        f = poly(2, ((3, 3), 1), ((1, 0), 1))
        assert f.truncate_total_degree(6) == IntPolynomial.monomial(2, (3, 3))

    def test_truncate_zero(self):
        assert IntPolynomial.zero(2).truncate_total_degree(4) == IntPolynomial.zero(2)

    def test_support_positive_part_only(self):
        f = poly(2, ((2, 0), 1), ((0, 2), -1))
        assert f.support().points == ((2, 0),)
        assert f.negative_exponents() == [(0, 2)]

    def test_support_of_longest_s3_monomial(self):
        f = IntPolynomial.monomial(3, (2, 1, 0))
        assert f.support().points == ((2, 1, 0),)

    def test_support_of_zero_is_empty(self):
        assert IntPolynomial.zero(3).support().points == ()


class TestSerialization:
    def test_round_trip_and_order(self):
        f = poly(2, ((1, 1), 2), ((0, 2), -3), ((2, 0), 5))
        data = f.to_json_dict()
        assert [t["exp"] for t in data["terms"]] == [[0, 2], [1, 1], [2, 0]]
        assert all(isinstance(t["coef"], str) for t in data["terms"])
        assert IntPolynomial.from_json_dict(data) == f

    def test_big_coefficients_survive(self):
        big = 10**40 + 7
        f = IntPolynomial.monomial(1, (1,), big)
        assert IntPolynomial.from_json_dict(f.to_json_dict()).coefficient((1,)) == big

    def test_pretty(self):
        f = poly(2, ((2, 1), 2), ((0, 0), -1))
        assert f.pretty() == "-1 + 2*t1^2*t2"
        assert IntPolynomial.zero(2).pretty() == "0"

    def test_pretty_matches_the_old_formatter(self):
        rng = random.Random(19)
        for _ in range(300):
            # up to 12 variables, so two-digit names occur
            f = random_poly(rng, rng.randint(0, 12), max_terms=8, max_exp=12, max_coef=120)
            assert f.pretty() == pretty_oracle(f)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rendered_polynomials())
    # nvars 0 and 1, a single term, the zero polynomial, constants of
    # +-1 and +-k, exponents of two digits and 40-digit coefficients
    @example(IntPolynomial(0))
    @example(IntPolynomial(0, [((), 1)]))
    @example(IntPolynomial(0, [((), -1)]))
    @example(IntPolynomial(1, [((0,), 7), ((1,), -1)]))
    @example(IntPolynomial(2, [((0, 0), 1), ((1, 0), -1), ((0, 1), 1)]))
    @example(IntPolynomial(1, [((0,), -1), ((2,), 3)]))
    @example(IntPolynomial(2, [((0, 0), -12), ((0, 1), 1), ((10, 3), 1)]))
    @example(IntPolynomial(1, [((11,), -(10**40 + 1))]))
    @example(IntPolynomial(13, [((0,) * 12 + (10,), 10**45), ((1,) * 13, 1)]))
    def test_render_matches_the_dict_route_and_the_old_formatter(self, f):
        text, pretty = f.render()
        assert text == f.to_json_text() == json.dumps(f.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert pretty == f.pretty() == pretty_oracle(f)
        assert IntPolynomial.from_json_dict(json.loads(text)) == f

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            IntPolynomial.from_json_dict({"nvars": 2})

    # int() would truncate the floats and read the booleans and the
    # spaced or signed strings
    @pytest.mark.parametrize(
        "data",
        [
            {"nvars": 2.9, "terms": [{"exp": [1.5, True], "coef": "3"}]},
            {"nvars": 2, "terms": [{"exp": [1, 1], "coef": 2.7}]},
            {"nvars": True, "terms": [{"exp": [1], "coef": "1"}]},
            {"nvars": 1, "terms": [{"exp": [True], "coef": "1"}]},
            {"nvars": 1, "terms": [{"exp": [1], "coef": True}]},
            {"nvars": 1, "terms": [{"exp": [1], "coef": "1e5"}]},
            {"nvars": 1, "terms": [{"exp": [1], "coef": " 1"}]},
            {"nvars": 1, "terms": [{"exp": [1], "coef": "+1"}]},
            {"nvars": 1, "terms": [{"exp": [1], "coef": "1.0"}]},
            {"nvars": 1, "terms": [{"exp": "1", "coef": "1"}]},
            {"nvars": 1, "terms": [{"exp": [1]}]},
            {"nvars": 1, "terms": [[1]]},
            {"nvars": 1, "terms": 5},
        ],
    )
    def test_non_integer_json_rejected(self, data):
        with pytest.raises(ValidationError):
            IntPolynomial.from_json_dict(data)

    def test_integer_and_decimal_coefficients(self):
        data = {"nvars": 2, "terms": [{"exp": [1, 0], "coef": -4}, {"exp": [0, 1], "coef": "-0"}]}
        assert IntPolynomial.from_json_dict(data) == poly(2, ((1, 0), -4))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            IntPolynomial(1, [((-1,), 1)])

    # int() would truncate the floats and read the booleans
    @pytest.mark.parametrize(
        "nvars, terms",
        [
            (2, [((1.5, True), 2.7)]),
            (2, [((1.5, 1), 2)]),
            (2, [((True, 1), 2)]),
            (2, [((1, 1), 2.7)]),
            (2, [((1, 1), True)]),
            (2, [((1, 1), "3")]),
            (2.0, [((1, 1), 2)]),
            (True, [((1,), 2)]),
        ],
    )
    def test_non_integer_constructor_input_rejected(self, nvars, terms):
        with pytest.raises(ValidationError):
            IntPolynomial(nvars, terms)


@st.composite
def polynomial_pairs(draw):
    """(f, g, i): two polynomials in 2 to 4 variables with coefficients
    that often cancel, and a divided-difference index."""
    nvars = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=6)
    f, g = IntPolynomial(nvars, draw(terms)), IntPolynomial(nvars, draw(terms))
    return f, g, draw(st.integers(1, nvars - 1))


def assert_well_formed(h):
    """No zero coefficient, nonnegative int exponents of length nvars,
    and equal to the same terms through the checked constructor."""
    for exp, coef in h.terms.items():
        assert type(coef) is int and coef != 0
        assert len(exp) == h.nvars
        assert all(type(e) is int and e >= 0 for e in exp)
    assert h == IntPolynomial(h.nvars, h.terms)


class TestTrustedResults:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polynomial_pairs())
    def test_every_result_is_well_formed(self, case):
        f, g, i = case
        swapped = swap_adjacent(f, i)
        quotient = f.divided_difference(i)
        for h in (f + g, f - g, -f, f * g, f * 3, f * 0, quotient):
            assert_well_formed(h)
        divisor = IntPolynomial.variable(f.nvars, i) - IntPolynomial.variable(f.nvars, i + 1)
        assert quotient * divisor == f - swapped


def assert_old_bytes(f):
    """`render` against the dict route and the old formatter."""
    text, pretty = f.render()
    assert text == json.dumps(f.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert pretty == pretty_oracle(f)


def packed_copy(f, bases):
    """f with its keys packed in these digit bases, t_1 first."""
    keys = {}
    for exp, coef in f.terms.items():
        key = 0
        for e, base in zip(exp, bases):
            key = key * base + e
        keys[key] = coef
    return IntPolynomial._from_packed(f.nvars, bases, keys)


class TestPackedWriter:
    """The one writer reads packed keys: the constructor packs in base
    1 + the largest exponent of each variable, and a polynomial packed in
    any bases gives the old bytes."""

    def test_twenty_variables(self):
        rng = random.Random(20)
        for _ in range(20):
            f = random_poly(rng, 20, max_terms=12, max_exp=3, max_coef=40)
            assert_old_bytes(f)
            packed = packed_copy(f, [4] * 20)
            assert packed.render() == f.render() and packed == f

    @pytest.mark.parametrize("top", [255, 256, 300, 10**6])
    def test_exponents_past_a_byte(self, top):
        f = poly(3, ((top, 0, 1), 2), ((0, top, 0), -1), ((1, 1, top), 5), ((0, 0, 0), -7))
        assert_old_bytes(f)
        assert f.pretty() == f"-7 - t2^{top} + 5*t1*t2*t3^{top} + 2*t1^{top}*t3"
        packed = packed_copy(f, [top + 1] * 3)
        assert packed.render() == f.render() and packed == f

    def test_coefficient_just_under_the_digit_limit(self):
        # Python writes at most 4,300 digits of an int; the sign is no digit
        for coef in (10**4300 - 1, -(10**4300 - 1)):
            f = poly(2, ((1, 0), coef), ((0, 0), 1))
            assert_old_bytes(f)
            assert packed_copy(f, [2, 1]).render() == f.render()

    @pytest.mark.parametrize(
        "f",
        [
            poly(2, ((1, 0), 10**4300), ((0, 0), 1)),
            poly(1, ((0,), -(10**4300))),
            IntPolynomial._from_packed(2, (3, 3), {4: 10**4300}),
            poly(2, ((10**4300, 1), 1)),  # an exponent past the limit
        ],
        ids=["coefficient", "negative-constant", "packed", "exponent"],
    )
    def test_past_the_digit_limit_unsupported(self, f):
        for write in (f.render, f.pretty, f.to_json_text):
            with pytest.raises(UnsupportedSizeError, match="too large to print.*digits"):
                write()


def test_only_poly_reads_the_key_layout():
    """No module but poly.py reads the packed keys or their bases, or
    unpacks them; others build keys with `_places` and `_from_packed`."""
    fields = {"_packed", "_bases", "_tuples", "_unpack"}
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id] if node.id == "_unpack" else []
            else:
                continue
            readers += [f"{path.name}:{node.lineno} {name}" for name in names if name in fields]
    assert readers == []
