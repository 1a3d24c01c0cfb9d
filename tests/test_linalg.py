"""Exact elimination over Q and F_p, checked against sympy's domain
matrices on seeded random matrices, and against the elimination in
Fractions of rank_oracle.py.

The random matrices mix three shapes: independent random rows, rows
that are small combinations of a few base rows (rank well below both
dimensions), and tall matrices that reach full column rank in their
first rows, after which `extend_basis` stops reading.
"""

import copy
import random
from fractions import Fraction

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree.errors import DEFAULT_ENUMERATION_BUDGET, BudgetExceededError, ValidationError
from multidegree.linalg import (
    extend_basis,
    integer_row,
    is_prime,
    rank_mod_p,
    rank_rational,
    solve_rational,
)

from rank_oracle import fraction_extend_basis, sympy_rank

PRIMES = (2, 3, 5, 7)


def random_matrix(rng, integral=False):
    """One of the three shapes, with 1-6 columns."""
    ncols = rng.randint(1, 6)

    def entry():
        if integral or rng.random() < 0.7:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def vector():
        return [entry() for _ in range(ncols)]

    shape = rng.randrange(3)
    if shape == 0:
        return [vector() for _ in range(rng.randint(0, 8))]
    if shape == 1:
        base = [vector() for _ in range(rng.randint(1, 3))]
        return [
            [sum(rng.randint(-2, 2) * b[c] for b in base) for c in range(ncols)]
            for _ in range(rng.randint(1, 8))
        ]
    identity = [[int(r == c) for c in range(ncols)] for r in range(ncols)]
    return identity + [vector() for _ in range(rng.randint(1, 6))]


def test_rank_rational_matches_sympy():
    rng = random.Random(201)
    for _ in range(300):
        rows = random_matrix(rng)
        assert rank_rational(rows) == sympy_rank(rows)


@pytest.mark.parametrize("prime", PRIMES)
def test_rank_mod_p_matches_sympy(prime):
    rng = random.Random(203 + prime)
    for _ in range(300):
        rows = random_matrix(rng, integral=True)
        assert rank_mod_p(rows, prime) == sympy_rank(rows, prime)


def test_full_rank_stop_ignores_later_rows():
    rows = [[1, 0], [0, 1]] + [[5, 7]] * 10
    basis = extend_basis([], rows)
    assert [col for col, _row in basis] == [0, 1]
    assert rank_rational(rows) == 2
    assert rank_mod_p(rows, 2) == 2


def test_solve_rational_random_nonsingular():
    rng = random.Random(207)
    solved = 0
    while solved < 100:
        n = rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if sympy_rank(matrix) < n:
            continue
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        x = solve_rational(matrix, rhs)
        assert all(isinstance(v, Fraction) for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs
        solved += 1


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[1, 2], [2, 4]], [1, 2]),  # consistent but singular
        ([[1, 2], [2, 4]], [1, 3]),  # inconsistent
        ([[0, 0], [0, 0]], [0, 0]),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [1, 1, 2]),
    ],
)
def test_solve_rational_singular_raises(matrix, rhs):
    with pytest.raises(ValidationError, match="singular"):
        solve_rational(matrix, rhs)


def test_solve_rational_non_square_raises():
    with pytest.raises(ValidationError, match="square"):
        solve_rational([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_ragged_rows_raise():
    with pytest.raises(ValidationError, match="ragged"):
        rank_rational([[1, 2], [3]])
    with pytest.raises(ValidationError, match="ragged"):
        rank_mod_p([[1, 2], [3]], 5)


@pytest.mark.parametrize(
    "rows", [[[0.5]], [[1.9, 0]], [[Fraction(1, 2)]], [[True, 1]]], ids=["half", "float", "fraction", "bool"]
)
def test_non_integer_entries_mod_p_raise(rows):
    # int() would read [[0.5]] as rank 0 and [[1.9, 0]] as rank 1
    with pytest.raises(ValidationError, match="not an integer"):
        rank_mod_p(rows, 3)


def test_integral_fractions_mod_p():
    assert rank_mod_p([[Fraction(3), Fraction(2)], [Fraction(-3, 1), 1]], 3) == 1
    assert integer_row([Fraction(7), 5], 3) == [1, 2]


@pytest.mark.parametrize("modulus", [0, 1, 4, 9, -3])
def test_non_prime_modulus_raises(modulus):
    with pytest.raises(ValidationError, match="not prime"):
        rank_mod_p([[1, 0]], modulus)


def test_trial_division_budget():
    # 2^31 - 1 needs 46,340 candidate divisors; 2^61 - 1 about 1.5 * 10^9
    assert is_prime(2**31 - 1)
    assert not is_prime((DEFAULT_ENUMERATION_BUDGET + 1) ** 2 - 1)
    with pytest.raises(BudgetExceededError):
        is_prime((DEFAULT_ENUMERATION_BUDGET + 1) ** 2)
    with pytest.raises(BudgetExceededError):
        is_prime(2**61 - 1)


@pytest.mark.parametrize("prime", [None, 5])
def test_extend_basis_leaves_its_input_unchanged(prime):
    rng = random.Random(211)
    for _ in range(50):
        rows = random_matrix(rng, integral=True)
        split = rng.randint(0, len(rows))
        basis = extend_basis([], rows[:split], prime)
        before = copy.deepcopy(basis)
        # two sibling extensions of one shared parent basis
        first = extend_basis(basis, rows[split:], prime)
        second = extend_basis(basis, rows[split:][::-1], prime)
        assert basis == before
        assert first[: len(basis)] == basis and second[: len(basis)] == basis
        assert len(first) == len(second) == len(extend_basis([], rows, prime))


@st.composite
def matrices(draw, prime):
    """Base rows, then small integer combinations of them, shuffled; over
    Q the entries include Fractions with denominators up to 10^12."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    if prime is None:
        entry = st.one_of(entry, st.fractions(-(10**6), 10**6, max_denominator=10**12))
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    weights = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combos = [
        [sum(w * b[k] for w, b in zip(ws, base)) for k in range(ncols)]
        for ws in draw(st.lists(weights, max_size=6))
    ]
    return draw(st.permutations(base + combos))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_extensions_match_fraction_elimination(data):
    # one shared parent basis, two sibling extensions in opposite orders
    prime = data.draw(st.sampled_from((None,) + PRIMES))
    rows = data.draw(matrices(prime))
    split = data.draw(st.integers(0, len(rows)))
    ints = [integer_row(row, prime) for row in rows]
    parent = extend_basis([], ints[:split], prime)
    before = copy.deepcopy(parent)
    oracle_parent = fraction_extend_basis([], rows[:split], prime)
    for step in (1, -1):
        basis = extend_basis(parent, ints[split:][::step], prime)
        oracle = fraction_extend_basis(oracle_parent, rows[split:][::step], prime)
        assert [col for col, _row in basis] == [col for col, _row in oracle]
        for (col, row), (_col, unit) in zip(basis, oracle):
            # the same line: the oracle's row is 1 at the pivot
            assert row == [row[col] * x % prime if prime else row[col] * x for x in unit]
            assert prime or gcd(*row) == 1
        assert len(basis) == sympy_rank(rows[:split] + rows[split:][::step], prime)
    assert parent == before


def test_integer_row_clears_denominators():
    assert integer_row([Fraction(1, 2), Fraction(-3, 4), 0]) == [2, -3, 0]
    assert integer_row([6, -9, 12]) == [2, -3, 4]
    assert integer_row(["1/3", Fraction(10**12 + 1, 10**12)]) == [10**12, 3 * (10**12 + 1)]
    assert integer_row([0, 0]) == [0, 0]
    assert integer_row([-3, 7, 12], 5) == [2, 2, 2]
