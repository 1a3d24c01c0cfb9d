"""Oracles for exact ranks: elimination in Fractions, and sympy's domain
matrices over QQ and GF(p).

`fraction_extend_basis` is the elimination the library ran before it
worked in integers: every basis row is scaled to 1 at its pivot, over Q
in Fractions and over F_p by the inverse of the pivot entry.  sympy is a
test dependency only; a test that needs it is skipped when it is
missing.
"""

from fractions import Fraction

import pytest


def _mod(vec, prime):
    return vec if prime is None else [x % prime for x in vec]


def fraction_extend_basis(basis, rows, prime=None):
    """Oracle: `basis` plus the independent remainders of `rows`, each
    row 1 at its pivot; `basis` is not changed."""
    basis = list(basis)
    for row in rows:
        if len(basis) == len(row):
            break
        vec = [Fraction(x) for x in row] if prime is None else _mod(list(map(int, row)), prime)
        for col, pivot_row in basis:
            factor = vec[col]
            if factor:
                vec = _mod([a - factor * b for a, b in zip(vec, pivot_row)], prime)
        col = next((i for i, x in enumerate(vec) if x), None)
        if col is not None:
            inv = 1 / vec[col] if prime is None else pow(vec[col], -1, prime)
            basis.append((col, _mod([x * inv for x in vec], prime)))
    return basis


def sympy_rank(rows, prime=None):
    """Oracle: rank from sympy's DomainMatrix over QQ or GF(prime)."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    if prime is None:
        domain = QQ
        entries = [[QQ(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows]
    else:
        domain = GF(prime)
        entries = [[domain(int(x)) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()
