"""Oracle for exact ranks: sympy's domain matrices over QQ and GF(p).

sympy is a test dependency only; a test that needs the oracle is skipped
when sympy is missing.
"""

from fractions import Fraction

import pytest


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
