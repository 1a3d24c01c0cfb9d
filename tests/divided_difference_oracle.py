"""The divided difference on exponent tuples, as `IntPolynomial` took it
before it worked on packed keys: the oracle for `divided_difference`.

Let a and b be the exponents of t_i and t_{i+1} in a term c t^e.  The
term gives 0 when a = b, and when a > b it gives
c sum_{k=b}^{a-1} t_i^k t_{i+1}^(a+b-1-k), every other exponent
unchanged; when a < b, a and b swap and c changes sign.
"""

from multidegree import IntPolynomial


def divided_difference_oracle(f: IntPolynomial, i: int) -> IntPolynomial:
    acc: dict[tuple[int, ...], int] = {}
    for exp, coef in f.terms.items():
        a, b = exp[i - 1], exp[i]
        if a < b:
            a, b, coef = b, a, -coef
        head, tail = exp[: i - 1], exp[i + 1 :]
        for k in range(b, a):
            key = head + (k, a + b - 1 - k) + tail
            acc[key] = acc.get(key, 0) + coef
    return IntPolynomial(f.nvars, acc)


def assert_divided_differences_match(f: IntPolynomial, chain) -> None:
    """f.divided_difference(i) against the oracle for every i, then the
    indices of `chain` applied in turn to both, each result compared by
    its `render` bytes, by == and by len.  A chain stops early once a
    result has more than 300 terms, since a step can multiply the terms
    by the exponents, which run past 255."""
    for indices in [[i] for i in range(1, f.nvars)] + [list(chain)]:
        g = expected = f
        for i in indices:
            if len(g) > 300:
                break
            g, expected = g.divided_difference(i), divided_difference_oracle(expected, i)
            assert g.render() == expected.render()
            assert g == expected and len(g) == len(expected)
