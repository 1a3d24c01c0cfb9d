"""Oracle for `kpolynomial`: the recursion that computed it before the
packed-exponent accumulator.

`kpolynomial_oracle` builds an `IntPolynomial` at every node and
recurses in Python, so it shares no packing, no stack and no
minimalization with the library.  It uses the same pivot (the last
generator of maximal total degree) and returns the number of nodes it
visited with the polynomial, so a test can check the library's node
budget against it.

`face_sum_oracle` is the closed form for a squarefree ideal: a sum over
the faces of its complex, enumerated one subset at a time and each
multiplied out with `IntPolynomial` products, with no table and no
transform.
"""

from itertools import combinations

from multidegree import IntPolynomial


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize(gens):
    """Minimal elements under divisibility, sorted, as the library's
    `_minimalize` computed them before its one-pass rewrite."""
    unique = sorted(set(gens))
    kept = []
    for g in unique:
        if not any(_divides(h, g) for h in kept if h != g):
            kept = [h for h in kept if not _divides(g, h)]
            kept.append(g)
    return tuple(sorted(kept))


def kpolynomial_oracle(ideal):
    """(K(S/I), number of recursion nodes)."""
    grading = ideal.grading
    nodes = 0

    def is_pure_power(g):
        return sum(1 for x in g if x > 0) == 1

    def recurse(gens):
        nonlocal nodes
        nodes += 1
        if not gens:
            return IntPolynomial.one(grading.p)
        if all(is_pure_power(g) for g in gens):
            # pairwise-coprime pure powers form a regular sequence
            result = IntPolynomial.one(grading.p)
            for g in gens:
                deg = grading.degree_of_monomial(g)
                result = result * (
                    IntPolynomial.one(grading.p)
                    - IntPolynomial.monomial(grading.p, deg)
                )
            return result
        max_total = max(sum(g) for g in gens)
        pivot_idx = max(i for i, g in enumerate(gens) if sum(g) == max_total)
        m = gens[pivot_idx]
        rest = gens[:pivot_idx] + gens[pivot_idx + 1 :]
        quotients = [tuple(max(g_v - m_v, 0) for g_v, m_v in zip(g, m)) for g in rest]
        if any(not any(q) for q in quotients):
            raise AssertionError("minimality violated inside recursion")
        colon = minimalize(quotients)
        deg_m = grading.degree_of_monomial(m)
        t_deg = IntPolynomial.monomial(grading.p, deg_m)
        return recurse(rest) - t_deg * recurse(colon)

    return recurse(ideal.generators), nodes


def face_sum_oracle(ideal):
    """K(S/I) for a squarefree I as the sum over the faces F of its
    complex of t^deg(F) prod_{j not in F} (1 - t^deg(x_j)) (Miller and
    Sturmfels, *Combinatorial Commutative Algebra*, ch. 1).

    Every variable of the ring is a vertex, the free ones included: a
    free variable j puts F and F + j in the complex together, and their
    terms add up to that of F without the factor for j."""
    grading = ideal.grading
    p, nvars = grading.p, grading.nvars
    if any(e > 1 for g in ideal.generators for e in g):
        raise ValueError("the face sum needs a squarefree ideal")
    nonfaces = [{v for v, e in enumerate(g) if e} for g in ideal.generators]
    one = IntPolynomial.one(p)
    total = IntPolynomial.zero(p)
    for size in range(nvars + 1):
        for face in combinations(range(nvars), size):
            if any(s <= set(face) for s in nonfaces):
                continue
            indicator = [int(v in face) for v in range(nvars)]
            term = IntPolynomial.monomial(p, grading.degree_of_monomial(indicator))
            for j in range(nvars):
                if j not in face:
                    term = term * (one - IntPolynomial.monomial(p, grading.degree_of[j]))
            total = total + term
    return total
