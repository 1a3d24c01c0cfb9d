"""Multidegrees and multigraded K-polynomials of monomial ideals, and
Stanley-Reisner data.

The multidegree comes from additivity over the top-dimensional
components (Miller-Sturmfels, *Combinatorial Commutative Algebra*,
Thm 8.53):

    C(S/I; t) = sum_P mult_P(S/I) * prod_{i in P} <deg x_i, t>,

over the minimal primes P = (x_i : i in P) of least codimension, which
for a monomial ideal are the minimum variable covers of the generator
supports.  mult_P(S/I) is the number of standard monomials of the
Artinian ideal left when every variable outside P is set to 1.  Degree
vectors are nonzero and nonnegative, so no terms cancel and the total
degree of C is the codimension.  The cover search stops at
DEFAULT_RECURSION_BUDGET nodes and the standard-monomial count at
DEFAULT_ENUMERATION_BUDGET cells in all.  C is the multidegree
polynomial of MultiProj(S/I) when the quotient has no irrelevant torsion; that
hypothesis is asserted by the caller, not verified here.

The K-polynomial of S/I is the numerator of the multigraded Hilbert
series over the full Koszul denominator prod_vars (1 - t^deg(x)).
`kpolynomial` takes one of two routes.  A squarefree ideal whose
generators use n <= min(MAX_GROUND_SET, number of generators) variables
is the Stanley-Reisner ideal of a complex Delta on those variables, and
its K-polynomial is a sum over the faces (Miller-Sturmfels, ch. 1):

    K(S/I_Delta; t) = sum_{F in Delta} t^deg(F) prod_{j not in F} (1 - t^deg(x_j)),

read off one table of 2^n entries by a Moebius transform.  The bound by
the number of generators keeps that table within the 2^(generators)
terms of the Taylor resolution, so a single generator x_1...x_20 never
builds 2^20 entries.  Every other ideal takes the short-exact-sequence
recursion

    K(S/(J + (m))) = K(S/J) - t^deg(m) * K(S/(J : m)),

with K(S/0) = 1 and a product base case for pairwise-coprime pure
powers, run on an explicit stack of (generators, sign, shift) work
items, so its depth is not bounded by Python's recursion limit.
DEFAULT_RECURSION_BUDGET bounds the items of this route only, one node
per item as the recursive form counted one per call.
Every exponent it meets lies coordinatewise below b = deg(lcm of the
generators), since each term is +-t^deg(lcm s) for a subset s of them
(Taylor resolution); exponents are packed into one int with digit k in
base b_k + 1, t_1 the most significant, and a shift never carries.
Both routes build these keys of `IntPolynomial` (see `poly`) directly.
The lowest-degree part of K(S/I; 1 - t) is C(S/I; t); the tests use
that expansion as the oracle for the additivity route.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, compress, product
from math import comb, prod
from operator import and_, le, lt, mul, or_, sub
from typing import Iterable, Sequence

from . import errors
from .errors import ValidationError, Value, check_budget
from .poly import IntPolynomial, _places
from .polymatroid import MAX_GROUND_SET, Support, _integer
from .schemas import check


class Grading(Value):
    """Map from each variable to its degree vector in N^p."""

    __slots__ = ("nvars", "p", "degree_of")

    def __init__(self, nvars: int, p: int, degree_of: Sequence[Sequence[int]]):
        nvars, p = _integer(nvars), _integer(p)
        if len(degree_of) != nvars:
            raise ValidationError(
                f"grading lists {len(degree_of)} degrees for {nvars} variables"
            )
        degrees = tuple(map(tuple, degree_of))
        if not (_natural_rows(degrees, p) and all(map(any, degrees))):
            # convert or name the first fault
            degrees = tuple(tuple(x if type(x) is int else _integer(x) for x in d) for d in degrees)
            for v, d in enumerate(degrees):
                if len(d) != p:
                    raise ValidationError(f"degree of variable {v + 1} has length {len(d)}")
                if any(x < 0 for x in d):
                    raise ValidationError(f"negative degree entry for variable {v + 1}")
                if all(x == 0 for x in d):
                    raise ValidationError(f"variable {v + 1} has zero degree vector")
        self._set(nvars=nvars, p=p, degree_of=degrees)

    @classmethod
    def standard(cls, p: int) -> "Grading":
        """One variable per factor: deg(x_i) = e_i."""
        return cls(p, p, [[1 if j == i else 0 for j in range(p)] for i in range(p)])

    def degree_of_monomial(self, exponent: Sequence[int]) -> tuple[int, ...]:
        deg = [0] * self.p
        for e, d in zip(exponent, self.degree_of):
            for k in range(self.p):
                deg[k] += e * d[k]
        return tuple(deg)


def _divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(le, a, b))


def _monus(x: int, y: int) -> int:
    return x - y if x > y else 0


def _natural_rows(rows: Sequence[tuple], length: int) -> bool:
    """Whether every row has this length and every entry is an int >= 0
    (never a bool), decided in a few passes over all entries at once."""
    entries = list(chain.from_iterable(rows))
    return (
        set(map(len, rows)) <= {length}
        and set(map(type, entries)) <= {int}
        and min(entries, default=0) >= 0
    )


class MonomialIdeal(Value):
    """Monomial ideal given by its minimal generators' exponent vectors.

    The generators are read in a few passes over all entries, and only
    an input with a fault is walked entry by entry, to name it.
    """

    __slots__ = ("grading", "generators", "_supports")

    def __init__(self, grading: Grading, generators: Iterable[Iterable[int]]):
        gens = list(map(tuple, generators))
        if _natural_rows(gens, grading.nvars) and all(map(any, gens)):
            gens = sorted(set(gens))
        else:  # convert or name the first fault
            gens = sorted({tuple(x if type(x) is int else _integer(x) for x in g) for g in gens})
            for g in gens:
                if len(g) != grading.nvars:
                    raise ValidationError(
                        f"generator {g} has length {len(g)}, expected {grading.nvars}"
                    )
                if any(x < 0 for x in g):
                    raise ValidationError(f"negative exponent in generator {g}")
                if all(x == 0 for x in g):
                    raise ValidationError("the unit monomial cannot be a generator")
        check_budget(comb(len(gens), 2), "minimality check over generator pairs")
        self._fill(grading, gens)
        # a divisor's support lies inside the multiple's support
        for (a, sa), (b, sb) in combinations(zip(gens, self._supports), 2):
            common = sa & sb
            if (common == sa and _divides(a, b)) or (common == sb and _divides(b, a)):
                raise ValidationError(
                    f"generator list is not minimal: {a} and {b} are comparable"
                )

    def _fill(self, grading: Grading, gens: list[tuple[int, ...]]) -> None:
        powers = [1 << v for v in range(grading.nvars)]  # variable v is bit v
        supports = tuple(sum(compress(powers, g)) for g in gens)
        self._set(grading=grading, generators=tuple(gens), _supports=supports)

    @classmethod
    def _from_antichain(cls, grading: Grading, gens: list[tuple[int, ...]]) -> "MonomialIdeal":
        """An ideal from generators that are already sorted, distinct,
        nonzero, of length nvars and pairwise incomparable under
        divisibility; nothing is checked."""
        ideal = object.__new__(cls)
        ideal._fill(grading, gens)
        return ideal

    def contains_monomial(self, exponent: Sequence[int]) -> bool:
        return any(_divides(g, exponent) for g in self.generators)

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.grading.nvars,
            "p": self.grading.p,
            "degrees": [list(d) for d in self.grading.degree_of],
            "generators": [list(g) for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        """An ideal from a document of the `monomial_ideal` schema."""
        check("monomial_ideal", data)
        grading = Grading(data["nvars"], data["p"], data["degrees"])
        return cls(grading, data["generators"])


def _minimalize(gens: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Minimal elements of `gens` under divisibility, sorted.

    A proper divisor is coordinatewise smaller, so it sorts first, and a
    generator is minimal exactly when no generator kept before it
    divides it.
    """
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(gens)):
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


def kpolynomial(ideal: MonomialIdeal) -> IntPolynomial:
    """K-polynomial of S/I in the p grading variables.

    Two routes give the same polynomial.  A squarefree ideal whose
    generators use n <= min(MAX_GROUND_SET, number of generators)
    variables takes the face table (`_face_table_kpolynomial`): 2^n
    entries, never more than the 2^(number of generators) terms of the
    ideal's Taylor resolution.  Every other ideal takes the recursion
    (`_recursive_kpolynomial`), whose nodes alone are bounded by
    DEFAULT_RECURSION_BUDGET; more raise BudgetExceededError.  Both
    build packed keys (see `poly`), with digit k in base b_k + 1 for a
    bound b on every exponent, so neither builds an exponent tuple.
    """
    gens = ideal.generators
    used = reduce(or_, ideal._supports, 0)
    variables = [v for v in range(ideal.grading.nvars) if used >> v & 1]
    if len(variables) <= min(MAX_GROUND_SET, len(gens)) and max(map(max, gens), default=0) <= 1:
        return _face_table_kpolynomial(ideal, variables)
    return _recursive_kpolynomial(ideal)


def _packing(grading: Grading, bound: Sequence[int]) -> tuple[list[int], list[int]]:
    """(bases, weights) for packing exponents that lie coordinatewise
    below deg(x^bound): digit k, t_1 the most significant, is in base
    deg(x^bound)_k + 1, and weights[v] is the packed degree of x_v."""
    bases = [b + 1 for b in grading.degree_of_monomial(bound)]
    places = _places(bases)
    weights = [sum(map(mul, deg, places)) for deg in grading.degree_of]
    return bases, weights


def _face_table_kpolynomial(ideal: MonomialIdeal, variables: Sequence[int]) -> IntPolynomial:
    """K(S/I) for a squarefree I whose generators use `variables`.

    I is the Stanley-Reisner ideal of the complex Delta of subsets of
    `variables` that contain no generator's support, and (Miller and
    Sturmfels, *Combinatorial Commutative Algebra*, ch. 1)

        K(S/I; t) = sum_{F in Delta} t^deg(F) prod_{j not in F} (1 - t^deg(x_j)),

    with j over `variables` only: a variable outside them is free and
    cancels against its own Koszul factor.  Expanded, the coefficient of
    t^deg(W) is c_W = sum_{F subset W, F in Delta} (-1)^|W - F|, the
    Moebius transform of the face indicator.  Both the face indicator
    (a subset is a face when every subset one smaller is, and it is no
    generator) and the transform are taken over a table indexed by
    bitmasks of `variables`, one whole-list rotation per variable: the
    rotation c = c[0::2] + c[1::2] brings each bit in turn to bit 0, and
    after n rotations every index is back in place.

    Every deg(W) lies below the degree of the product of `variables`,
    which sets the packing (`_packing`).  The packed deg(W) of a W with
    c_W != 0 is the sum of the packed degrees of its lower and upper
    half, each looked up in a table of 2^(n/2) subset sums; subsets of
    one degree add their coefficients under one key.
    """
    grading = ideal.grading
    bound = [0] * grading.nvars
    for v in variables:
        bound[v] = 1
    bases, weights = _packing(grading, bound)
    # the first variable is the top bit: when deg x_v = e_v, as in a
    # Stanley-Reisner grading, the keys then come out in increasing order
    variables = variables[::-1]
    bit = {v: 1 << k for k, v in enumerate(variables)}
    table = [1] * (1 << len(variables))
    for g in ideal.generators:
        table[sum(bit[v] for v, e in enumerate(g) if e)] = 0
    for _ in variables:  # W + v is a face only if W is
        lo, hi = table[0::2], table[1::2]
        table = lo + list(map(and_, hi, lo))
    for _ in variables:
        lo, hi = table[0::2], table[1::2]
        table = lo + list(map(sub, hi, lo))
    half = len(variables) // 2
    low = _subset_sums(weights, variables[:half])
    high = _subset_sums(weights, variables[half:])
    low_bits = (1 << half) - 1
    terms: dict[int, int] = {}
    for w in compress(range(len(table)), table):
        e = low[w & low_bits] + high[w >> half]
        terms[e] = terms.get(e, 0) + table[w]
    return IntPolynomial._from_packed(grading.p, bases, terms)


def _subset_sums(weights: Sequence[int], variables: Sequence[int]) -> list[int]:
    """The sum of weights[v] over v in W for every subset W of
    `variables`, indexed by bitmask, by subset doubling: the subsets
    containing the next variable are those already listed, shifted by
    its weight."""
    sums = [0]
    for v in variables:
        sums += list(map(weights[v].__add__, sums))
    return sums


def _recursive_kpolynomial(ideal: MonomialIdeal) -> IntPolynomial:
    """K(S/I) by the short-exact-sequence recursion, for any monomial ideal.

    The recursion K(gens) = K(rest) - t^deg(m) K(gens' : m) runs on an
    explicit stack of work items (gens, sign, shift), each standing for
    sign * t^shift * K(S/(gens)); a leaf of pairwise-coprime pure powers
    adds sign * t^shift * prod (1 - t^deg g) to one accumulator.  The
    pivot m is the last generator among those of maximal total degree.
    Every item is one node, as every call of the recursion was; more than
    DEFAULT_RECURSION_BUDGET (read at the call) raise BudgetExceededError.

    Every term is +-t^deg(lcm s) for a subset s of the generators
    (Taylor resolution), so every exponent lies coordinatewise below
    b = deg(lcm of all generators).  Exponents are packed into one int
    with digit k in base b_k + 1, t_1 the most significant (`_packing`);
    a shift and its exponent multiply to a divisor of that lcm, so adding
    their packed forms never carries.  The accumulator is the packed
    form of the result as it stands.
    """
    grading = ideal.grading
    gens = ideal.generators
    lcm = [max(column) for column in zip(*gens)]  # empty for the zero ideal
    bases, weight = _packing(grading, lcm)

    def packed(g: tuple[int, ...]) -> int:
        return sum(map(mul, g, weight))

    acc: dict[int, int] = {}
    nodes, budget = 0, errors.DEFAULT_RECURSION_BUDGET
    stack = [(gens, 1, 0)]
    while stack:
        gens, sign, shift = stack.pop()
        nodes += 1
        check_budget(nodes, "K-polynomial recursion nodes", budget)
        if all(len(g) - g.count(0) == 1 for g in gens):
            # pairwise-coprime pure powers form a regular sequence
            terms = {shift: sign}
            for g in gens:
                step = packed(g)
                nxt = dict(terms)
                for e, c in terms.items():
                    nxt[e + step] = nxt.get(e + step, 0) - c
                terms = nxt
            for e, c in terms.items():
                acc[e] = acc.get(e, 0) + c
            continue
        totals = list(map(sum, gens))
        max_total = max(totals)
        pivot_idx = max(i for i, t in enumerate(totals) if t == max_total)
        m = gens[pivot_idx]
        rest = gens[:pivot_idx] + gens[pivot_idx + 1 :]
        quotients = [tuple(map(_monus, g, m)) for g in rest]
        if not all(map(any, quotients)):
            raise AssertionError("minimality violated inside recursion")
        stack.append((_minimalize(quotients), -sign, shift + packed(m)))
        stack.append((rest, sign, shift))
    return IntPolynomial._from_packed(grading.p, bases, acc)


def hilbert_function_oracle(
    ideal: MonomialIdeal,
    nu: Sequence[int],
    budget: int | None = None,
) -> int:
    """Count monomials of multidegree nu outside the ideal, exhaustively.

    This is the brute-force cross-check for the K-polynomial pipeline
    and deliberately shares no code with it.  More than `budget` steps
    (DEFAULT_ENUMERATION_BUDGET by default) raise BudgetExceededError.
    """
    grading = ideal.grading
    target = tuple(map(_integer, nu))
    if len(target) != grading.p:
        raise ValidationError(f"degree vector {target} has length {len(target)}")
    if any(x < 0 for x in target):
        raise ValidationError("degree vector must be nonnegative")
    steps = 0
    count = 0
    exponent = [0] * grading.nvars

    def walk(v: int, remaining: tuple[int, ...]) -> None:
        nonlocal steps, count
        steps += 1
        check_budget(steps, "Hilbert-function enumeration steps", budget)
        if v == grading.nvars:
            if all(x == 0 for x in remaining) and not ideal.contains_monomial(exponent):
                count += 1
            return
        deg = grading.degree_of[v]
        e = 0
        current = remaining
        while True:
            exponent[v] = e
            walk(v + 1, current)
            nxt = tuple(x - d for x, d in zip(current, deg))
            if any(x < 0 for x in nxt):
                break
            current = nxt
            e += 1
        exponent[v] = 0

    walk(0, target)
    return count


def quotient_krull_dimension(ideal: MonomialIdeal) -> int:
    """Krull dimension of S/I: nvars minus the size of a minimum
    variable cover of the generators (`minimum_primes`)."""
    return ideal.grading.nvars - len(minimum_primes(ideal)[0])


def minimum_primes(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """Minimal primes of S/I of least codimension, as variable covers.

    A monomial prime (x_i : i in P) contains I exactly when P meets the
    support of every generator, so the minimal primes of least
    codimension are the minimum variable covers of the generator
    supports.  The search branches on the variables of the first
    uncovered generator and, in its k-th branch, forbids the generator's
    first k - 1 variables, so each cover is reached once; a branch that
    would outgrow the smallest cover found so far is cut.  Covers are
    tuples of 0-indexed variable positions, in increasing order.
    """
    best = ideal.grading.nvars  # all variables always form a cover
    covers: list[int] = []
    nodes, budget = 0, errors.DEFAULT_RECURSION_BUDGET
    stack = [(0, 0, 0)]  # (chosen, forbidden, size), variables as bits
    while stack:
        chosen, forbidden, size = stack.pop()
        nodes += 1
        check_budget(nodes, "minimum-prime search nodes", budget)
        uncovered = next((s for s in ideal._supports if not s & chosen), None)
        if uncovered is None:
            if size < best:
                best, covers = size, []
            if size == best:
                covers.append(chosen)
            continue
        if size >= best:
            continue
        free = uncovered & ~forbidden
        branches = []
        while free:
            bit = free & -free
            branches.append((chosen | bit, forbidden, size + 1))
            forbidden |= bit
            free ^= bit
        stack.extend(reversed(branches))
    return sorted(tuple(v for v in range(ideal.grading.nvars) if c >> v & 1) for c in covers)


def _length_at(ideal: MonomialIdeal, cover: Sequence[int], spent: int) -> tuple[int, int]:
    """(mult_P(S/I), cells walked) for the minimum prime P on `cover`.

    With the variables outside P set to 1 the ideal is Artinian in
    k[x_P], so its standard monomials lie in the box below its pure
    powers.  The box is refused when its cells and the `spent` cells of
    earlier covers exceed DEFAULT_ENUMERATION_BUDGET.
    """
    in_cover = [0] * ideal.grading.nvars
    for v in cover:
        in_cover[v] = 1
    gens = [tuple(compress(g, in_cover)) for g in ideal.generators]
    box = [0] * len(cover)  # 0 until a pure power of that variable is seen
    for g in gens:
        if len(g) - g.count(0) == 1:
            e = max(g)
            k = g.index(e)
            if not box[k] or e < box[k]:
                box[k] = e
    if not all(box):
        raise AssertionError("a minimum prime left a non-Artinian localization")
    cells = prod(box)
    check_budget(spent + cells, "standard-monomial count cells")
    inside = [g for g in gens if all(map(lt, g, box))]
    count = sum(
        1
        for m in product(*(range(b) for b in box))
        if not any(_divides(g, m) for g in inside)
    )
    return count, cells


def multidegree_polynomial(ideal: MonomialIdeal) -> IntPolynomial:
    """Multidegree C(S/I; t) = sum_P mult_P(S/I) * prod_{i in P} <deg x_i, t>.

    The sum runs over the minimal primes P = (x_i : i in P) of least
    codimension (`minimum_primes`; Miller-Sturmfels, *Combinatorial
    Commutative Algebra*, Thm 8.53).  mult_P(S/I) is the number of
    standard monomials of the Artinian ideal left when every variable
    outside P is set to 1.  A squarefree ideal takes mult_P = 1 without
    that count: for a minimum cover P every v in P is the only variable
    of P in some generator (else P - v would cover), so the ideal left
    is (x_v : v in P).  Every other ideal counts in `_length_at`.
    `Grading` refuses zero and negative degree vectors, so nothing
    cancels, the total degree is the codimension, and C is the
    lowest-degree part of K(S/I; 1 - t).  So no exponent passes the
    codimension, and C is built as packed keys (see `poly`) in base
    codimension + 1.  The cover search stops at
    DEFAULT_RECURSION_BUDGET nodes and the standard-monomial count at
    DEFAULT_ENUMERATION_BUDGET cells in all, each raising
    BudgetExceededError.  C is the multidegree of MultiProj(S/I) when
    the quotient has no irrelevant torsion, which the caller asserts.
    """
    p = ideal.grading.p
    covers = minimum_primes(ideal)
    bases = [len(covers[0]) + 1] * p
    places = _places(bases)
    forms = [[(place, d) for place, d in zip(places, deg) if d] for deg in ideal.grading.degree_of]
    squarefree = max(map(max, ideal.generators), default=0) <= 1
    result: dict[int, int] = {}
    spent = 0
    for cover in covers:
        length = 1
        if not squarefree:
            length, cells = _length_at(ideal, cover, spent)
            spent += cells
        term = {0: 1}
        for v in cover:  # times <deg x_v, t> = sum_k d_k t_k
            nxt: dict[int, int] = {}
            for e, c in term.items():
                for place, d in forms[v]:
                    nxt[e + place] = nxt.get(e + place, 0) + c * d
            term = nxt
        for e, c in term.items():
            result[e] = result.get(e, 0) + length * c
    return IntPolynomial._from_packed(p, bases, result)


class SimplicialComplex(Value):
    """Abstract simplicial complex on vertices 1..nverts, given by facets.

    The facets are read in a few passes over all vertices, and only an
    input with a fault is walked entry by entry, to name it.
    """

    __slots__ = ("nverts", "facets", "_masks")

    def __init__(self, nverts: int, facets: Iterable[Iterable[int]]):
        nverts = _integer(nverts)
        rows = list(map(tuple, facets))
        entries = list(chain.from_iterable(rows))
        # every facet nonempty and every vertex an int in 1..nverts
        vertices = rows and all(rows) and set(map(type, entries)) <= {int}
        if vertices and 1 <= min(entries) and max(entries) <= nverts:
            cleaned = sorted({tuple(sorted(set(f))) for f in rows})
        else:  # convert or name the first fault
            cleaned = sorted({tuple(sorted(set(map(_integer, f)))) for f in rows})
            if not cleaned:
                raise ValidationError("a complex needs at least one facet")
            for f in cleaned:
                if not f:
                    raise ValidationError("empty facet")
                if any(not 1 <= v <= nverts for v in f):
                    raise ValidationError(f"facet {f} has a vertex outside 1..{nverts}")
        check_budget(comb(len(cleaned), 2), "nested-facet check over facet pairs")
        masks = [sum(1 << v for v in f) for f in cleaned]  # vertex v is bit v
        for (a, ma), (b, mb) in combinations(zip(cleaned, masks), 2):
            if ma & mb in (ma, mb):
                raise ValidationError(f"facets {a} and {b} are nested")
        self._set(nverts=nverts, facets=tuple(cleaned), _masks=tuple(masks))

    def minimal_nonfaces(self) -> list[tuple[int, ...]]:
        """The minimal non-faces, by size and then lexicographically.

        Each is a face tau plus one vertex v above max(tau) such that
        tau + v is no face and tau + v - u is one for every u in tau.  The
        facets are closed downward into one set of face masks (vertex v is
        bit v) after their sum_F 2^|F| subsets are charged to the budget,
        and the sum_tau (nverts - max tau) extensions are charged before
        any is tried; a charge past the budget raises BudgetExceededError.
        """
        check_budget(sum(1 << len(f) for f in self.facets), "face closure over facet subsets")
        faces = {0}
        for facet in self._masks:
            sub = facet
            while sub:  # every nonempty submask of the facet
                faces.add(sub)
                sub = (sub - 1) & facet
        starts = {tau: (tau | 1).bit_length() for tau in faces}  # max(tau) + 1; 1 for the empty face
        what = "minimal non-face search over face extensions"
        check_budget(sum(self.nverts + 1 - start for start in starts.values()), what)
        found = []
        for tau, start in starts.items():
            vertices, rest = [], tau
            while rest:
                vertices.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            for v in range(start, self.nverts + 1):
                sigma = tau | 1 << v
                if sigma not in faces and all(sigma ^ 1 << u in faces for u in vertices):
                    found.append((*vertices, v))
        return sorted(found, key=lambda sigma: (len(sigma), sigma))

    def to_json_dict(self) -> dict:
        return {"nverts": self.nverts, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        """A complex from a document of the `simplicial_complex` schema."""
        check("simplicial_complex", data)
        return cls(data["nverts"], data["facets"])


def stanley_reisner_ideal(
    complex_: SimplicialComplex, vars_per_vertex: int = 1
) -> MonomialIdeal:
    """Squarefree ideal of the minimal non-faces.

    With the default of one variable per vertex, variable i has degree
    e_i in N^nverts.  With vars_per_vertex = 2 every vertex contributes
    a pair of variables of the same degree (one projective line per
    vertex) and the generators use the first variable of each pair.
    The budget is charged for the degree rows, then by `minimal_nonfaces`,
    then for all generator rows at once, each before what it counts.  A
    minimal non-face holds no other non-face, so the generators are
    pairwise incomparable and `MonomialIdeal`'s check over generator
    pairs is skipped.
    """
    vars_per_vertex = _integer(vars_per_vertex)
    if vars_per_vertex < 1:
        raise ValidationError("vars_per_vertex must be at least 1")
    n = complex_.nverts
    width = n * vars_per_vertex
    what = "Stanley-Reisner ideal entries"
    check_budget(width * n, what)
    nonfaces = complex_.minimal_nonfaces()
    check_budget(width * (n + len(nonfaces)), what)
    generators = [[0] * width for _ in nonfaces]
    for exp, nonface in zip(generators, nonfaces):
        for v in nonface:
            exp[v - 1] = 1
    degrees = [[int(j == i) for j in range(n)] for _ in range(vars_per_vertex) for i in range(n)]
    return MonomialIdeal._from_antichain(
        Grading(width, n, degrees), sorted(map(tuple, generators))
    )


def facet_support(complex_: SimplicialComplex) -> Support:
    """{0,1} incidence vectors of the facets of maximal size."""
    top = max(map(len, complex_.facets))
    points = []
    for f in complex_.facets:
        if len(f) == top:
            points.append(tuple(1 if v in f else 0 for v in range(1, complex_.nverts + 1)))
    return Support(complex_.nverts, points)


# -- shipped fixtures --------------------------------------------------------


def hollow_triangle() -> SimplicialComplex:
    """Three vertices, three edges, no 2-face."""
    return SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])


def octahedron_boundary() -> SimplicialComplex:
    """Boundary of the octahedron; antipodal pairs (1,4), (2,5), (3,6)."""
    facets = []
    for a in (1, 4):
        for b in (2, 5):
            for c in (3, 6):
                facets.append((a, b, c))
    return SimplicialComplex(6, facets)


def icosahedron_boundary() -> SimplicialComplex:
    """Boundary of the icosahedron: vertex 1 on top, upper pentagon 2-6,
    lower pentagon 7-11, vertex 12 at the bottom."""
    upper = [2, 3, 4, 5, 6]
    lower = [7, 8, 9, 10, 11]
    facets = []
    for k in range(5):
        u, u_next = upper[k], upper[(k + 1) % 5]
        l, l_next = lower[k], lower[(k + 1) % 5]
        facets.append((1, u, u_next))
        facets.append((u, u_next, l))
        facets.append((u_next, l, l_next))
        facets.append((12, l, l_next))
    return SimplicialComplex(12, facets)
