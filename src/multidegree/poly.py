"""Exact sparse polynomials with integer coefficients.

A polynomial in ``nvars`` variables t_1, ..., t_nvars maps exponents
(one natural number per variable) to nonzero Python ints, so
coefficients can never overflow.  It is held in one form, a dict from
packed keys to coefficients.  A key holds the exponent of t_k in digit
k of a mixed radix with bases b_1, ..., b_nvars, t_1 the most
significant digit: key = sum_k e_k * b_{k+1} * ... * b_nvars with every
e_k < b_k.  Int order of the keys is then lexicographic order of the
exponents.  The constructor packs in base 1 + the largest exponent of
each variable; `kpolynomial`, `multidegree_polynomial` and
`divided_difference` build keys in bases of their own.

`len`, `render` (the one writer), `support`, `negative_exponents` and
`divided_difference` read the keys.  `_terms`, the dict by exponent
tuple, is an uncached view, unpacked on every read; equality, hashing,
the arithmetic and `to_json_dict` read it.  Values are immutable after
construction and every operation returns a fresh polynomial, which
makes them safe to share between threads.

Serialized form (terms in lexicographic exponent order, coefficients as
decimal strings), as `to_json_text` and the CLI write it, with sorted
keys and no spaces:

    {"nvars":2,"terms":[{"coef":"2","exp":[1,1]}]}
"""

from __future__ import annotations

import math
from itertools import chain, product, repeat
from operator import mul
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import UnsupportedSizeError, ValidationError, Value, _assign
from .polymatroid import Support, _integer
from .schemas import check

ExponentVector = tuple[int, ...]


class IntPolynomial(Value):
    """Immutable sparse multivariate polynomial over the integers.

    The public constructor checks its input: `nvars`, every exponent
    entry and every coefficient must be an int (a float or a bool raises
    ValidationError, where int() would truncate or read it), and every
    exponent must be a nonnegative vector of length `nvars`.  Repeated
    exponents add up and zero coefficients are dropped.
    `from_json_dict` also reads decimal-string coefficients.  Every
    operation builds its result with `_from_terms` from exponent tuples
    or `_from_packed` from packed keys; both drop zero coefficients and
    check nothing else, since their exponents come from checked
    polynomials.
    Immutability is enforced: assigning to or deleting a field raises
    AttributeError.
    """

    # _packed: packed key -> nonzero coefficient; _bases: the digit
    # bases, t_1 first
    __slots__ = ("nvars", "_packed", "_bases")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[Iterable[int], int] | Iterable[tuple[Iterable[int], int]] = (),
    ):
        nvars = _integer(nvars)
        if nvars < 0:
            raise ValidationError("nvars must be nonnegative")
        acc: dict[ExponentVector, int] = {}
        for exp, coef in terms.items() if isinstance(terms, Mapping) else terms:
            key = tuple(e if type(e) is int else _integer(e) for e in exp)
            if len(key) != nvars:
                raise ValidationError(
                    f"exponent vector {key} has length {len(key)}, expected {nvars}"
                )
            if any(e < 0 for e in key):
                raise ValidationError(f"negative exponent in {key}")
            acc[key] = acc.get(key, 0) + (coef if type(coef) is int else _integer(coef))
        self._fill(nvars, *_pack(nvars, acc))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict[ExponentVector, int]) -> "IntPolynomial":
        """`_from_packed` of int coefficients keyed by nonnegative int
        tuples of length nvars, packed by `_pack`."""
        return cls._from_packed(nvars, *_pack(nvars, terms))

    @classmethod
    def _from_packed(cls, nvars: int, bases: Iterable[int], terms: dict[int, int]) -> "IntPolynomial":
        """A polynomial from int coefficients keyed by packed exponents
        with these nvars digit bases, t_1 first (see the module
        docstring); zero coefficients are dropped and nothing else is
        checked."""
        poly = object.__new__(cls)
        poly._fill(nvars, tuple(bases), {e: c for e, c in terms.items() if c})
        return poly

    def _fill(self, nvars: int, bases: tuple[int, ...], packed: dict[int, int]) -> None:
        """Set the three fields once, one assignment each: `Value._set`
        with keywords costs about twice as much, and every operation
        builds a polynomial."""
        _assign(self, "nvars", nvars)
        _assign(self, "_packed", packed)
        _assign(self, "_bases", bases)

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "IntPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "IntPolynomial":
        """The variable t_i (1-indexed)."""
        if not 1 <= i <= nvars:
            raise ValidationError(f"variable index {i} out of range 1..{nvars}")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp: Iterable[int], coef: int = 1) -> "IntPolynomial":
        return cls(nvars, {tuple(exp): coef})

    # -- basic protocol ----------------------------------------------------

    @property
    def _terms(self) -> dict[ExponentVector, int]:
        """The term mapping (exponent tuple -> nonzero coefficient), a new
        dict unpacked on every read."""
        return dict(zip(_unpack(self._bases, self._packed), self._packed.values()))

    terms = _terms

    def coefficient(self, exp: Iterable[int]) -> int:
        return self._terms.get(tuple(exp), 0)

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[tuple[ExponentVector, int]]:
        return iter(sorted(self._terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"IntPolynomial({self.nvars}, {self.pretty()!r})"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "IntPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValidationError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self._terms)
        for exp, coef in other._terms.items():
            acc[exp] = acc.get(exp, 0) + coef
        return IntPolynomial._from_terms(self.nvars, acc)

    def __neg__(self) -> "IntPolynomial":
        return self * -1

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            packed = {e: c * other for e, c in self._packed.items()}
            return IntPolynomial._from_packed(self.nvars, self._bases, packed)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check_compatible(other)
        acc: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return IntPolynomial._from_terms(self.nvars, acc)

    __rmul__ = __mul__

    # -- variable actions --------------------------------------------------

    def divided_difference(self, i: int) -> "IntPolynomial":
        """Apply the i-th divided difference (f - s_i f) / (t_i - t_{i+1}).

        The quotient is taken term by term (Macdonald, *Notes on Schubert
        Polynomials*, 1991).  Let a and b be the exponents of t_i and
        t_{i+1} in a term c t^e.  The term gives 0 when a = b, and when
        a > b it gives c sum_{k=b}^{a-1} t_i^k t_{i+1}^(a+b-1-k), every
        other exponent unchanged; when a < b, a and b swap and c changes
        sign.  The division is exact, so no remainder is left to check.

        A key splits by divmod into a, b and the digits above and below
        them.  New keys hold digits i and i+1 in base w = max(b_i, b_{i+1}),
        which bounds each new digit, as each is below max(a, b); the key
        for k is the key for 0 plus k * (w - 1) places of t_{i+1}.
        """
        i = _integer(i)
        if not 1 <= i < self.nvars:
            raise ValidationError(f"divided difference index {i} out of range 1..{self.nvars - 1}")
        bases = self._bases
        low = math.prod(bases[i + 1 :])  # the place of t_{i+1}
        below, width = bases[i] * low, max(bases[i - 1], bases[i])
        above, step = bases[i - 1] * below, (width - 1) * low
        acc: dict[int, int] = {}
        for key, coef in self._packed.items():
            high, rest = divmod(key, above)
            a, rest = divmod(rest, below)
            b, rest = divmod(rest, low)
            if a < b:
                a, b, coef = b, a, -coef
            first = (high * width * width + a + b - 1) * low + rest
            for k in range(b, a):
                acc[first + k * step] = acc.get(first + k * step, 0) + coef
        widened = bases[: i - 1] + (width, width) + bases[i + 1 :]
        return IntPolynomial._from_packed(self.nvars, widened, acc)

    def substitute_one_minus(self) -> "IntPolynomial":
        """Replace every variable t_i by (1 - t_i), fully expanded."""
        acc: dict[ExponentVector, int] = {}
        for exp, coef in self._terms.items():
            for k in product(*[range(e + 1) for e in exp]):
                weight = (-coef if sum(k) % 2 else coef) * math.prod(map(math.comb, exp, k))
                acc[k] = acc.get(k, 0) + weight
        return IntPolynomial._from_terms(self.nvars, acc)

    # -- degree filters and support ----------------------------------------

    def total_degree(self) -> int:
        """Largest coordinate sum of an exponent; -1 for the zero polynomial."""
        return max(map(sum, _unpack(self._bases, self._packed)), default=-1)

    def truncate_total_degree(self, d: int) -> "IntPolynomial":
        """Keep exactly the terms whose exponents sum to d."""
        return IntPolynomial._from_terms(
            self.nvars, {e: c for e, c in self._terms.items() if sum(e) == d}
        )

    def support(self) -> Support:
        """Exponents with strictly positive coefficient.

        Negative-coefficient terms are excluded here; use
        negative_exponents() to inspect them.  Sorted keys unpack to
        increasing points, which the support reader keeps unsorted.
        """
        keys = sorted(k for k, c in self._packed.items() if c > 0)
        return Support._from_naturals(self.nvars, _unpack(self._bases, keys))

    def negative_exponents(self) -> list[ExponentVector]:
        return _unpack(self._bases, sorted(k for k, c in self._packed.items() if c < 0))

    # -- formatting and serialization ---------------------------------------

    def render(self) -> tuple[str, str]:
        """The JSON text of `to_json_dict` (sorted keys, no spaces) and the
        pretty text, from one sort of the packed keys and no dict per term.

        The exponent and factor texts of the keys come from `_texts`, and
        every piece of every term goes into one join.  Terms are first
        written " + <coef><factors>"; a space stands only beside a sign, so
        turning " + -" into " - " and " 1*" into " " then gives the signs
        and drops each coefficient 1 of a nonconstant term.  A coefficient
        or exponent of more digits than str() writes raises
        UnsupportedSizeError."""
        packed = self._packed
        if not packed:
            return f'{{"nvars":{self.nvars},"terms":[]}}', "0"
        keys = sorted(packed)
        try:
            coefs = list(map(str, map(packed.__getitem__, keys)))
            exps, monomials = _texts(keys, self._bases, 1)
        except ValueError as exc:  # a number of more digits than str() writes
            raise UnsupportedSizeError(f"a polynomial is too large to print: {exc}") from exc
        # the pieces of every term in turn, joined once, with no format per term
        rows = zip(repeat('{"coef":"'), coefs, repeat('","exp":['), exps, repeat("]},"))
        terms = "".join(chain.from_iterable(rows))[:-1]
        text = "".join(chain.from_iterable(zip(repeat(" + "), coefs, monomials)))
        text = text.replace(" + -", " - ").replace(" 1*", " ")
        pretty = text[3:] if text[1] == "+" else "-" + text[3:]
        return f'{{"nvars":{self.nvars},"terms":[{terms}]}}', pretty

    def pretty(self) -> str:
        """Human-readable form like '2*t1^2*t2 - t3 + 1'."""
        return self.render()[1]

    def to_json_text(self) -> str:
        """`to_json_dict` as compact JSON text with sorted keys."""
        return self.render()[0]

    def to_json_dict(self) -> dict:
        try:
            terms = [{"exp": list(exp), "coef": str(coef)} for exp, coef in self]
        except ValueError as exc:  # a coefficient of more digits than str() writes
            raise UnsupportedSizeError(f"a polynomial is too large to print: {exc}") from exc
        return {"nvars": self.nvars, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntPolynomial":
        """A polynomial from a document of the `polynomial` schema."""
        check("polynomial", data)
        terms = []
        for term in data["terms"]:
            try:  # the schema admits an int or a decimal string
                terms.append((term["exp"], int(term["coef"])))
            except ValueError as exc:  # e.g. more digits than int() reads
                raise ValidationError(f"coefficient of {term['exp']}: {exc}") from exc
        return cls(data["nvars"], terms)


def _places(bases: Sequence[int]) -> list[int]:
    """The place value of each digit of a packed key with these bases,
    t_1 first: the product of the bases after it."""
    return [math.prod(bases[k + 1 :]) for k in range(len(bases))]


def _pack(nvars: int, terms: dict[ExponentVector, int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """(bases, packed key -> coefficient) of the nonzero terms, in base
    1 + the largest exponent of each variable (base 1 if there is none)."""
    terms = {e: c for e, c in terms.items() if c}
    bases = tuple(max(column) + 1 for column in zip(*terms)) if terms else (1,) * nvars
    places = _places(bases)
    return bases, dict(zip([sum(map(mul, e, places)) for e in terms], terms.values()))


def _unpack(bases: tuple[int, ...], keys: Collection[int]) -> list[ExponentVector]:
    """The exponent tuples of packed keys with these digit bases, t_1
    first, in the order of `keys`, from one digit column per variable."""
    columns = [map(b.__rmod__, map(p.__rfloordiv__, keys)) for p, b in zip(_places(bases), bases)]
    return list(zip(*columns)) if bases else [()] * len(keys)  # no digits: every key is 0


def _texts(keys: list[int], bases: tuple[int, ...], first: int) -> tuple[list[str], list[str]]:
    """The texts of distinct packed keys whose digits have these bases and
    are the exponents of t_first, t_first+1, ...: the exponents as
    comma-separated decimals, and the factors "*t<i>^<e>" ("*t<i>" for
    1, none for 0), each list in the order of `keys`.  A key of two or
    more digits splits at its middle digit, and the texts of each
    distinct half are written once, by the same rule."""
    if len(bases) < 2:
        name = f"*t{first}"
        exps = list(map(str, keys)) if bases else [""] * len(keys)  # no digits: the one key is 0
        return exps, [f"{name}^{e}" if e > 1 else name if e else "" for e in keys]
    mid = len(bases) // 2
    split = math.prod(bases[mid:])
    halves = []
    for part, part_bases, part_first in (
        (list(map(split.__rfloordiv__, keys)), bases[:mid], first),
        (list(map(split.__rmod__, keys)), bases[mid:], first + mid),
    ):
        distinct = list(set(part))
        exps, monomials = _texts(distinct, part_bases, part_first)
        halves.append(map(dict(zip(distinct, exps)).__getitem__, part))
        halves.append(map(dict(zip(distinct, monomials)).__getitem__, part))
    high_exps, high_monomials, low_exps, low_monomials = halves
    exps = list(map(",".join, zip(high_exps, low_exps)))
    return exps, list(map(str.__add__, high_monomials, low_monomials))
