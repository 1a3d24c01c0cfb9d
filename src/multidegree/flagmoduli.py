"""Closed-form multidegree supports for complete flag varieties and for
the iterated Keel-Tevelev embedding of the moduli of stable rational
curves.

The flag support comes from the rank function S(J) counting the
dimension of the partial flag variety selected by J; that route is the
ground truth here.  The shorter printed inequality system is also
implemented verbatim, as a comparator only: read literally it has no
solution for any p, and the comparator report surfaces rather than
hides that.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .errors import ValidationError
from .polymatroid import RankFunction, Support, check_ground_set, msupp_from_rank


def flag_rank_function(p: int) -> RankFunction:
    """r(J) = sum over i<j of d_i d_j for the gap sizes d of J in [p],
    the dimension of the partial flag variety of the subspace sizes J."""
    check_ground_set(p)
    if p < 1:
        raise ValidationError("p must be at least 1")
    values = []
    for mask in range(1 << p):
        chosen = [j + 1 for j in range(p) if mask >> j & 1]
        cuts = [0] + chosen + [p + 1]
        gaps = [cuts[k + 1] - cuts[k] for k in range(len(cuts) - 1)]
        values.append(
            sum(
                gaps[i] * gaps[j]
                for i in range(len(gaps))
                for j in range(i + 1, len(gaps))
            )
        )
    return RankFunction(p, values)


def flag_msupp(p: int) -> Support:
    """Multidegree support of the Pluecker-embedded complete flag variety."""
    return msupp_from_rank(flag_rank_function(p))


def flag_simple_inequalities(p: int, n: Sequence[int]) -> bool:
    """Literal evaluation of the printed inequality system:

        1 <= n_k <= sum_{j=1..k}(p-j) - sum_{i<k} n_i   for all k,
        |n| = binom(p+1, 2).

    Kept verbatim for cross-checking against flag_msupp; no corrected
    index convention is guessed.
    """
    if p < 1:
        raise ValidationError("p must be at least 1")
    vec = [int(x) for x in n]
    if len(vec) != p:
        raise ValidationError(f"expected a vector of length {p}")
    if sum(vec) != comb(p + 1, 2):
        return False
    bound = 0  # sum_{j=1..k}(p-j) - sum_{i<k} n_i, carried from k - 1 to k
    for k, n_k in enumerate(vec, start=1):
        bound += p - k
        if not 1 <= n_k <= bound:
            return False
        bound -= n_k
    return True


def flag_comparator_report(support: Support) -> dict:
    """Pointwise comparison of the rank-route support `flag_msupp(p)`
    with the literal inequality system.

    The literal system is empty for every p: its k = p inequality gives
    |n| <= sum_{j=1..p}(p-j) = binom(p, 2) < binom(p+1, 2) = |n|.  So no
    point outside the support can pass it, and one pass over the
    support's points is the whole comparison: `only_literal_route` is
    empty, and `only_rank_route` lists the support's points of weight
    binom(p+1, 2), in the support's order.
    """
    p = support.p
    weight = comb(p + 1, 2)
    only_rank = []
    literal_count = 0
    for point in support.points:
        if flag_simple_inequalities(p, point):
            literal_count += 1
        elif sum(point) == weight:
            only_rank.append(list(point))
    return {
        "p": p,
        "count_rank_route": len(support),
        "count_literal_route": literal_count,
        "agree": not only_rank,
        "only_rank_route": only_rank,
        "only_literal_route": [],
    }


def m0n_rank_function(p: int) -> RankFunction:
    """r(J) = max(J), the projection dimensions of the iterated
    Keel-Tevelev embedding of the (p+3)-pointed rational curves."""
    check_ground_set(p)
    if p < 1:
        raise ValidationError("p must be at least 1")
    values = []
    for mask in range(1 << p):
        chosen = [j + 1 for j in range(p) if mask >> j & 1]
        values.append(max(chosen) if chosen else 0)
    return RankFunction(p, values)


def m0n_msupp(p: int) -> Support:
    """Multidegree support of the moduli embedding; its size is the
    p-th Catalan number."""
    return msupp_from_rank(m0n_rank_function(p))
