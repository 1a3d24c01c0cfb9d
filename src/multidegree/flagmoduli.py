"""Closed-form multidegree supports for complete flag varieties and for
the iterated Keel-Tevelev embedding of the moduli of stable rational
curves.

The flag support comes from the rank function S(J) counting the
dimension of the partial flag variety selected by J; that route is the
ground truth here.  The shorter printed inequality system has no
solution for any p when read literally (see `flag_comparator_report`),
so the comparator report is built from the support alone; the literal
system itself is kept in the tests as the reference.
"""

from __future__ import annotations

from math import comb

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
    """Multidegree support of the Pluecker-embedded complete flag variety.

    It grows fast with p: 142,396 points at p = 7 and 3,104,160 at
    p = 8, past DEFAULT_ENUMERATION_BUDGET, so from p = 8 on
    `msupp_from_rank` raises BudgetExceededError.
    """
    return msupp_from_rank(flag_rank_function(p))


def flag_comparator_report(support: Support) -> dict:
    """Pointwise comparison of the rank-route support `flag_msupp(p)`
    with the printed inequality system

        1 <= n_k <= sum_{j=1..k}(p-j) - sum_{i<k} n_i   for all k,
        |n| = binom(p+1, 2),

    read literally.  That system is empty for every p: its k = p
    inequality gives |n| <= sum_{j=1..p}(p-j) = binom(p, 2) <
    binom(p+1, 2) = |n|.  So `count_literal_route` is 0,
    `only_literal_route` is empty, and `only_rank_route` lists the
    support's points of weight binom(p+1, 2), in the support's order.
    """
    p = support.p
    # the points of a support share one weight
    full = support.weight == comb(p + 1, 2)
    only_rank = [list(point) for point in support.points] if full else []
    return {
        "p": p,
        "count_rank_route": len(support),
        "count_literal_route": 0,
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
