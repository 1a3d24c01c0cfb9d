"""Flag-variety and rational-curves supports, with the literal
inequality comparator and the Catalan cardinality law."""

import tracemalloc
from math import comb

import pytest

from multidegree import (
    BudgetExceededError,
    Support,
    ValidationError,
    flag_comparator_report,
    flag_msupp,
    flag_rank_function,
    is_mconvex,
    m0n_msupp,
    m0n_rank_function,
    msupp_from_rank,
    validate_rank_function,
)
from multidegree import errors
from multidegree.polymatroid import _slice_dag, compositions


def catalan_numbers(count):
    """C_1, ..., C_count by the convolution recurrence."""
    values = [1]  # C_0
    for _ in range(count):
        values.append(sum(values[i] * values[-1 - i] for i in range(len(values))))
    return values[1:]


def prefix_enumeration(p):
    """Literal prefix-inequality set: sum of the first k entries <= k for
    k < p, total equal to p."""
    points = []

    def extend(prefix, acc):
        k = len(prefix)
        if k == p:
            if acc == p:
                points.append(tuple(prefix))
            return
        for v in range(p - acc + 1):
            if k + 1 < p and acc + v > k + 1:
                continue
            if k + 1 == p and acc + v != p:
                continue
            extend(prefix + [v], acc + v)

    extend([], 0)
    return tuple(sorted(points))


def flag_simple_inequalities(p, n):
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


def flag_rank_oracle(p):
    """r(J) as the sum over i<j of d_i d_j for the gap sizes d of J,
    mask by mask."""
    values = []
    for mask in range(1 << p):
        cuts = [0] + [j + 1 for j in range(p) if mask >> j & 1] + [p + 1]
        gaps = [b - a for a, b in zip(cuts, cuts[1:])]
        values.append(sum(x * y for i, x in enumerate(gaps) for y in gaps[i + 1 :]))
    return tuple(values)


def comparator_oracle(support):
    """The comparator by walking every composition of binom(p+1, 2)
    into p parts and testing each against both routes."""
    p = support.p
    members = set(support.points)
    only_rank, only_literal, literal_count = [], [], 0
    for point in compositions(comb(p + 1, 2), p):
        in_rank = point in members
        in_literal = flag_simple_inequalities(p, point)
        literal_count += in_literal
        if in_rank and not in_literal:
            only_rank.append(list(point))
        elif in_literal and not in_rank:
            only_literal.append(list(point))
    return {
        "p": p,
        "count_rank_route": len(members),
        "count_literal_route": literal_count,
        "agree": not only_rank and not only_literal,
        "only_rank_route": only_rank,
        "only_literal_route": only_literal,
    }


class TestFlagRank:
    def test_p2_values(self):
        r = flag_rank_function(2)
        assert r.of_set([1]) == 2
        assert r.of_set([2]) == 2
        assert r.of_set([1, 2]) == 3
        assert r.of_set([]) == 0

    def test_full_set_is_flag_dimension(self):
        for p in range(1, 7):
            r = flag_rank_function(p)
            assert r.of_set(range(1, p + 1)) == comb(p + 1, 2)

    @pytest.mark.parametrize("p", range(1, 11))
    def test_matches_gap_product_sum(self, p):
        assert flag_rank_function(p).values == flag_rank_oracle(p)

    def test_valid_up_to_p8(self):
        for p in range(1, 9):
            assert validate_rank_function(flag_rank_function(p)).valid


class TestFlagSupport:
    def test_p1(self):
        assert flag_msupp(1).points == ((1,),)

    def test_p2(self):
        assert flag_msupp(2).points == ((1, 2), (2, 1))

    def test_p3_matches_direct_enumeration(self):
        support = flag_msupp(3)
        r = flag_rank_function(3)
        assert support == msupp_from_rank(r)
        assert support.weight == 6
        assert is_mconvex(support).mconvex

    def test_p_must_be_positive(self):
        with pytest.raises(ValidationError):
            flag_msupp(0)

    def test_p8_refused_before_its_points_are_built(self):
        # listing the first 2,000,000 of its 3,104,160 points took ~247 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                flag_msupp(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_p10_counted_past_the_listing_budget(self, monkeypatch):
        # a 2^10-entry table: the memo floor of 2^16 bytes keeps its repeated
        # slices (a floor of 2^14 bytes makes the count take about 17 s)
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 10**12)
        assert _slice_dag(flag_rank_function(10))[0] == 2_363_342_198


class TestComparator:
    def test_literal_system_p2_rejects_everything(self):
        # literal reading: k=2 forces n_2 <= 1 + 0 - n_1 <= 0, impossible
        assert not flag_simple_inequalities(2, (1, 2))
        assert not flag_simple_inequalities(2, (2, 1))

    def test_literal_system_p1(self):
        # k=1 bound: 1 <= n_1 <= p - 1 = 0, so even (1) is rejected
        assert not flag_simple_inequalities(1, (1,))

    def test_wrong_weight_rejected(self):
        assert not flag_simple_inequalities(3, (1, 2, 2))

    def test_literal_system_is_empty(self):
        # the k = p bound gives |n| <= binom(p, 2) < binom(p+1, 2)
        for p in range(1, 7):
            assert not any(
                flag_simple_inequalities(p, n) for n in compositions(comb(p + 1, 2), p)
            )

    @pytest.mark.parametrize(
        "support",
        [flag_msupp(p) for p in range(1, 7)] + [m0n_msupp(4), Support(3, [])],
        ids=[f"flag-{p}" for p in range(1, 7)] + ["m0n-4", "empty"],
    )
    def test_report_matches_composition_walk(self, support):
        assert flag_comparator_report(support) == comparator_oracle(support)

    def test_report_structure_and_discrepancy(self):
        for p in range(1, 7):
            report = flag_comparator_report(flag_msupp(p))
            assert set(report) >= {
                "p",
                "agree",
                "only_rank_route",
                "only_literal_route",
                "count_rank_route",
                "count_literal_route",
            }
            assert report["count_rank_route"] == len(flag_msupp(p))
        # the discrepancy at p=2 is a recorded fact, not an assertion failure
        report2 = flag_comparator_report(flag_msupp(2))
        assert not report2["agree"]
        assert report2["only_rank_route"] == [[1, 2], [2, 1]]
        assert report2["only_literal_route"] == []


class TestModuliSupport:
    def test_rank_is_max(self):
        r = m0n_rank_function(3)
        assert r.values == (0, 1, 2, 2, 3, 3, 3, 3)
        assert validate_rank_function(r).valid

    @pytest.mark.parametrize("p", range(1, 11))
    def test_rank_is_max_of_the_set(self, p):
        assert m0n_rank_function(p).values == tuple(
            max((j + 1 for j in range(p) if mask >> j & 1), default=0)
            for mask in range(1 << p)
        )

    def test_p3_points(self):
        assert m0n_msupp(3).points == (
            (0, 0, 3),
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 1, 1),
        )

    def test_p1(self):
        assert m0n_msupp(1).points == ((1,),)

    def test_matches_prefix_enumeration_up_to_p8(self):
        for p in range(1, 9):
            assert m0n_msupp(p).points == prefix_enumeration(p)

    def test_catalan_cardinalities(self):
        expected = catalan_numbers(8)
        for p in range(1, 9):
            assert len(m0n_msupp(p)) == expected[p - 1]

    def test_catalan_counts_up_to_p20(self, monkeypatch):
        # the counts, past the listing budget from p = 14 on (C_20 = 6,564,120,420)
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 10**12)
        expected = catalan_numbers(20)
        for p in range(2, 21):
            assert _slice_dag(m0n_rank_function(p))[0] == expected[p - 1]

    def test_mconvex(self):
        for p in range(1, 7):
            assert is_mconvex(m0n_msupp(p)).mconvex
