"""Rank functions, base-polytope enumeration, M-convexity, subspace ranks.

The randomized checks generate rank functions as minima of nonnegative
modular functions plus constants, filtered through the validator, or as
linear ranks of random subspace families over Q and F_5, and cross-check
msupp_from_rank against a pruning-free enumeration of all compositions.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidegree import (
    BudgetExceededError,
    InvalidRankError,
    RankFunction,
    SubspaceFamily,
    Support,
    UnsupportedSizeError,
    ValidationError,
    is_mconvex,
    linear_rank,
    msupp_from_rank,
    msupp_union,
    rank_from_support,
    validate_rank_function,
)
from multidegree import polymatroid

from mconvex_oracle import exchange_report, murota_mconvex, rank_from_support_oracle
from rank_oracle import sympy_rank
from rank_report_oracle import validate_rank_oracle

INTRO_RANK = RankFunction(3, [0, 1, 2, 2, 3, 3, 3, 3])
INTRO_POINTS = ((0, 0, 3), (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 1, 1))


def brute_force_base_points(r):
    """Oracle: all compositions of r([p]) filtered by every subset inequality."""
    p = r.p
    total = r.values[r.full_mask]

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    points = []
    for n in compositions(total, p):
        # sums[mask] = n(J) for the subset J that mask encodes
        sums = [0] * (1 << p)
        for mask in range(1, 1 << p):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + n[low.bit_length() - 1]
        if all(s <= v for s, v in zip(sums, r.values)):
            points.append(n)
    return tuple(sorted(points))


def random_valid_rank(rng, p, tries=200):
    """Min of a few nonnegative modular-plus-constant functions, rejection
    sampled through the validator."""
    for _ in range(tries):
        k = rng.randint(1, 3)
        mods = []
        for _ in range(k):
            weights = [rng.randint(0, 4) for _ in range(p)]
            cap = rng.randint(0, 8)
            mods.append((weights, cap))
        values = []
        for mask in range(1 << p):
            best = min(
                cap + sum(w for j, w in enumerate(weights) if mask >> j & 1)
                for weights, cap in mods
            )
            values.append(best)
        values[0] = 0
        candidate = RankFunction(p, values)
        if validate_rank_function(candidate).valid:
            return candidate
    raise AssertionError("could not sample a valid rank function")


def random_family(rng, p, field="Q"):
    """p random subspaces of a space of dimension at most 4, each spanned
    by up to three vectors with entries in -2..2."""
    dim = rng.randint(1, 4)
    return SubspaceFamily(
        dim,
        [
            [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
            for _ in range(p)
        ],
        field=field,
    )


class TestValidate:
    def test_free_matroid_valid(self):
        r = RankFunction(2, [0, 1, 1, 2])
        assert validate_rank_function(r).valid

    def test_submodularity_violation_with_witness(self):
        r = RankFunction(2, [0, 1, 1, 3])
        report = validate_rank_function(r)
        assert not report.valid
        v = report.violations[0]
        assert v.axiom == "submodularity"
        assert set(v.subsets) == {(1,), (2,)}

    def test_max_rank_is_valid(self):
        values = [0] * 8
        for mask in range(1, 8):
            values[mask] = max(j + 1 for j in range(3) if mask >> j & 1)
        assert validate_rank_function(RankFunction(3, values)).valid

    def test_normalization_violation(self):
        r = RankFunction(1, [1, 1])
        report = validate_rank_function(r)
        assert not report.valid
        assert report.violations[0].axiom == "normalization"

    def test_monotonicity_violation(self):
        r = RankFunction(2, [0, 2, 1, 1])
        report = validate_rank_function(r)
        assert not report.valid
        assert any(v.axiom == "monotonicity" for v in report.violations)

    def test_wrong_table_size_rejected(self):
        with pytest.raises(ValidationError):
            RankFunction(2, [0, 1, 1])

    def test_ground_set_cap(self):
        with pytest.raises(UnsupportedSizeError):
            RankFunction(21, [0] * (1 << 21))


def coverage_values(p, weights, covers, scale=1):
    """The table of r(J) = scale * (total weight of the items covered by J),
    where element j covers the items in the bitmask covers[j]: a valid
    rank function (a weighted coverage function)."""
    union = [0] * (1 << p)
    for mask in range(1, 1 << p):
        low = mask & -mask
        union[mask] = union[mask ^ low] | covers[low.bit_length() - 1]
    return [scale * sum(w for k, w in enumerate(weights) if u >> k & 1) for u in union]


@st.composite
def rank_tables(draw):
    """Valid tables of p <= 8 elements with 1-3 entries corrupted, some
    of several hundred digits, or tables of arbitrary small entries."""
    p = draw(st.integers(1, 8))
    size = 1 << p
    kind = draw(st.sampled_from(["corrupted", "long", "arbitrary"]))
    if kind == "arbitrary":
        return RankFunction(p, draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)))
    scale = 10**300 if kind == "long" else 1
    weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    covers = draw(st.lists(st.integers(0, (1 << len(weights)) - 1), min_size=p, max_size=p))
    values = coverage_values(p, weights, covers, scale)
    for _ in range(draw(st.integers(1, 3))):
        mask = draw(st.integers(0, size - 1))
        values[mask] += draw(st.integers(-3, 3)) * scale + draw(st.integers(-1, 1))
    return RankFunction(p, values)


class TestValidateAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rank_tables())
    def test_report_equals_the_oracle(self, r):
        assert validate_rank_function(r) == validate_rank_oracle(r)

    def test_report_equals_the_oracle_on_large_ground_sets(self):
        rng = random.Random(127)
        invalid = 0
        for p in (9, 10, 11):
            for _ in range(4):
                weights = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
                covers = [rng.randrange(1 << len(weights)) for _ in range(p)]
                values = coverage_values(p, weights, covers)
                for _ in range(rng.randint(1, 3)):
                    values[rng.randrange(1 << p)] += rng.choice([-2, -1, 1, 2])
                r = RankFunction(p, values)
                report = validate_rank_function(r)
                assert report == validate_rank_oracle(r)
                invalid += not report.valid
        assert invalid >= 10


class TestMsuppFromRank:
    def test_intro_example(self):
        assert msupp_from_rank(INTRO_RANK).points == INTRO_POINTS

    def test_single_factor(self):
        assert msupp_from_rank(RankFunction(1, [0, 4])).points == ((4,),)

    def test_free_rank_single_point(self):
        values = [bin(mask).count("1") for mask in range(8)]
        assert msupp_from_rank(RankFunction(3, values)).points == ((1, 1, 1),)

    def test_invalid_rank_rejected(self):
        r = RankFunction(2, [0, 1, 1, 3])
        with pytest.raises(InvalidRankError) as caught:
            msupp_from_rank(r)
        assert isinstance(caught.value, ValidationError)
        assert caught.value.report == validate_rank_function(r)
        assert str(caught.value) == "invalid rank function: submodularity at ((1,), (2,))"

    def test_budget_counts_points_before_listing_them(self, monkeypatch):
        monkeypatch.setattr(polymatroid, "DEFAULT_ENUMERATION_BUDGET", 10)
        assert len(msupp_from_rank(RankFunction(2, [0, 9, 9, 9]))) == 10
        with pytest.raises(BudgetExceededError):
            msupp_from_rank(RankFunction(2, [0, 10, 10, 10]))
        # every nonempty set of rank 3: C(5, 2) = 10 points, over four ranges
        uniform = RankFunction(3, [0] + [3] * 7)
        assert len(msupp_from_rank(uniform)) == 10
        monkeypatch.setattr(polymatroid, "DEFAULT_ENUMERATION_BUDGET", 9)
        with pytest.raises(BudgetExceededError):
            msupp_from_rank(uniform)

    def test_matches_brute_force_randomized(self):
        rng = random.Random(101)
        ranks = [random_valid_rank(rng, rng.randint(1, 6)) for _ in range(40)]
        for field in ("Q", "Fp:5"):
            ranks += [linear_rank(random_family(rng, rng.randint(1, 6), field)) for _ in range(25)]
        for r in ranks:
            support = msupp_from_rank(r)
            assert support.points == brute_force_base_points(r)
            # built without the public checks, equal to a checked build
            assert support == Support(r.p, support.points)

    def test_nonempty_and_mconvex_randomized(self):
        rng = random.Random(103)
        for _ in range(40):
            r = random_valid_rank(rng, rng.randint(1, 5))
            support = msupp_from_rank(r)
            assert len(support) > 0
            assert is_mconvex(support).mconvex


class TestMConvex:
    def test_two_point_exchange(self):
        assert is_mconvex(Support(2, [(1, 2), (2, 1)])).mconvex

    def test_hand_counterexample(self):
        # x = (0,2,1), y = (2,1,0), i = 2 forces j = 1, and (1,1,1) is absent
        members = {(2, 0, 1), (0, 2, 1), (2, 1, 0)}
        report = is_mconvex(Support(3, members))
        assert not report.mconvex
        x, y, i = report.witness
        # the witness must genuinely fail the exchange axiom
        assert x in members and y in members and x[i - 1] > y[i - 1]
        for j in range(3):
            if x[j] < y[j]:
                moved = list(x)
                moved[i - 1] -= 1
                moved[j] += 1
                assert tuple(moved) not in members
        # x = (0,2,1) also fails against y = (2,0,1) at i = 2, and against
        # (2,1,0) at i = 3; the witness is the first y in order, then i
        assert report.witness == ((0, 2, 1), (2, 0, 1), 2)

    def test_mixed_weight_input_is_an_error(self):
        # constant weight is an invariant of Support itself
        with pytest.raises(ValidationError):
            Support(3, [(2, 0, 1), (0, 2, 1), (1, 1, 0)])

    def test_singleton(self):
        assert is_mconvex(Support(4, [(1, 0, 2, 0)])).mconvex

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            is_mconvex(Support(2, []))

    def test_mixed_weights_rejected(self):
        with pytest.raises(ValidationError):
            Support(2, [(1, 0), (1, 1)])


def perturbations(rng, s):
    """s with one point removed, one point moved by -e_i + e_j off the
    set, and one point of the same weight added, where each exists."""
    points = list(s.points)
    out = []
    if len(points) > 1:
        out.append(Support(s.p, points[1:] if rng.random() < 0.5 else points[:-1]))
    x = rng.choice(points)
    moves = [(i, j) for i in range(s.p) for j in range(s.p) if i != j and x[i]]
    rng.shuffle(moves)
    for i, j in moves:
        moved = list(x)
        moved[i] -= 1
        moved[j] += 1
        if moved not in s:
            out.append(Support(s.p, [pt for pt in points if pt != x] + [moved]))
            break
    for _ in range(20):
        cuts = sorted(rng.randint(0, s.weight) for _ in range(s.p - 1))
        added = [b - a for a, b in zip([0] + cuts, cuts + [s.weight])]
        if added not in s:
            out.append(Support(s.p, points + [added]))
            break
    return out


def assert_matches_oracles(s):
    report = is_mconvex(s)
    assert report == exchange_report(s)
    assert report.mconvex == murota_mconvex(s)
    assert rank_from_support(s) == rank_from_support_oracle(s)


@st.composite
def small_supports(draw):
    p = draw(st.integers(1, 4))
    weight = draw(st.integers(0, 4))
    rows = st.lists(st.integers(0, weight), min_size=p - 1, max_size=p - 1)
    cut_lists = draw(st.lists(rows, min_size=1, max_size=12))
    return Support(
        p, [[b - a for a, b in zip([0] + c, c + [weight])] for c in map(sorted, cut_lists)]
    )


class TestMConvexOracles:
    """The bitset exchange search against the pass over pairs (verdict
    and witness) and Murota's rank characterization (verdict)."""

    def test_random_supports_and_their_perturbations(self):
        rng = random.Random(131)
        bases = [msupp_from_rank(random_valid_rank(rng, rng.randint(1, 6))) for _ in range(40)]
        for field in ("Q", "Fp:5"):
            bases += [
                msupp_from_rank(linear_rank(random_family(rng, rng.randint(1, 6), field)))
                for _ in range(20)
            ]
        verdicts = set()
        for s in bases:
            # a coordinate-reversed copy has the same weight, so the union exists
            mirrored = Support(s.p, [pt[::-1] for pt in s.points])
            for t in [s, msupp_union([s, mirrored])] + perturbations(rng, s):
                assert_matches_oracles(t)
                verdicts.add(is_mconvex(t).mconvex)
        assert verdicts == {True, False}

    def test_singletons(self):
        rng = random.Random(137)
        for _ in range(20):
            p = rng.randint(1, 6)
            assert_matches_oracles(Support(p, [[rng.randint(0, 5) for _ in range(p)]]))

    @settings(max_examples=300, deadline=None)
    @given(small_supports())
    def test_property(self, s):
        assert_matches_oracles(s)


class TestRankFromSupport:
    def test_two_points(self):
        r = rank_from_support(Support(2, [(1, 2), (2, 1)]))
        assert r.values == (0, 2, 2, 3)

    def test_intro_round_trip(self):
        assert rank_from_support(Support(3, INTRO_POINTS)) == INTRO_RANK

    def test_singleton(self):
        r = rank_from_support(Support(2, [(3, 0)]))
        assert r.values == (0, 3, 0, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_from_support(Support(2, []))

    def test_round_trip_randomized(self):
        rng = random.Random(107)
        for _ in range(40):
            r = random_valid_rank(rng, rng.randint(1, 5))
            support = msupp_from_rank(r)
            assert rank_from_support(support) == r
            assert msupp_from_rank(rank_from_support(support)) == support


class TestLinearRank:
    def test_intro_subspace_chain(self):
        e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        fam = SubspaceFamily(3, [[e1], [e1, e2], [e1, e2, e3]])
        r = linear_rank(fam)
        assert r == INTRO_RANK
        assert msupp_from_rank(r).points == INTRO_POINTS

    def test_zero_subspaces(self):
        fam = SubspaceFamily(2, [[], []])
        assert linear_rank(fam).values == (0, 0, 0, 0)

    def test_equal_lines(self):
        fam = SubspaceFamily(2, [[(1, 0)], [(1, 0)]])
        assert linear_rank(fam).values == (0, 1, 1, 1)

    @pytest.mark.parametrize("field, prime", [("Q", None), ("Fp:5", 5)])
    def test_matches_sympy_rank_per_subset(self, field, prime):
        # the depth-first extensions against one oracle rank per subset
        rng = random.Random(115)
        families = [random_family(rng, rng.randint(1, 6), field) for _ in range(25)]
        families += [
            SubspaceFamily(3, [[], [], []], field),
            # zero subspaces between lines and planes
            SubspaceFamily(3, [[], [(1, 0, 0)], [], [(0, 1, 0), (0, 2, 0)], [(0, 0, 0)], []], field),
            # the first element spans the space, the later ones add nothing
            SubspaceFamily(2, [[(1, 0), (0, 1)], [(1, 1)], [(2, 3)], [], [(0, 1)]], field),
            # the first three elements span the space before the last ones
            SubspaceFamily(3, [[(1, 1, 0)], [(0, 1, 1)], [(1, 0, 1)], [(1, 2, 3)], [(3, 2, 1)], [(1, 1, 1)]], field),
        ]
        for fam in families:
            expected = tuple(
                sympy_rank([v for j in range(fam.p) if mask >> j & 1 for v in fam.generators[j]], prime)
                for mask in range(1 << fam.p)
            )
            assert linear_rank(fam).values == expected

    def test_family_beyond_ground_set_cap(self):
        # refused before the 2^p table is built
        with pytest.raises(UnsupportedSizeError):
            linear_rank(SubspaceFamily(1, [[(1,)]] * 40))

    def test_result_always_valid_randomized(self):
        rng = random.Random(109)
        for _ in range(25):
            fam = random_family(rng, rng.randint(1, 4))
            assert validate_rank_function(linear_rank(fam)).valid

    def test_prime_field(self):
        # over F_2 the three nonzero vectors of F_2^2 are pairwise dependent
        fam = SubspaceFamily(2, [[(1, 0)], [(0, 1)], [(1, 1)]], field="Fp:2")
        r = linear_rank(fam)
        assert r.of_set([1]) == 1 and r.of_set([1, 2]) == 2
        assert r.of_set([1, 2, 3]) == 2

    def test_characteristic_matters(self):
        # (2, 0) is zero mod 2 but not over Q
        fam_q = SubspaceFamily(2, [[(2, 0)]])
        fam_2 = SubspaceFamily(2, [[(2, 0)]], field="Fp:2")
        assert linear_rank(fam_q).of_set([1]) == 1
        assert linear_rank(fam_2).of_set([1]) == 0

    def test_bad_field_tag(self):
        with pytest.raises(ValidationError):
            SubspaceFamily(2, [[(1, 0)]], field="Fp:4")

    def test_ragged_vectors_rejected(self):
        with pytest.raises(ValidationError):
            SubspaceFamily(2, [[(1, 0, 0)]])


class TestUnion:
    def test_basic_union(self):
        u = msupp_union([Support(2, [(1, 0)]), Support(2, [(0, 1)])])
        assert u.points == ((0, 1), (1, 0))

    def test_idempotent(self):
        s = Support(2, [(1, 2), (2, 1)])
        assert msupp_union([s, s]) == s

    def test_union_of_schubert_exponent_supports(self):
        # exponent supports of the S_3 Schubert polynomials t1*t2 and t1^2;
        # this particular union happens to satisfy the exchange axiom
        u = msupp_union([Support(3, [(1, 1, 0)]), Support(3, [(2, 0, 0)])])
        assert u.points == ((1, 1, 0), (2, 0, 0))
        assert is_mconvex(u).mconvex

    def test_union_need_not_be_mconvex(self):
        u = msupp_union([Support(3, [(2, 1, 0)]), Support(3, [(0, 1, 2)])])
        assert not is_mconvex(u).mconvex

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            msupp_union([Support(2, [(1, 0)]), Support(2, [(1, 1)])])

    def test_p_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            msupp_union([Support(2, [(1, 0)]), Support(3, [(1, 0, 0)])])


class TestCorruptionRejection:
    def test_corrupted_tables_rejected_with_genuine_witness(self):
        rng = random.Random(113)
        for _ in range(40):
            p = rng.randint(2, 5)
            r = random_valid_rank(rng, p)
            values = list(r.values)
            mode = rng.choice(["empty", "drop", "bump"])
            if mode == "empty":
                values[0] = rng.randint(1, 3)
            elif mode == "drop":
                mask = rng.randint(1, (1 << p) - 1)
                sub = rng.choice([m for m in range(mask) if m & mask == m])
                values[sub] = values[mask] + rng.randint(1, 3)
                if sub == 0:
                    mode = "empty"
            else:
                mask = rng.randint(0, (1 << p) - 2)
                free = [j for j in range(p) if not mask >> j & 1]
                if len(free) < 2:
                    continue
                i, j = rng.sample(free, 2)
                values[mask | 1 << i | 1 << j] = (
                    values[mask | 1 << i] + values[mask | 1 << j] - values[mask] + 1
                )
            corrupted = RankFunction(p, values)
            report = validate_rank_function(corrupted)
            if corrupted == r:
                continue
            assert not report.valid
            for v in report.violations:
                self._check_witness(corrupted, v)

    @staticmethod
    def _check_witness(r, violation):
        masks = [
            sum(1 << (e - 1) for e in subset) for subset in violation.subsets
        ]
        if violation.axiom == "normalization":
            assert r.values[0] != 0
        elif violation.axiom == "monotonicity":
            small, large = masks
            assert small & large == small
            assert r.values[small] > r.values[large]
        else:
            a, b = masks
            assert r.values[a] + r.values[b] < r.values[a | b] + r.values[a & b]


class TestSupportType:
    def test_sorted_and_deduplicated(self):
        s = Support(2, [(2, 1), (1, 2), (2, 1)])
        assert s.points == ((1, 2), (2, 1))
        assert s.weight == 3

    def test_json_round_trip(self):
        s = Support(2, [(1, 2), (2, 1)])
        assert Support.from_json_dict(s.to_json_dict()) == s

    def test_complement(self):
        s = Support(2, [(0, 2)])
        assert s.complement(2).points == ((2, 0),)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            Support(2, [(-1, 1)])
