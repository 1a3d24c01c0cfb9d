"""Rank functions, base-polytope enumeration, M-convexity, subspace ranks.

The randomized checks generate rank functions as minima of nonnegative
modular functions plus constants, filtered through the validator, or as
linear ranks of random subspace families over Q and F_5, and cross-check
msupp_from_rank against a pruning-free enumeration of all compositions,
against the slice recursion without a memo and, node for node, against
the slice DAG on tuple tables, also under modular shifts that widen the
packed fields.  The M-convexity checks also perturb supports of sums of
truncated modular ranks by one point.
"""

import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multidegree import (
    BudgetExceededError,
    InvalidRankError,
    RankFunction,
    SubspaceFamily,
    Support,
    UnsupportedSizeError,
    ValidationError,
    flag_msupp,
    is_mconvex,
    linear_rank,
    m0n_msupp,
    m0n_rank_function,
    msupp_from_rank,
    rank_from_support,
    validate_rank_function,
)
from multidegree import errors, polymatroid
from multidegree.schemas import check

from mconvex_oracle import (
    bitset_exchange_report,
    exchange_report,
    murota_mconvex,
    rank_from_support_oracle,
)
from msupp_oracle import slice_dag, slice_points
from rank_oracle import sympy_rank
from rank_report_oracle import validate_rank_oracle
from reader_oracle import rank_function_oracle, support_oracle

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

    @pytest.mark.parametrize(
        "values", [[0, 1.9, 1.5, 2.99], [0, 1.0, 1, 2], [False, True, True, 2], [0, 1, 1, "2"]]
    )
    def test_non_integer_entries_rejected(self, values):
        # int() would truncate 1.9 to 1 and read True as 1
        with pytest.raises(ValidationError):
            RankFunction(2, values)


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


# spans where the packed field width k changes: 2 * span < 2^(8k - 1)
# holds up to 2^(8k - 2) - 1, for 1 to 9 bytes, and around 2^15 - 1
FIELD_EDGES = [1 << 8 * k - 2 for k in range(1, 10)] + [1 << 15]
SPANS = sorted({0, 1} | {edge + d for edge in FIELD_EDGES for d in (-2, -1, 0, 1)})


@st.composite
def boundary_tables(draw):
    """Tables on p <= 5 elements whose span max r - min r sits at a field
    width boundary, shifted by a negative, zero or positive least entry
    (so r(empty) may be nonzero): a valid table r(T) = min(span, c|T|),
    perhaps with one entry changed, or entries at and between the ends."""
    p = draw(st.integers(1, 5))
    n, span = 1 << p, draw(st.sampled_from(SPANS))
    low = draw(st.sampled_from([0, -1, -span, 7, -(1 << 70)]))
    entry = st.integers(0, span) | st.sampled_from([x for x in (0, 1, span - 1, span) if 0 <= x <= span])
    if draw(st.booleans()):
        c = draw(st.sampled_from([1, span // 2 + 1, span]))
        u = [min(span, c * bin(mask).count("1")) for mask in range(n)]
        if draw(st.booleans()):
            u[draw(st.integers(0, n - 1))] = draw(entry)
    else:
        u = draw(st.lists(entry, min_size=n, max_size=n))
    # the span is met exactly: one entry at each end, perhaps changing two more
    first = draw(st.integers(0, n - 1))
    u[first], u[(first + draw(st.integers(1, n - 1))) % n] = 0, span
    return RankFunction(p, [low + x for x in u])


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(boundary_tables())
    def test_report_equals_the_oracle_at_field_boundaries(self, r):
        assert validate_rank_function(r) == validate_rank_oracle(r)

    @pytest.mark.parametrize(
        "values",
        [
            [0] + [10**40] * 7,
            [0, 10**40, -(10**40), 10**40, 10**40, -(10**40), 10**40, -(10**40)],
            [-(10**40), 10**40, 10**40, 10**40, 10**40, 10**40, 10**40, -(10**40)],
        ],
    )
    def test_forty_digit_entries(self, values):
        # 17-byte fields: wider than 8 bytes, and 136 bytes in all
        r = RankFunction(3, values)
        assert validate_rank_function(r) == validate_rank_oracle(r)

    def test_wide_fields_are_charged_before_packing(self, monkeypatch):
        # 2 * 10^40 needs 17-byte fields: 17 * 2^3 = 136 bytes
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 135)
        with pytest.raises(BudgetExceededError, match="bytes of the packed rank table: 136 exceeds"):
            validate_rank_function(RankFunction(3, [0] + [10**40] * 7))
        # a span below 2^62 packs in at most 8-byte fields, uncharged
        validate_rank_function(RankFunction(3, [0] + [(1 << 62) - 1] * 7))

    def test_peak_memory_is_the_pointer_array_plus_a_mebibyte(self):
        r = m0n_rank_function(16)
        tracemalloc.start()
        try:
            assert validate_rank_function(r).valid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**16 + 2**20


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
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 10)
        assert len(msupp_from_rank(RankFunction(2, [0, 9, 9, 9]))) == 10
        with pytest.raises(BudgetExceededError, match="support points: 11 exceeds the budget of 10"):
            msupp_from_rank(RankFunction(2, [0, 10, 10, 10]))
        # every nonempty set of rank 3: C(5, 2) = 10 points, over four ranges
        uniform = RankFunction(3, [0] + [3] * 7)
        assert len(msupp_from_rank(uniform)) == 10
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 9)
        with pytest.raises(BudgetExceededError, match="support points: 10 exceeds the budget of 9"):
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


@st.composite
def rank_tables(draw):
    """A valid rank table on at most 8 elements: a minimum of modular
    functions, the rank of a random subspace family, or the rank of an
    M-convex support, a Minkowski sum of sets {e_j : j in A}."""
    p = draw(st.integers(1, 8))
    source = draw(st.sampled_from(["modular", "linear", "support"]))
    if source == "support":
        summands = draw(st.lists(st.sets(st.integers(0, p - 1), min_size=1), min_size=1, max_size=4))
        points = {(0,) * p}
        for a in summands:
            points = {x[:j] + (x[j] + 1,) + x[j + 1 :] for x in points for j in a}
        return rank_from_support(Support(p, points))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if source == "modular":
        return random_valid_rank(rng, p)
    return linear_rank(random_family(rng, p, rng.choice(["Q", "Fp:5"])))


@st.composite
def shifted_tables(draw):
    """A table r of `rank_tables`, a modular shift m and the table r + m,
    (r + m)(A) = r(A) + sum of m_i over i in A, whose base polytope is
    B(r) + m.  The m_i lie in 0..3, in 2^8..2^9 or in 2^70..2^71, so the
    packed slice tables have fields of 1, 2 or 10 bytes; or they are
    spread evenly to bring (r + m)([p]) to a width's edge, one below or
    at 2^7, 2^15 or 2^71, where the guard bit goes to a wider field."""
    r = draw(rank_tables())
    low = draw(st.sampled_from([0, 1 << 8, 1 << 70, None]))
    if low is None:
        total = draw(st.sampled_from([1 << 7, 1 << 15, 1 << 71])) - draw(st.integers(0, 1)) - r.values[-1]
        m = [total // r.p + (i < total % r.p) for i in range(r.p)]
    else:
        m = draw(st.lists(st.integers(low, max(3, 2 * low)), min_size=r.p, max_size=r.p))
    sums = [0]  # m(A) in mask order
    for x in m:
        sums += [t + x for t in sums]
    return r, tuple(m), RankFunction(r.p, list(map(add, r.values, sums)))


def assert_same_dag(node, expected, seen=None) -> None:
    """The DAG below node has the counts, the v lists and the leaf
    triples (low, high, weight) of the one below expected, node for node."""
    seen = set() if seen is None else seen
    if (id(node), id(expected)) in seen:
        return
    seen.add((id(node), id(expected)))
    assert node[0] == expected[0]
    if type(expected[1]) is tuple:
        assert node[1] == expected[1]
        return
    assert [v for v, _ in node[1]] == [v for v, _ in expected[1]]
    for (_, child), (_, expected_child) in zip(node[1], expected[1]):
        assert_same_dag(child, expected_child, seen)


class TestMsuppAgainstSliceRecursion:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rank_tables())
    def test_points_order_and_count(self, r):
        support = msupp_from_rank(r)
        assert list(support.points) == slice_points(r)
        if r.p > 1:
            assert polymatroid._slice_dag(r)[0] == len(support)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rank_tables())
    def test_dag_support_behaves_as_a_plain_one(self, r):
        points = slice_points(r)
        plain = Support(r.p, points)
        support = msupp_from_rank(r)
        # length, weight and JSON come from the DAG, before any point is built
        assert len(support) == len(plain) and support.weight == plain.weight
        assert support.points_json() == json.dumps(points, separators=(",", ":"))
        assert support._points is None or r.p == 1
        assert support == plain and plain == support and hash(support) == hash(plain)
        assert repr(support) == repr(plain)
        assert all(x in support for x in points)
        outside = (points[0][0] + 1,) + points[0][1:]
        assert outside not in support and outside not in plain
        bound = max(map(max, points))
        assert support.complement(bound) == plain.complement(bound)
        assert support != Support(r.p, points[1:])
        # the first composition of the weight outside the support, in place of a point
        other = next((x for x in polymatroid.compositions(plain.weight, r.p) if x not in plain), None)
        if other is not None:
            assert support != Support(r.p, points[1:] + [other])
        assert pickle.loads(pickle.dumps(support)) == plain

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shifted_tables())
    def test_a_modular_shift_moves_every_point(self, drawn):
        r, m, shifted = drawn
        points = [tuple(map(add, x, m)) for x in msupp_from_rank(r).points]
        support = msupp_from_rank(shifted)
        assert support.points_json() == json.dumps(points, separators=(",", ":"))
        assert list(support.points) == points

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shifted_tables())
    def test_dag_equals_the_tuple_dag_node_for_node(self, drawn):
        _, _, r = drawn
        assume(r.p > 1)
        assert_same_dag(polymatroid._slice_dag(r), slice_dag(r))

    @pytest.mark.parametrize("c", [127, 128, 255, 256, (1 << 15) - 1, 1 << 15, (1 << 16) - 1])
    def test_uniform_tables_at_a_width_edge(self, c, monkeypatch):
        # r(A) = c for every nonempty A of three elements: all C(c + 2, 2)
        # compositions of c.  The first slice at v = 1 compares Y - v = c - 1
        # with X = 0 and with X = c next to it, so a carry out of a field
        # whose guard bit lies below c would change the second minimum
        monkeypatch.setattr(errors, "DEFAULT_ENUMERATION_BUDGET", 10**12)
        r = RankFunction(3, [0] + [c] * 7)
        dag = polymatroid._slice_dag(r)
        assert dag[0] == (c + 2) * (c + 1) // 2
        assert_same_dag(dag, slice_dag(r))

    def test_memo_stays_near_the_recursion_in_memory(self):
        # r(A) = 300 when A meets {1, 2}: 301 points, but 301 distinct first
        # slices of 2^11 entries (about 22 MB if all kept) and no repeats
        r = RankFunction(12, [300 if mask & 3 else 0 for mask in range(1 << 12)])

        def peak(run):
            tracemalloc.start()
            try:
                result = run(r)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        validate_peak, _ = peak(validate_rank_function)
        recursion_peak, points = peak(slice_points)
        memo_peak, support = peak(msupp_from_rank)
        assert list(support.points) == points
        assert memo_peak < max(validate_peak, recursion_peak) + 2**20

    def test_points_and_json_stay_near_the_recursion_in_memory(self):
        # the table above, read out as tuples and as JSON text from the DAG
        r = RankFunction(12, [300 if mask & 3 else 0 for mask in range(1 << 12)])

        def peak(run):
            tracemalloc.start()
            try:
                result = run(r)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        validate_peak, _ = peak(validate_rank_function)
        recursion_peak, points = peak(slice_points)
        tuples_peak, tuples = peak(lambda r: msupp_from_rank(r).points)
        text_peak, text = peak(lambda r: msupp_from_rank(r).points_json())
        assert list(tuples) == points
        assert text == json.dumps(points, separators=(",", ":"))
        bound = max(validate_peak, recursion_peak) + 2**20
        assert tuples_peak < bound and text_peak < bound

    def test_json_needs_less_memory_than_the_old_writer(self):
        # m0n at p = 11: 58,786 points, whose slices repeat; the rows of a
        # node reached once die when read (about 7.5 MB against 13 MB, and
        # 18 MB if every node's rows stay until the end)
        r = RankFunction(11, [mask.bit_length() for mask in range(1 << 11)])
        plain = Support(11, msupp_from_rank(r).points)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the old writer listed the points it held and dumped the lists
        old_peak = peak(lambda: json.dumps(plain.to_json_dict(), separators=(",", ":")))
        text_peak = peak(lambda: msupp_from_rank(r).points_json())
        assert text_peak < old_peak


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

    @pytest.mark.parametrize("point", [(1.7, 0.2), (1.0, 0), (True, False), (1, "0")])
    def test_non_integer_coordinates_rejected(self, point):
        # int() would truncate (1.7, 0.2) to (1, 0) and read True as 1
        with pytest.raises(ValidationError):
            Support(2, [point])


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
            for t in [s, Support(s.p, s.points + mirrored.points)] + perturbations(rng, s):
                assert_matches_oracles(t)
                verdicts.add(is_mconvex(t).mconvex)
        assert verdicts == {True, False}

    def test_singletons(self):
        rng = random.Random(137)
        for _ in range(20):
            p = rng.randint(1, 6)
            assert_matches_oracles(Support(p, [[rng.randint(0, 5) for _ in range(p)]]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_supports())
    def test_property(self, s):
        assert_matches_oracles(s)


def moved_off(s, x):
    """s with x moved by the first -e_i + e_j that leaves s, or None."""
    for i in range(s.p):
        for j in range(s.p):
            moved = tuple(v - (k == i) + (k == j) for k, v in enumerate(x))
            if i != j and x[i] and moved not in s:
                return Support(s.p, [pt for pt in s.points if pt != x] + [moved])
    return None


def removals_and_a_move(s):
    """s, s without its first, middle or last point, and s with its
    middle point moved off the set."""
    points = s.points
    out = [s]
    if len(points) > 1:
        for k in (0, len(points) // 2, len(points) - 1):
            out.append(Support(s.p, points[:k] + points[k + 1 :]))
    moved = moved_off(s, points[len(points) // 2])
    return out + [moved] if moved is not None else out


@st.composite
def near_mconvex_supports(draw):
    """The support of a random valid rank on p <= 6 elements with one point
    removed, moved or added.  The point is drawn counting from the last,
    so the first failure, if any, tends to come after many clean down
    points.  The rank is a sum of truncated modular functions
    min(c, w(A)), w >= 0, which is always normalized, monotone and
    submodular; supports of more than 80 points are skipped, so the pass
    over pairs stays fast."""
    p = 6 - draw(st.integers(0, 5))
    weights = st.lists(st.integers(0, 2), min_size=p, max_size=p)
    parts = draw(st.lists(st.tuples(st.integers(1, 3), weights), min_size=1, max_size=3))
    values = [
        sum(min(c, sum(w[j] for j in range(p) if mask >> j & 1)) for c, w in parts)
        for mask in range(1 << p)
    ]
    s = msupp_from_rank(RankFunction(p, values))
    assume(len(s) <= 80)
    points = list(s.points)
    x = points[-1 - draw(st.integers(0, len(points) - 1))]
    kind = draw(st.sampled_from(["remove", "move", "add"]))
    if kind == "remove" and len(points) > 1:
        return Support(p, [pt for pt in points if pt != x])
    if kind == "move":
        return moved_off(s, x) or s
    cuts = sorted(draw(st.lists(st.integers(0, s.weight), min_size=p - 1, max_size=p - 1)))
    return Support(p, points + [[b - a for a, b in zip([0] + cuts, cuts + [s.weight])]])


class TestMConvexDownPoints:
    """The search that decides each down point u = x - e_i once against
    the search that decides every (x, i) afresh, the pass over pairs and
    Murota's characterization."""

    @pytest.mark.parametrize(
        "support",
        [("flag", p) for p in range(1, 7)] + [("m0n", p) for p in range(1, 11)],
        ids=lambda case: f"{case[0]}{case[1]}",
    )
    def test_equals_the_bitset_search(self, support):
        # flag6 (7,958 points) and m0n10 (16,796) have masks longer than
        # the 4,300 digits int() reads in base 10; base 2 has no limit
        family, p = support
        s = flag_msupp(p) if family == "flag" else m0n_msupp(p)
        for t in removals_and_a_move(s):
            assert is_mconvex(t) == bitset_exchange_report(t)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_mconvex_supports())
    def test_near_mconvex_property(self, s):
        report = is_mconvex(s)
        assert report == exchange_report(s)
        assert report == bitset_exchange_report(s)
        assert report.mconvex == murota_mconvex(s)

    def test_failing_down_point_reached_again_after_the_failure(self):
        # (0,0,3) - e_3 = (0,0,2) is clean; (0,1,2) - e_2 reaches it again.
        # (0,1,2) - e_3 = (0,1,1) fails against (2,1,0), and (0,2,1) - e_2,
        # after the failure, reaches the same down point
        s = Support(3, [(0, 0, 3), (0, 1, 2), (0, 2, 1), (2, 1, 0)])
        assert is_mconvex(s).witness == ((0, 1, 2), (2, 1, 0), 3)
        assert is_mconvex(s) == exchange_report(s)
        # (0,0,3) - e_3 = (0,0,2) fails, and (0,1,2) - e_2 reaches it later
        s = Support(3, [(0, 0, 3), (0, 1, 2), (2, 0, 1)])
        assert is_mconvex(s).witness == ((0, 0, 3), (2, 0, 1), 3)
        assert is_mconvex(s) == exchange_report(s)

    def test_least_i_wins_at_the_same_y(self):
        # x = (0,2,2) fails against y = (4,0,0) at i = 2 and at i = 3
        s = Support(3, [(0, 2, 2), (4, 0, 0)])
        assert is_mconvex(s).witness == ((0, 2, 2), (4, 0, 0), 2)
        assert is_mconvex(s) == exchange_report(s)

    def test_even_coordinates_fail_at_the_first_point(self):
        # weight 120, every coordinate even: 1,891 points, and (0,0,120)
        # has no move toward (0,2,118) since (0,1,119) is absent
        s = Support(3, [(a, b, 120 - a - b) for a in range(0, 121, 2) for b in range(0, 121 - a, 2)])
        assert len(s) == 1891
        report = is_mconvex(s)
        assert report.witness == ((0, 0, 120), (0, 2, 118), 3)
        assert report == bitset_exchange_report(s)

    def test_keeps_no_mask_per_down_point(self):
        # 16,796 points: the clean down points are ints of a few digits
        # (peak about 2.1 MB against 1.2 MB for the search that keeps
        # none); one N-bit mask per down point peaks above 12 MB
        s = m0n_msupp(10)
        s.points  # built before either peak is taken

        def peak(run):
            tracemalloc.start()
            try:
                assert run(s).mconvex
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(is_mconvex) <= 3 * peak(bitset_exchange_report)


@st.composite
def wide_supports(draw):
    """A support of weight up to 600 on 2 or 3 elements whose columns
    take up to 601 distinct values: the points of one weight in a box
    (an M-convex set), the first coordinate in an interval at least half
    the weight long and, for p = 3, the last in a short one, with up to
    two points removed and up to two of the same weight added.  Half the
    weights are drawn past 520, so many columns hold more than 256
    values."""
    p = draw(st.integers(2, 3))
    weight = draw(st.integers(0, 600) | st.integers(520, 600))
    lo, hi = draw(st.integers(0, weight // 4)), draw(st.integers(weight - weight // 4, weight))
    lasts = range(draw(st.integers(0, weight)), weight + 1)[: draw(st.integers(1, 3))] if p == 3 else [0]
    points = [(v, weight - v - w, w)[:p] for v in range(lo, hi + 1) for w in lasts if v + w <= weight]
    for _ in range(draw(st.integers(0, 2))):
        if len(points) > 1:
            points.pop(draw(st.integers(0, len(points) - 1)))
    for _ in range(draw(st.integers(0, 2))):
        cuts = sorted(draw(st.lists(st.integers(0, weight), min_size=p - 1, max_size=p - 1)))
        points.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [weight])))
    return Support(p, points or [(weight,) + (0,) * (p - 1)])


class TestMConvexMasks:
    """The masks of columns with many distinct values against the search
    that builds one mask per value by ORs over the points.  Supports of
    more points than int() reads decimal digits are m0n10 (16,796) and
    flag6 in `TestMConvexDownPoints`."""

    @pytest.mark.parametrize("weight", [300, 4099])
    def test_columns_of_more_than_256_values(self, weight):
        # (v, W - v) for every v: W + 1 distinct values in each column
        s = Support(2, [(v, weight - v) for v in range(weight + 1)])
        cases = removals_and_a_move(s) + [Support(2, s.points[:17] + s.points[18:])]
        for t in cases:
            assert is_mconvex(t) == bitset_exchange_report(t)
        # a gap inside the segment breaks the exchange; a shorter segment does not
        assert [is_mconvex(t).mconvex for t in cases] == [True, True, False, True, False]

    def test_values_past_any_byte_or_character(self):
        big = 10**30
        s = Support(2, [(0, big), (1, big - 1), (big, 0)])
        assert is_mconvex(s) == exchange_report(s) == bitset_exchange_report(s)
        assert is_mconvex(s).witness == ((1, big - 1), (big, 0), 2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(wide_supports())
    def test_wide_property(self, s):
        assert is_mconvex(s) == bitset_exchange_report(s)


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
            # the zero space: the empty basis spans it at every subset
            SubspaceFamily(0, [[()], [], [(), ()]], field),
            # only the last element spans the space, alone and with the others
            SubspaceFamily(3, [[(1, 0, 0)], [], [(0, 1, 0), (2, 0, 0)], [(0, 1, 1), (0, 0, 1), (1, 0, 0)]], field),
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

    def test_float_ambient_dimension_refused(self):
        # it was kept as 2.0 and printed as "ambient": 2.0
        with pytest.raises(ValidationError, match="not an integer"):
            SubspaceFamily(2.0, [[(1, 0)]])

    # Fraction() would read 0.1 at its binary value, True as 1, and raise
    # ZeroDivisionError on "1/0"
    @pytest.mark.parametrize(
        "generators, match",
        [
            ([[[0.1]], [[True]]], "subspace 1: 0.1 is not an integer"),
            ([[[1]], [[True]]], "subspace 2: True is not an integer"),
            ([[["1/0"]]], "subspace 1: '1/0' has a zero denominator"),
            ([[["x"]]], "subspace 1: Invalid literal"),
        ],
        ids=["float", "bool", "zero-denominator", "not-a-number"],
    )
    def test_non_rational_entries_refused(self, generators, match):
        with pytest.raises(ValidationError, match=match):
            SubspaceFamily(1, generators)

    def test_exact_entries_accepted(self):
        fam = SubspaceFamily(2, [[(1, Fraction(1, 2))], [("2/3", "-1")]])
        assert fam.generators == (((1, Fraction(1, 2)),), ((Fraction(2, 3), -1),))


class TestUnion:
    """A union of supports (the reducible-scheme case) is the support of
    their pooled points; `Support` refuses mixed lengths and weights."""

    @staticmethod
    def union(supports):
        return Support(supports[0].p, [pt for s in supports for pt in s.points])

    def test_basic_union(self):
        u = self.union([Support(2, [(1, 0)]), Support(2, [(0, 1)])])
        assert u.points == ((0, 1), (1, 0))

    def test_idempotent(self):
        s = Support(2, [(1, 2), (2, 1)])
        assert self.union([s, s]) == s

    def test_union_of_schubert_exponent_supports(self):
        # exponent supports of the S_3 Schubert polynomials t1*t2 and t1^2;
        # this particular union happens to satisfy the exchange axiom
        u = self.union([Support(3, [(1, 1, 0)]), Support(3, [(2, 0, 0)])])
        assert u.points == ((1, 1, 0), (2, 0, 0))
        assert is_mconvex(u).mconvex

    def test_union_need_not_be_mconvex(self):
        u = self.union([Support(3, [(2, 1, 0)]), Support(3, [(0, 1, 2)])])
        assert not is_mconvex(u).mconvex

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mixed coordinate sums"):
            self.union([Support(2, [(1, 0)]), Support(2, [(1, 1)])])

    def test_p_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="has length 3, expected 2"):
            self.union([Support(2, [(1, 0)]), Support(3, [(1, 0, 0)])])


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


class Index:
    """An integer by `__index__` alone, which the readers convert."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def plant(draw, rows, at, fault):
    """Put one fault into rows[at[0]][at[1]] (or into row at[0])."""
    row, col = at
    x = rows[row][col]
    if fault == "bool":
        rows[row][col] = draw(st.booleans())
    elif fault == "float":
        rows[row][col] = float(x) + draw(st.sampled_from([0, 0.5]))
    elif fault == "str":
        rows[row][col] = str(x)
    elif fault == "index":
        rows[row][col] = Index(x)
    elif fault == "negative":
        rows[row][col] = -1 - x
    elif fault == "weight":
        rows[row][col] = x + 1
    elif fault == "length":
        rows[row] = rows[row][:-1] if draw(st.booleans()) else rows[row] + [0]


# the orders a list of rows is given in, before a fault is planted
ARRANGEMENTS = {
    "drawn": lambda rows: rows,
    "sorted": lambda rows: [list(row) for row in sorted(set(map(tuple, rows)))],
    "reversed": lambda rows: [list(row) for row in sorted(set(map(tuple, rows)), reverse=True)],
    "duplicated": lambda rows: rows + [list(rows[-1])],
}


@st.composite
def planted_supports(draw):
    """(p, points) of a support on p <= 4 elements, as lists, as drawn,
    sorted and distinct, reversed or with a row repeated, with one bool,
    float, string, index-only, negative, wrong-length or mixed-weight
    entry at a drawn place, or none."""
    p, weight = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    cuts = st.lists(st.integers(0, weight), min_size=p - 1, max_size=p - 1).map(sorted)
    rows = [[b - a for a, b in zip([0] + c, c + [weight])] for c in draw(st.lists(cuts, min_size=1, max_size=8))]
    rows = ARRANGEMENTS[draw(st.sampled_from(sorted(ARRANGEMENTS)))](rows)
    fault = draw(st.sampled_from(["none", "bool", "float", "str", "index", "negative", "weight", "length"]))
    plant(draw, rows, (draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, p - 1))), fault)
    return p, rows


@st.composite
def planted_tables(draw):
    """(p, values) of a table on p <= 4 elements with one bool, float,
    string, index-only or negative entry at a drawn place, one entry too
    many or too few, or none."""
    p = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-3, 5), min_size=1 << p, max_size=1 << p))]
    fault = draw(st.sampled_from(["none", "bool", "float", "str", "index", "negative", "length"]))
    plant(draw, rows, (0, draw(st.integers(0, (1 << p) - 1))), fault)
    return p, rows[0]


def outcome(read, p, entries):
    """What a reader makes of the input: the object with its weight, or
    the type and message of the exception it raises."""
    try:
        built = read(p, entries)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return built, getattr(built, "weight", None)


def read_document(p, rows):
    return Support.from_json_dict({"p": p, "points": rows})


class TestReadersAgainstOracle:
    """The one-pass readers against the per-entry constructors: the same
    object, or the same first fault with the same message.  The document
    reader gives the schema's message for what the schema refuses."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(planted_supports())
    def test_support(self, case):
        assert outcome(Support, *case) == outcome(support_oracle, *case)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(planted_tables())
    def test_rank_function(self, case):
        assert outcome(RankFunction, *case) == outcome(rank_function_oracle, *case)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(planted_supports())
    def test_support_document(self, case):
        # a fault the schema refuses gets the schema's message; the others
        # (wrong length, mixed weight) and clean rows in any order go as
        # the per-entry constructor takes them
        p, rows = case
        try:
            check("support", {"p": p, "points": rows})
        except ValidationError as exc:
            expected = (ValidationError, str(exc))
        else:
            expected = outcome(support_oracle, p, rows)
        assert outcome(read_document, p, rows) == expected

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 1], [2, 0, 0]], "point (2, 0, 0) has length 3, expected 2"),
            ([[1, 2], [1, 1]], "points have mixed coordinate sums [2, 3]"),
            ([[2, 0], [0, 2], [1, 1], [0, 2]], None),
            ([[0, 1], [1, True]], "points[1][1] must be an integer, not bool"),
            ([[0, 1], [1, 0.0]], "points[1][1] must be an integer, not float"),
            ([[0, 1], ["1", 0]], "points[1][0] must be an integer, not str"),
            ([[0, 1], [2, -1]], "points[1][1] must be at least 0"),
        ],
    )
    def test_support_document_cases(self, rows, message):
        if message is None:
            assert read_document(2, rows) == support_oracle(2, rows)
        else:
            with pytest.raises(ValidationError) as caught:
                read_document(2, rows)
            assert str(caught.value) == message

    def test_increasing_rows_are_not_sorted_again(self, monkeypatch):
        s = m0n_msupp(6)
        rows = [list(pt) for pt in s.points]

        def refuse(*_args, **_kwargs):
            raise AssertionError("strictly increasing rows were sorted")

        monkeypatch.setattr(polymatroid, "sorted", refuse, raising=False)
        assert Support.from_json_dict({"p": s.p, "points": rows}) == s
        assert Support(s.p, rows) == s
        with pytest.raises(AssertionError, match="sorted"):  # the patch is in effect
            Support(s.p, rows[::-1])

    @pytest.mark.parametrize(
        "points",
        [
            [(1, 1), (2, 0.5)],
            [(0, 2), (1, 1, 0), (3, -1)],
            [(3, -1), (1, 1, 0)],
            [(1, 1), (0, 3)],
            [(Index(1), 1), (True, 1)],
            [(Index(1), 1), (2, Index(0))],
            [],
        ],
    )
    def test_support_cases(self, points):
        assert outcome(Support, 2, points) == outcome(support_oracle, 2, points)


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

    def test_complement_reverses_the_order(self):
        s = msupp_from_rank(INTRO_RANK)
        complement = s.complement(3)
        assert complement == Support(3, [[3 - x for x in pt] for pt in s.points])
        assert complement.points == tuple(sorted(complement.points))
        assert complement.complement(3) == s

    @pytest.mark.parametrize("bound", [2, 1.5, True])
    def test_complement_bound_below_a_coordinate_or_not_an_integer(self, bound):
        with pytest.raises(ValidationError):
            msupp_from_rank(INTRO_RANK).complement(bound)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValidationError):
            Support(2, [(-1, 1)])
