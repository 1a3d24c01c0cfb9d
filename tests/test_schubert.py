"""Schubert polynomials, Rothe diagrams, theta, and the support polytope.

The pipe-dream expansion in pipe_dreams.py is the independent oracle,
also for the bytes the packed divided-difference chain writes;
the classical S_3 table and a handful of textbook values are frozen as
additional anchors.  theta and its table are held to the p x p grid
walk of theta_oracle.py.
"""

import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidegree.poly as poly_module
import multidegree.schubert as schubert_module
from multidegree import (
    BudgetExceededError,
    Diagram,
    IntPolynomial,
    Permutation,
    RankFunction,
    ValidationError,
    is_mconvex,
    length,
    projection_codim,
    rothe_diagram,
    schubert_polynomial,
    schubert_support_polytope,
    theta,
    theta_rank_function,
)
from pipe_dreams import schubert_polynomials_via_pipe_dreams, schubert_via_pipe_dreams
from pretty_oracle import pretty_oracle
from theta_oracle import theta_grid_walk

FIGURE_DIAGRAM = rothe_diagram(Permutation((4, 2, 5, 3, 1)))


def all_recursion_routes(pi):
    """Schubert polynomial via every ascent-choice chain (well-definedness)."""
    ascents = pi.ascents()
    if not ascents:
        return {IntPolynomial.monomial(pi.p, tuple(pi.p - i for i in range(1, pi.p + 1)))}
    results = set()
    for i in ascents:
        for higher in all_recursion_routes(pi.swap_positions(i)):
            results.add(higher.divided_difference(i))
    return results


class TestPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(ValidationError):
            Permutation((1, 1, 3))

    def test_length_identity(self):
        assert length(Permutation.identity(4)) == 0

    def test_length_longest(self):
        for p in range(1, 7):
            assert length(Permutation.longest(p)) == p * (p - 1) // 2

    def test_length_42531(self):
        assert length(Permutation((4, 2, 5, 3, 1))) == 7

    def test_json_round_trip(self):
        pi = Permutation((2, 4, 1, 3))
        assert Permutation.from_json_dict(pi.to_json_dict()) == pi

    def test_non_integer_entries_rejected(self):
        # int() read these as the permutation (2, 1)
        with pytest.raises(ValidationError, match="not an integer"):
            Permutation([2.0, 1.9])

    def test_grid_walks_refused_past_the_budget(self):
        # p^2 = 2,250,000 cells, more than DEFAULT_ENUMERATION_BUDGET
        pi = Permutation.longest(1500)
        with pytest.raises(BudgetExceededError):
            length(pi)
        with pytest.raises(BudgetExceededError):
            rothe_diagram(pi)
        with pytest.raises(BudgetExceededError):
            theta(Diagram(1500, []), [])
        assert length(Permutation.longest(1414)) == 1414 * 1413 // 2


class TestSchubertPolynomial:
    # classical table for S_3
    S3_TABLE = {
        (3, 2, 1): {(2, 1, 0): 1},
        (2, 3, 1): {(1, 1, 0): 1},
        (3, 1, 2): {(2, 0, 0): 1},
        (2, 1, 3): {(1, 0, 0): 1},
        (1, 3, 2): {(1, 0, 0): 1, (0, 1, 0): 1},
        (1, 2, 3): {(0, 0, 0): 1},
    }

    def test_s3_table(self):
        for one_line, terms in self.S3_TABLE.items():
            assert schubert_polynomial(Permutation(one_line)) == IntPolynomial(3, terms)

    def test_longest_is_staircase_monomial(self):
        for p in range(1, 6):
            expected = IntPolynomial.monomial(p, tuple(p - i for i in range(1, p + 1)))
            assert schubert_polynomial(Permutation.longest(p)) == expected

    def test_identity_is_one(self):
        for p in range(1, 6):
            assert schubert_polynomial(Permutation.identity(p)) == IntPolynomial.one(p)

    def test_textbook_values(self):
        assert schubert_polynomial(Permutation((2, 1, 4, 3))) == IntPolynomial(
            4, {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 1, 0): 1}
        )
        assert schubert_polynomial(Permutation((1, 4, 3, 2))) == IntPolynomial(
            4,
            {
                (2, 1, 0, 0): 1,
                (2, 0, 1, 0): 1,
                (1, 2, 0, 0): 1,
                (1, 1, 1, 0): 1,
                (0, 2, 1, 0): 1,
            },
        )

    def test_well_defined_for_all_chains_up_to_p4(self):
        for p in (2, 3, 4):
            for one_line in permutations(range(1, p + 1)):
                pi = Permutation(one_line)
                routes = all_recursion_routes(pi)
                assert len(routes) == 1
                assert routes.pop() == schubert_polynomial(pi)

    def test_coefficients_positive_up_to_p5(self):
        for p in (2, 3, 4, 5):
            for one_line in permutations(range(1, p + 1)):
                f = schubert_polynomial(Permutation(one_line))
                assert not f.negative_exponents()
                assert all(c > 0 for _e, c in f)

    def test_matches_pipe_dream_oracle_on_s4(self):
        for one_line in permutations(range(1, 5)):
            pi = Permutation(one_line)
            assert schubert_polynomial(pi) == schubert_via_pipe_dreams(pi)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_chain_and_render_read_packed_keys(self, p, monkeypatch):
        """With unpacking patched to raise, the divided-difference chain
        and `render` give the pipe-dream oracle's bytes on all of S_p."""

        def refuse(_bases, _keys):
            raise AssertionError("the Schubert path unpacked an exponent tuple")

        oracle = schubert_polynomials_via_pipe_dreams(p)
        assert sorted(oracle) == list(permutations(range(1, p + 1)))
        expected = {
            one_line: (json.dumps(f.to_json_dict(), sort_keys=True, separators=(",", ":")), pretty_oracle(f))
            for one_line, f in oracle.items()
        }
        schubert_module._schubert_cached.cache_clear()
        monkeypatch.setattr(poly_module, "_unpack", refuse)
        for one_line, texts in expected.items():
            assert schubert_polynomial(Permutation(one_line)).render() == texts

    def test_degree_equals_length(self):
        rng = random.Random(5)
        for _ in range(20):
            one_line = list(range(1, 6))
            rng.shuffle(one_line)
            pi = Permutation(one_line)
            f = schubert_polynomial(pi)
            assert f.total_degree() == length(pi)
            assert all(sum(e) == length(pi) for e, _c in f)


class TestRotheDiagram:
    def test_identity_empty(self):
        assert rothe_diagram(Permutation.identity(4)).cells == frozenset()

    def test_42531_figure(self):
        expected = {(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (3, 3), (4, 1)}
        assert FIGURE_DIAGRAM.cells == frozenset(expected)

    def test_2143(self):
        assert rothe_diagram(Permutation((2, 1, 4, 3))).cells == frozenset(
            {(1, 1), (3, 3)}
        )

    def test_cell_count_is_length(self):
        for one_line in permutations(range(1, 6)):
            pi = Permutation(one_line)
            assert len(rothe_diagram(pi).cells) == length(pi)

    def test_json_round_trip(self):
        assert Diagram.from_json_dict(FIGURE_DIAGRAM.to_json_dict()) == FIGURE_DIAGRAM

    def test_non_integer_cells_rejected(self):
        # int() read the cell (1.2, True) as (1, 1)
        with pytest.raises(ValidationError, match="not an integer"):
            Diagram(2, [(1.2, True)])
        with pytest.raises(ValidationError, match="not an integer"):
            Diagram(2.5, [])


class TestTheta:
    def test_figure_anchor(self):
        assert theta(FIGURE_DIAGRAM, [2, 3]) == 3

    def test_empty_subset(self):
        assert theta(FIGURE_DIAGRAM, []) == 0
        assert theta(rothe_diagram(Permutation((3, 1, 2))), []) == 0

    def test_full_subset_counts_boxes(self):
        for p in range(2, 7):
            for one_line in permutations(range(1, p + 1)):
                pi = Permutation(one_line)
                d = rothe_diagram(pi)
                assert theta(d, range(1, p + 1)) == length(pi)

    def test_non_rothe_diagram(self):
        # one closable pair in column 1: row 1 opens, row 2 closes
        d = Diagram(2, [(2, 1)])
        assert theta(d, [1]) == 1
        assert theta(d, [2]) == 1  # star at (2,1)
        assert theta(d, [1, 2]) == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 7).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.sets(st.tuples(st.integers(1, p), st.integers(1, p))),
            )
        )
    )
    def test_table_matches_grid_walk(self, diagram):
        # any cell set, Rothe or not
        d = Diagram(*diagram)
        values = theta_rank_function(d).values
        for mask in range(1 << d.p):
            rows = [r for r in range(1, d.p + 1) if mask >> (r - 1) & 1]
            assert values[mask] == theta(d, rows) == theta_grid_walk(d, rows)

    def test_rothe_tables_match_grid_walk(self):
        rng = random.Random(17)
        for _ in range(20):
            one_line = list(range(1, 9))
            rng.shuffle(one_line)
            d = rothe_diagram(Permutation(one_line))
            values = theta_rank_function(d).values
            for mask in range(1 << 8):
                rows = [r for r in range(1, 9) if mask >> (r - 1) & 1]
                assert values[mask] == theta_grid_walk(d, rows)


class TestSupportPolytope:
    def test_identity_single_point(self):
        for p in (2, 3, 4):
            sp = schubert_support_polytope(Permutation.identity(p))
            assert sp.points == ((p - 1,) * p,)

    def test_longest_s3(self):
        sp = schubert_support_polytope(Permutation.longest(3))
        assert sp.points == ((0, 1, 2),)

    def test_matches_polynomial_support_42531(self):
        pi = Permutation((4, 2, 5, 3, 1))
        from_poly = schubert_polynomial(pi).support().complement(pi.p - 1)
        assert schubert_support_polytope(pi) == from_poly
        # the count comes from the build: both routes agree on it
        assert len(from_poly) == len(schubert_support_polytope(pi))

    def test_theorem_holds_on_all_of_s4(self):
        for one_line in permutations(range(1, 5)):
            pi = Permutation(one_line)
            support = schubert_polynomial(pi).support().complement(pi.p - 1)
            assert support == schubert_support_polytope(pi)
            assert is_mconvex(support).mconvex

    def test_corrupted_complementary_table_is_an_internal_bug(self, monkeypatch):
        # the complementary table of a true theta table is always a rank
        # function, so a failed validation is a bug, not bad input
        true_theta = schubert_module.theta_rank_function

        def corrupted(d):
            rho = true_theta(d)
            values = list(rho.values)
            values[rho.full_mask ^ 1] += d.p
            return RankFunction(rho.p, values)

        monkeypatch.setattr(schubert_module, "theta_rank_function", corrupted)
        with pytest.raises(AssertionError, match="must be submodular; violation: invalid rank"):
            schubert_support_polytope(Permutation((4, 2, 5, 3, 1)))

    def test_theorem_holds_on_all_of_s5(self):
        for one_line in permutations(range(1, 6)):
            pi = Permutation(one_line)
            support = schubert_polynomial(pi).support().complement(pi.p - 1)
            assert support == schubert_support_polytope(pi)
            assert is_mconvex(support).mconvex


class TestProjectionCodim:
    def test_full_subset_is_length(self):
        for one_line in permutations(range(1, 5)):
            pi = Permutation(one_line)
            assert projection_codim(pi, range(1, 5)) == length(pi)

    def test_empty_subset(self):
        assert projection_codim(Permutation((4, 2, 5, 3, 1)), []) == 0

    def test_identity(self):
        pi = Permutation.identity(4)
        for mask in range(16):
            subset = [j + 1 for j in range(4) if mask >> j & 1]
            assert projection_codim(pi, subset) == 0

    def test_monotone_in_subset(self):
        pi = Permutation((4, 2, 5, 3, 1))
        rho = theta_rank_function(rothe_diagram(pi))
        assert rho.values[rho.full_mask] == length(pi)
        for mask in range(1 << 5):
            subset = [j + 1 for j in range(5) if mask >> j & 1]
            c = projection_codim(pi, subset)
            assert 0 <= c <= length(pi)

    def test_equals_theta_table_entries(self):
        # two theta evaluations give the two entries of the full table
        for one_line in permutations(range(1, 5)):
            pi = Permutation(one_line)
            rho = theta_rank_function(rothe_diagram(pi))
            full = rho.full_mask
            for mask in range(1 << 4):
                subset = [j + 1 for j in range(4) if mask >> j & 1]
                assert projection_codim(pi, subset) == rho.values[full] - rho.values[full ^ mask]

    def test_element_outside_ground_set(self):
        with pytest.raises(ValidationError, match="element 4 outside ground set 1..3"):
            projection_codim(Permutation((2, 1, 3)), [4])
