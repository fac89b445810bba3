"""Property-based tests (hypothesis) for the core invariants."""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from repro import Constraints, mine_irgs
from repro.baselines import (
    all_closed_itemsets,
    interesting_rule_groups,
    mine_closed_carpenter,
    mine_closed_charm,
)
from repro.core import bitset, closure, measures
from repro.core.minelb import mine_lower_bounds
from repro.core.rulegroup import count_covered_subsets
from repro.data.dataset import ItemizedDataset

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# The dataset/contingency/index-set generators are shared with the
# conformance and scheduling suites via the strategies module.
from strategies import contingency, datasets, index_sets  # noqa: E402


# ---------------------------------------------------------------------------
# Bitsets
# ---------------------------------------------------------------------------


class TestBitsetProperties:
    @given(index_sets)
    def test_round_trip(self, indices):
        assert set(bitset.to_indices(bitset.from_indices(indices))) == set(indices)

    @given(index_sets, index_sets)
    def test_subset_matches_set_semantics(self, left, right):
        left_mask = bitset.from_indices(left)
        right_mask = bitset.from_indices(right)
        assert bitset.is_subset(left_mask, right_mask) == (left <= right)
        assert bitset.bit_count(left_mask & right_mask) == len(left & right)

    @given(index_sets)
    def test_bit_count(self, indices):
        assert bitset.bit_count(bitset.from_indices(indices)) == len(indices)


# ---------------------------------------------------------------------------
# Closure operators
# ---------------------------------------------------------------------------


class TestClosureProperties:
    @given(datasets(), index_sets)
    @settings(max_examples=60)
    def test_itemset_closure_laws(self, data, raw_items):
        items = frozenset(i for i in raw_items if i < data.n_items)
        closed = closure.close_itemset(data, items)
        # Extensive when the itemset has support; idempotent always.
        if closure.rows_of(data, items):
            assert items <= closed
        assert closure.close_itemset(data, closed) == closed

    @given(datasets())
    @settings(max_examples=60)
    def test_galois_antitone(self, data):
        # More rows -> fewer common items.
        full = closure.items_of(data, range(data.n_rows))
        for row in range(data.n_rows):
            assert full <= closure.items_of(data, [row])


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


class TestMeasureProperties:
    @given(contingency())
    def test_chi_square_nonnegative(self, quad):
        assert measures.chi_square(*quad) >= 0.0

    @given(contingency())
    def test_chi_bound_dominates_pointwise(self, quad):
        x, y, n, m = quad
        bound = measures.chi_square_upper_bound(x, y, n, m)
        assert bound >= measures.chi_square(x, y, n, m) - 1e-9

    @given(contingency())
    def test_correlation_chi_identity(self, quad):
        x, y, n, m = quad
        phi = measures.correlation(x, y, n, m)
        chi = measures.chi_square(x, y, n, m)
        assert abs(phi * phi * n - chi) < 1e-6

    @given(contingency())
    def test_entropy_and_gini_gain_bounds(self, quad):
        assert -1e-9 <= measures.entropy_gain(*quad) <= 1.0 + 1e-9
        assert -1e-9 <= measures.gini_gain(*quad) <= 0.5 + 1e-9


# ---------------------------------------------------------------------------
# FARMER vs oracle
# ---------------------------------------------------------------------------


class TestFarmerProperties:
    @given(
        datasets(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 0.5, 0.8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, data, minsup, minconf):
        oracle = interesting_rule_groups(
            data, "C", Constraints(minsup=minsup, minconf=minconf)
        )
        result = mine_irgs(data, "C", minsup=minsup, minconf=minconf)
        assert result.upper_antecedents() == {g.upper for g in oracle}

    @given(datasets())
    @settings(max_examples=40, deadline=None)
    # One empty positive row: the only item has class support 0, so the
    # root keeps no item and there is nothing to walk (an itemless root
    # would offer I(∅) = ∅ to Step 7).
    @example(ItemizedDataset.from_lists([[]], ["C"], n_items=1))
    def test_prunings_are_pure_optimizations(self, data):
        reference = mine_irgs(data, "C", minsup=1, minconf=0.5)
        stripped = mine_irgs(data, "C", minsup=1, minconf=0.5, prunings=())
        assert stripped.upper_antecedents() == reference.upper_antecedents()

    @given(datasets())
    @settings(max_examples=40, deadline=None)
    def test_group_invariants(self, data):
        result = mine_irgs(data, "C", minsup=1)
        for group in result.groups:
            assert group.upper
            assert closure.rows_of(data, group.upper) == group.rows
            assert closure.close_itemset(data, group.upper) == group.upper
            assert 0 < group.antecedent_support <= data.n_rows


# ---------------------------------------------------------------------------
# Closed miners
# ---------------------------------------------------------------------------


class TestClosedMinerProperties:
    @given(datasets(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_charm_equals_carpenter_equals_oracle(self, data, minsup):
        expected = all_closed_itemsets(data, minsup=minsup)
        charm = {c.items for c in mine_closed_charm(data, minsup=minsup)}
        carpenter = {c.items for c in mine_closed_carpenter(data, minsup=minsup)}
        assert charm == expected
        assert carpenter == expected


# ---------------------------------------------------------------------------
# MineLB
# ---------------------------------------------------------------------------


class TestMineLBProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=5),
            max_size=5,
        ),
    )
    @settings(max_examples=80)
    def test_bounds_are_minimal_avoiders(self, size, outside):
        upper = frozenset(range(size))
        outside = [o & upper for o in outside if (o & upper) != upper]
        bounds = mine_lower_bounds(upper, outside)
        for bound in bounds:
            assert bound <= upper
            # Avoids every outside set...
            if outside:
                assert not any(bound <= o for o in outside)
                # ...minimally: every proper subset is covered.
                for item in bound:
                    smaller = bound - {item}
                    if smaller:
                        assert any(smaller <= o for o in outside)

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=5),
            max_size=5,
        ),
    )
    @settings(max_examples=80)
    def test_antichain(self, size, outside):
        upper = frozenset(range(size))
        outside = [o & upper for o in outside if (o & upper) != upper]
        bounds = mine_lower_bounds(upper, outside)
        for left in bounds:
            for right in bounds:
                if left is not right:
                    assert not left <= right


# ---------------------------------------------------------------------------
# Rule group member counting
# ---------------------------------------------------------------------------


class TestMemberCountProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=80)
    def test_inclusion_exclusion_matches_enumeration(self, size, raw_bounds):
        upper = frozenset(range(size))
        bounds = tuple({bound & upper or frozenset({0}) for bound in raw_bounds})
        expected = 0
        items = sorted(upper)
        for k in range(len(items) + 1):
            for subset in combinations(items, k):
                candidate = frozenset(subset)
                if any(bound <= candidate for bound in bounds):
                    expected += 1
        assert count_covered_subsets(upper, bounds) == expected
