"""Unit tests for Rule and RuleGroup (Definitions 2.1-2.2, Lemma 2.2)."""

import dataclasses
import pickle

import pytest

from repro.core.rule import Rule
from repro.core.rulegroup import RuleGroup, count_covered_subsets
from repro.errors import DataError


def make_group(lower_bounds=None):
    """The paper's Example 2 group: upper aeh, rows {1,2,3}, conf 2/3."""
    return RuleGroup(
        upper=frozenset({0, 4, 7}),  # a, e, h
        consequent="C",
        rows=frozenset({1, 2, 3}),
        support=2,
        antecedent_support=3,
        n=5,
        m=3,
        lower_bounds=lower_bounds,
    )


class TestRule:
    def test_confidence_and_chi(self):
        rule = Rule(
            antecedent=frozenset({0}),
            consequent="C",
            support=2,
            antecedent_support=3,
            n=5,
            m=3,
        )
        assert rule.confidence == pytest.approx(2 / 3)
        assert rule.negative_support == 1
        assert rule.chi_square >= 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            Rule(
                antecedent=frozenset(),
                consequent="C",
                support=4,
                antecedent_support=3,
                n=5,
                m=3,
            )

    def test_measure_lookup(self):
        rule = Rule(
            antecedent=frozenset({0}),
            consequent="C",
            support=2,
            antecedent_support=3,
            n=5,
            m=3,
        )
        assert rule.measure("confidence") == pytest.approx(rule.confidence)

    def test_format(self):
        rule = Rule(
            antecedent=frozenset({1, 0}),
            consequent="C",
            support=2,
            antecedent_support=2,
            n=5,
            m=3,
        )
        text = rule.format()
        assert "{0, 1}" in text and "-> C" in text


class TestRuleGroupStats:
    def test_confidence(self):
        assert make_group().confidence == pytest.approx(2 / 3)

    def test_upper_rule(self):
        rule = make_group().upper_rule
        assert rule.antecedent == frozenset({0, 4, 7})
        assert rule.support == 2

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            RuleGroup(
                upper=frozenset({0}),
                consequent="C",
                rows=frozenset({1, 2}),
                support=1,
                antecedent_support=3,  # != |rows|
                n=5,
                m=3,
            )

    def test_lower_bound_subset_validation(self):
        with pytest.raises(ValueError):
            make_group(lower_bounds=(frozenset({9}),))


class TestRuleGroupContract:
    """The hand-written ``__init__`` keeps the dataclass contract."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"antecedent_support": 4}, r"antecedent_support=4 but \|rows\|=3"),
            ({"support": 4}, r"support=4 outside \[0, 3\]"),
            ({"support": -1}, r"support=-1 outside \[0, 3\]"),
            (
                {"lower_bounds": (frozenset({4}), frozenset({9}))},
                r"lower bound \[9\] is not a subset of the upper bound "
                r"\[0, 4, 7\]",
            ),
        ],
    )
    def test_checks_raise_data_error_from_init(self, changes, message):
        fields = {
            "upper": frozenset({0, 4, 7}),
            "consequent": "C",
            "rows": frozenset({1, 2, 3}),
            "support": 2,
            "antecedent_support": 3,
            "n": 5,
            "m": 3,
        }
        with pytest.raises(DataError, match=message) as excinfo:
            RuleGroup(**{**fields, **changes})
        assert excinfo.traceback[-1].name == "__init__"

    def test_positional_equals_keyword(self):
        group = make_group(lower_bounds=(frozenset({4}),))
        positional = RuleGroup(
            frozenset({0, 4, 7}), "C", frozenset({1, 2, 3}), 2, 3, 5, 3,
            (frozenset({4}),),
        )
        assert positional == group
        assert RuleGroup(*dataclasses.astuple(make_group())[:7]) == make_group()
        assert make_group().lower_bounds is None

    def test_replace(self):
        group = make_group()
        bounded = dataclasses.replace(group, lower_bounds=(frozenset({4}),))
        assert bounded.lower_bounds == (frozenset({4}),)
        assert dataclasses.replace(bounded, lower_bounds=None) == group
        with pytest.raises(DataError):
            dataclasses.replace(group, support=9)

    def test_frozen(self):
        group = make_group()
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.support = 1  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del group.rows  # type: ignore[misc]

    def test_pickle_round_trip_keeps_hash(self):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        twin = pickle.loads(pickle.dumps(group))
        assert twin == group
        assert hash(twin) == hash(group)
        assert repr(twin) == repr(group)


class TestMembership:
    """Lemma 2.2: members are exactly the sets between a lower bound and
    the upper bound."""

    def test_contains_antecedent(self):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        assert group.contains_antecedent(frozenset({4}))  # e
        assert group.contains_antecedent(frozenset({4, 7}))  # eh
        assert group.contains_antecedent(frozenset({0, 4, 7}))  # aeh
        assert not group.contains_antecedent(frozenset({0}))  # a alone
        assert not group.contains_antecedent(frozenset({0, 9}))  # outside

    def test_requires_lower_bounds(self):
        with pytest.raises(ValueError):
            make_group().contains_antecedent(frozenset({4}))

    def test_iter_members_matches_paper_example_2(self):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        members = set(group.iter_members())
        expected = {
            frozenset({4}),
            frozenset({7}),
            frozenset({0, 4}),
            frozenset({0, 7}),
            frozenset({4, 7}),
            frozenset({0, 4, 7}),
        }
        assert members == expected

    def test_iter_members_limit(self):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        assert len(list(group.iter_members(limit=3))) == 3

    def test_member_count_matches_enumeration(self):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        assert group.member_count() == 6

    def test_member_count_single_lower(self):
        group = make_group(lower_bounds=(frozenset({0, 4, 7}),))
        assert group.member_count() == 1


class TestCountCoveredSubsets:
    def test_intro_example(self):
        # The paper's intro: upper abcde with 5 singleton lower bounds
        # gives 31 member rules (every non-empty subset).
        upper = frozenset(range(5))
        lowers = tuple(frozenset({i}) for i in range(5))
        assert count_covered_subsets(upper, lowers) == 31

    def test_no_lower_bounds(self):
        assert count_covered_subsets(frozenset({1, 2}), ()) == 0


class TestFormat:
    def test_format_mentions_bounds(self, paper_dataset):
        group = make_group(lower_bounds=(frozenset({4}), frozenset({7})))
        text = group.format(paper_dataset)
        assert "upper" in text
        assert text.count("lower") == 2
        assert "{a, e, h}" in text
