"""Property-based tests for persistence, validation and discretization."""

import json

from hypothesis import given, settings, strategies as st

from repro import Constraints, mine_irgs
from repro.core import bitset
from repro.core.rulegroup import RuleGroup
from repro.core.serialize import load_rule_groups, save_rule_groups
from repro.core.validate import validate_result
from repro.data.dataset import ItemizedDataset
from repro.data.io import load_itemized, save_itemized


@st.composite
def datasets(draw, max_rows=7, max_items=8):
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        draw(
            st.frozensets(
                st.integers(min_value=0, max_value=n_items - 1),
                max_size=n_items,
            )
        )
        for _ in range(n_rows)
    ]
    labels = [draw(st.sampled_from(["C", "D"])) for _ in range(n_rows)]
    labels[0] = "C"
    return ItemizedDataset.from_lists(rows, labels, n_items=n_items)


#: Small ids and ids past 2**40 (wider than any machine word a writer
#: might assume).
_IDS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2**40, max_value=2**70),
)


@st.composite
def rule_groups(draw):
    """One run's groups: empty and wide uppers, and lower bounds that are
    absent, empty or several subsets of the upper."""
    n = draw(st.integers(min_value=1, max_value=2**41))
    m = draw(st.integers(min_value=0, max_value=n))
    groups = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        upper = draw(st.frozensets(_IDS, max_size=6))
        rows = draw(st.frozensets(_IDS, max_size=8))
        kind = draw(st.sampled_from(["none", "empty", "several"]))
        if kind == "none":
            bounds = None
        elif kind == "empty":
            bounds = ()
        else:
            members = sorted(upper)
            bounds = tuple(
                frozenset(draw(st.lists(st.sampled_from(members), max_size=4)))
                if members
                else frozenset()
                for _ in range(draw(st.integers(min_value=1, max_value=3)))
            )
        groups.append(
            RuleGroup(
                upper=upper,
                consequent="C",
                rows=rows,
                support=draw(st.integers(min_value=0, max_value=len(rows))),
                antecedent_support=len(rows),
                n=n,
                m=m,
                lower_bounds=bounds,
            )
        )
    return groups


def _json_record(group: RuleGroup) -> str:
    """A group's line as ``json`` writes the record dict (the reference
    layout of an ``.irgs`` record)."""
    record = {
        "upper": sorted(group.upper),
        "rows": sorted(group.rows),
        "support": group.support,
        "antecedent_support": group.antecedent_support,
        "lower_bounds": (
            [sorted(bound) for bound in group.lower_bounds]
            if group.lower_bounds is not None
            else None
        ),
    }
    return json.dumps(record, sort_keys=True)


class TestOutputPathProperties:
    @given(rule_groups())
    @settings(max_examples=60, deadline=None)
    def test_record_lines_are_json_dumps(self, groups):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "groups.irgs"
            save_rule_groups(path, groups)
            lines = path.read_text(encoding="utf-8").splitlines()
            loaded, header = load_rule_groups(path)
        assert lines[1:] == [_json_record(group) for group in groups]
        assert loaded == groups
        assert header["count"] == len(groups)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_original_rows_matches_bit_iteration(self, data):
        from repro.data.transpose import TransposedTable

        n_rows = data.draw(st.integers(min_value=2, max_value=150))
        # Row 0 is not a consequent row and some later row is, so ORD
        # (consequent rows first) is never the identity.
        labels = ["D"] + [
            data.draw(st.sampled_from(["C", "D"])) for _ in range(n_rows - 1)
        ]
        labels[data.draw(st.integers(min_value=1, max_value=n_rows - 1))] = "C"
        dataset = ItemizedDataset.from_lists(
            [frozenset({0})] * n_rows, labels, n_items=1
        )
        table = TransposedTable.build(dataset, "C")
        assert table.ord_to_original != tuple(range(n_rows))
        for _ in range(5):
            mask = data.draw(st.integers(min_value=0, max_value=2**n_rows - 1))
            assert table.original_rows(mask) == frozenset(
                table.ord_to_original[position]
                for position in bitset.iter_bits(mask)
            )


class TestSerializationProperties:
    @given(datasets())
    @settings(max_examples=40, deadline=None)
    def test_rule_groups_round_trip(self, data):
        import tempfile
        from pathlib import Path

        result = mine_irgs(data, "C", minsup=1, compute_lower_bounds=True)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "groups.irgs"
            save_rule_groups(path, result.groups, constraints=result.constraints)
            loaded, header = load_rule_groups(path)
        assert {g.upper for g in loaded} == result.upper_antecedents()
        assert header["count"] == len(result.groups)
        for original, restored in zip(
            sorted(result.groups, key=lambda g: sorted(g.upper)),
            sorted(loaded, key=lambda g: sorted(g.upper)),
        ):
            assert original.rows == restored.rows
            assert original.lower_bounds == restored.lower_bounds

    @given(datasets())
    @settings(max_examples=40, deadline=None)
    def test_loaded_groups_validate_clean(self, data):
        import tempfile
        from pathlib import Path

        result = mine_irgs(data, "C", minsup=1)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "groups.irgs"
            save_rule_groups(path, result.groups)
            loaded, _ = load_rule_groups(path)
        assert (
            validate_result(
                data, loaded, consequent="C", constraints=Constraints(minsup=1)
            )
            == []
        )

    @given(datasets())
    @settings(max_examples=40, deadline=None)
    def test_itemized_dataset_round_trip(self, data):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "data.items"
            save_itemized(data, path)
            loaded = load_itemized(path)
        assert loaded.rows == data.rows
        assert loaded.labels == data.labels
        assert loaded.n_items == data.n_items


class TestDiscretizationProperties:
    @given(
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_depth_one_item_per_gene(self, n_rows, n_genes, buckets, seed):
        import numpy as np

        from repro.data.discretize import EqualDepthDiscretizer
        from repro.data.matrix import GeneExpressionMatrix

        rng = np.random.default_rng(seed)
        matrix = GeneExpressionMatrix.from_arrays(
            rng.normal(size=(n_rows, n_genes)),
            ["a"] * (n_rows // 2) + ["b"] * (n_rows - n_rows // 2),
        )
        data = EqualDepthDiscretizer(n_buckets=buckets).fit_transform(matrix)
        for row in data.rows:
            assert len(row) == n_genes
        # Items never exceed the declared vocabulary.
        for row in data.rows:
            assert all(0 <= item < data.n_items for item in row)

    @given(
        st.integers(min_value=4, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_depth_monotone_in_value(self, n_rows, seed):
        """Higher expression never lands in a lower bucket."""
        import numpy as np

        from repro.data.discretize import EqualDepthDiscretizer
        from repro.data.matrix import GeneExpressionMatrix

        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_rows, 1))
        matrix = GeneExpressionMatrix.from_arrays(values, ["a"] * n_rows)
        data = EqualDepthDiscretizer(n_buckets=4).fit_transform(matrix)
        items = [next(iter(row)) for row in data.rows]
        order = sorted(range(n_rows), key=lambda i: values[i, 0])
        buckets_in_value_order = [items[i] for i in order]
        assert buckets_in_value_order == sorted(buckets_in_value_order)
