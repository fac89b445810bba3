"""Tests for the enumeration-tree tracer — pinned to the paper's Figure 3 —
and for the per-worker counter merge of the sharded miner."""

import dataclasses

import pytest

from conftest import (
    VARIANTS,
    itemset_to_letters,
    random_dataset,
    unfiltered_root,
    variant_engine,
)

from repro import Constraints, Farmer, mine_irgs
from repro.core.enumeration import NodeCounters, merge_counters
from repro.core.trace import TracingFarmer, render_tree

#: Every run the tracer must normalize identically: the production
#: engine once per :data:`conftest.VARIANTS` id, and the reference
#: oracle.
TRACE_RUNS = (*VARIANTS, "reference")


def _traced(run, paper_dataset, **kwargs):
    """The trace root of one :data:`TRACE_RUNS` run over the paper's
    dataset at minsup 1."""
    miner = TracingFarmer(
        constraints=Constraints(minsup=1), engine=variant_engine(run), **kwargs
    )
    miner.mine(paper_dataset, "C")
    return miner.trace_root


@pytest.fixture
def full_trace(paper_dataset):
    """Trace with all prunings and the root's class-support filter
    disabled: the complete Figure 3 tree, minus nodes cut by the
    implicit empty-I(X) rule."""
    miner = TracingFarmer(constraints=Constraints(minsup=1), prunings=())
    with unfiltered_root():
        miner.mine(paper_dataset, "C")
    return miner.trace_root


@pytest.fixture
def pruned_trace(paper_dataset):
    miner = TracingFarmer(constraints=Constraints(minsup=1))
    miner.mine(paper_dataset, "C")
    return miner.trace_root


class TestFigure3Labels:
    """Node labels of Figure 3, checked on the unpruned traversal."""

    CASES = {
        "12": "al",
        "123": "a",
        "124": "a",
        "125": "l",
        "13": "aco",
        "14": "a",
        "15": "bls",
        "23": "aeh",
        "234": "aeh",
        "24": "aehpr",
        "25": "dl",
        "34": "aeh",
        "45": "f",
        "1234": "a",
    }

    def test_node_labels(self, full_trace):
        for label, letters in self.CASES.items():
            node = full_trace.find(label)
            assert node is not None, label
            assert itemset_to_letters(node.items) == letters, label

    def test_root_is_empty_combination(self, full_trace):
        assert full_trace.rows == ()
        assert full_trace.row_label() == "{}"

    def test_empty_label_nodes_have_no_children(self, full_trace):
        # Node "135" has I(X) = {} in Figure 3: the search never creates
        # it (empty conditional tables are the implicit pruning).
        assert full_trace.find("135") is None

    def test_children_in_ord_order(self, full_trace):
        labels = [child.row_label() for child in full_trace.children]
        assert labels == sorted(labels)

    def test_support_stats(self, full_trace):
        node = full_trace.find("23")
        assert (node.supp, node.supn) == (2, 1)  # aeh covers rows 2,3,4


class TestPrunedTrace:
    def test_example5_node34_pruned(self, pruned_trace):
        """The paper's Example 5: node {3,4} is cut by Pruning 2."""
        node = pruned_trace.find("34")
        assert node is not None
        assert node.outcome == "pruned:identified"
        assert node.children == []

    def test_pruned_tree_is_smaller(self, full_trace, pruned_trace):
        assert pruned_trace.size() < full_trace.size()

    def test_reported_nodes_match_irgs(self, paper_dataset):
        miner = TracingFarmer(constraints=Constraints(minsup=1))
        result = miner.mine(paper_dataset, "C")
        reported = set()

        def collect(node):
            if node.outcome == "reported":
                reported.add(frozenset(node.items))
            for child in node.children:
                collect(child)

        collect(miner.trace_root)
        assert result.upper_antecedents() <= reported


class TestCounterMerge:
    """The sharded miner's merged per-worker counters vs the serial run."""

    def test_merge_counters_is_fieldwise_sum(self):
        parts = [
            NodeCounters(nodes=2, pruned_loose=1),
            NodeCounters(nodes=3, pruned_tight=4, candidates_rejected=1),
            NodeCounters(rows_compressed=7),
        ]
        merged = merge_counters(parts)
        assert dataclasses.asdict(merged) == {
            "nodes": 5,
            "pruned_loose": 1,
            "pruned_tight": 4,
            "pruned_identified": 0,
            "rows_compressed": 7,
            "groups_emitted": 0,
            "candidates_rejected": 1,
        }

    def test_merged_equal_serial_inline(self):
        # One worker walks every part in the coordinator, behind the same
        # broadcast prefilter as a pool worker's part.
        for seed in range(8):
            data = random_dataset(seed, max_rows=11)
            serial = mine_irgs(data, "C", minsup=1)
            parallel = Farmer(Constraints(minsup=1), n_workers=1).mine(data, "C")
            assert parallel.counters == serial.counters, seed

    def test_merged_never_exceed_serial_with_broadcast(self):
        # With bounds broadcast on, dropped candidates are counted
        # exactly where the replay would have rejected them, so the
        # merged counters match the serial run field for field — the
        # strongest form of "never exceed".
        for seed in range(8):
            data = random_dataset(seed, max_rows=11)
            serial = dataclasses.asdict(
                mine_irgs(data, "C", minsup=1).counters
            )
            parallel = dataclasses.asdict(
                Farmer(Constraints(minsup=1), n_workers=2)
                .mine(data, "C")
                .counters
            )
            for name, serial_value in serial.items():
                assert parallel[name] <= serial_value, (seed, name)
            assert parallel == serial, seed

    def test_tracer_always_runs_serial(self, paper_dataset):
        # The tracer hooks the in-process recursion, so n_workers is
        # accepted but the traversal stays serial and fully traced.
        miner = TracingFarmer(constraints=Constraints(minsup=1), n_workers=4)
        result = miner.mine(paper_dataset, "C")
        assert result.parallel is None
        assert miner.trace_root is not None
        assert miner.trace_root.size() == result.counters.nodes


class TestEngineAgreement:
    """The trace is an engine-independent view of the search.

    The production engine keeps conditional tables support-sorted,
    while the reference engine keeps insertion order; the tracer must normalize that away so Figure 3
    labels (and the ``reported`` detection, which compares against store
    entries in table order) agree byte for byte across every run.
    """

    @staticmethod
    def _flatten(node, out):
        out.append((node.row_label(), node.items, node.supp, node.supn, node.outcome))
        for child in node.children:
            TestEngineAgreement._flatten(child, out)
        return out

    @pytest.mark.parametrize("prunings", [(), ("p1", "p2", "p3")])
    def test_engine_traces_identical(self, paper_dataset, prunings):
        traces = {
            run: self._flatten(
                _traced(run, paper_dataset, prunings=prunings), []
            )
            for run in TRACE_RUNS
        }
        for run in TRACE_RUNS:
            assert traces[run] == traces["kernel"], run

    def test_items_sorted_under_kernel_engine(self, paper_dataset):
        miner = TracingFarmer(constraints=Constraints(minsup=1))
        miner.mine(paper_dataset, "C")
        for label, items, _, _, _ in self._flatten(miner.trace_root, []):
            assert items == tuple(sorted(items)), label

    def test_raw_render_engine_independent(self, paper_dataset):
        rendered = {
            run: render_tree(_traced(run, paper_dataset)) for run in TRACE_RUNS
        }
        for run in TRACE_RUNS:
            assert rendered[run] == rendered["kernel"], run


class TestRenderTree:
    def test_render_contains_labels(self, full_trace, paper_dataset):
        text = render_tree(full_trace, paper_dataset)
        assert "12 -> I = {a, l}" in text
        assert "23 -> I = {a, e, h}" in text

    def test_max_depth(self, full_trace):
        shallow = render_tree(full_trace, max_depth=1)
        assert "123" not in shallow.replace("{}", "")

    def test_pruning_markers_rendered(self, pruned_trace, paper_dataset):
        text = render_tree(pruned_trace, paper_dataset)
        assert "[pruned:identified]" in text
