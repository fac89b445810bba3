"""Property suite for the search hot path.

Three shortcuts keep the search's cost on the nodes it keeps, and each
is checked here against the slower code it replaced:

* **Counted loose tails.**  :func:`~repro.core.farmer.enumerate_frontier`
  counts a sibling tail whose loose support bound is below minsup
  instead of visiting it.  A no-op observer forces the per-node walk,
  and both walks must yield the same candidates, every counter (cache
  telemetry included) and, under every quantum, the same returned
  frontiers.
* **Step-7 admission index.**  :class:`~repro.core.farmer._IRGStore`
  walks only the chains of a candidate's items, finds a re-offered
  group on that walk and sorts its groups once when they are built.
  The store it replaced is kept here as the oracle: a seen-set, a
  linear scan of the whole confidence prefix and sorted inserts.
* **Masks by reference.**  A child table holds the transposer's own
  int masks in support-descending order, and the transposer's class
  support counts (read by the root's class-support filter) match those
  masks.
"""

from __future__ import annotations

import bisect
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_dataset, unfiltered_root
from strategies import datasets, degenerate_datasets, skewed_datasets

from repro.core import bitset
from repro.core.constraints import Constraints
from repro.core.enumeration import NodeCounters
from repro.core.farmer import (
    FRONTIER_STATE,
    Candidate,
    SearchContext,
    _IRGStore,
    enumerate_frontier,
)
from repro.core.enumeration import extend_items, scan_items
from repro.core.kernel import CondTable
from repro.data.dataset import ItemizedDataset
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.registry import load
from repro.data.transpose import TransposedTable

QUANTA = (None, 1, 2, 3, 5, 17, 64, 257)

PRUNING_SUBSETS = (
    frozenset({"p1", "p2", "p3"}),
    frozenset({"p1", "p3"}),
    frozenset({"p3"}),
    frozenset({"p1", "p2"}),
    frozenset(),
)


# ----------------------------------------------------------------------
# Counted loose tails
# ----------------------------------------------------------------------


def _detached(units):
    """A returned frontier without its tables, for comparison."""
    return [
        (tag, payload._replace(table=None) if tag == FRONTIER_STATE else payload)
        for tag, payload in units
    ]


class _NoOpObserver:
    """A node observer that records nothing."""

    def enter(self, state):
        pass

    def leave(self, outcome):
        pass


def _walk(ctx, table, quantum, per_node):
    """Enumerate ``table`` to completion under ``quantum``.

    Returns the candidates, the counters and every frontier the walk
    handed back.  ``per_node`` passes a no-op observer, which forces
    the per-node path.
    """
    counters = NodeCounters()
    candidates: list[Candidate] = []
    frontiers = []
    observer = _NoOpObserver() if per_node else None
    root = ctx.root_state(table)
    if root is None:
        return candidates, counters, frontiers
    units = [(FRONTIER_STATE, root)]
    while True:
        units = enumerate_frontier(
            ctx, units, counters, candidates, quantum, observer=observer,
        )
        if units is None:
            return candidates, counters, frontiers
        frontiers.append(_detached(units))


# Both ids run the one production engine, each on its own hypothesis
# draws; they once forced a table representation each.
@pytest.mark.parametrize("variant", ["numpy", "default"])
@given(
    data=st.one_of(datasets(max_rows=10, max_items=8), skewed_datasets()),
    minsup=st.integers(min_value=1, max_value=5),
    minconf=st.sampled_from([0.0, 0.5, 0.8]),
    prunings=st.sampled_from(PRUNING_SUBSETS),
)
def test_fast_walk_matches_per_node_walk(variant, data, minsup, minconf, prunings):
    table = TransposedTable.build(data, "C")
    ctx = SearchContext.for_table(
        table, Constraints(minsup=minsup, minconf=minconf), prunings
    )
    for quantum in QUANTA:
        fast = _walk(ctx, table, quantum, per_node=False)
        slow = _walk(ctx, table, quantum, per_node=True)
        assert fast[0] == slow[0]
        assert dataclasses.astuple(fast[1]) == dataclasses.astuple(slow[1])
        assert fast[2] == slow[2]


@pytest.mark.parametrize("seed", range(6))
def test_fast_walk_matches_on_larger_tables(seed):
    """Deeper trees than the hypothesis datasets, with long tails."""
    data = random_dataset(seed, max_rows=16, max_items=14)
    table = TransposedTable.build(data, "C")
    for minsup in (2, 3, 4):
        ctx = SearchContext.for_table(
            table, Constraints(minsup=minsup), PRUNING_SUBSETS[0]
        )
        for quantum in QUANTA:
            fast = _walk(ctx, table, quantum, per_node=False)
            slow = _walk(ctx, table, quantum, per_node=True)
            assert fast[0] == slow[0]
            assert dataclasses.astuple(fast[1]) == dataclasses.astuple(slow[1])
            assert fast[2] == slow[2]


#: Seven rows, four of them positive, and six items.  No item is in
#: four positive rows, so at minsup 4 the root keeps no item.
_NO_ITEM_KEPT = ItemizedDataset.from_lists(
    [[0, 1], [2, 3], [4, 5], [1, 3], [0, 1, 2, 3, 4, 5], [0, 2, 4], [5]],
    ["C", "C", "C", "C", "D", "D", "D"],
    n_items=6,
)

#: The same rows with item 0 in every positive row: at minsup 4 the
#: root keeps item 0 alone, and its rows are the root's intersection.
_ONE_ITEM_KEPT = ItemizedDataset.from_lists(
    [[0, 1], [0, 2, 3], [0, 4, 5], [0, 1, 3], [0, 1, 2, 3, 4, 5], [2, 4],
     [5]],
    ["C", "C", "C", "C", "D", "D", "D"],
    n_items=6,
)


@pytest.mark.parametrize("reference", [False, True])
@given(
    data=st.one_of(
        datasets(max_rows=10, max_items=8),
        skewed_datasets(max_dense=6, max_sparse=4),
        degenerate_datasets(
            shapes=("single_row", "all_identical", "shared_item", "one_item")
        ),
    ),
    minsup=st.integers(min_value=0, max_value=4),
    minconf=st.sampled_from([0.0, 0.5]),
)
@example(data=_NO_ITEM_KEPT, minsup=4, minconf=0.0)
@example(data=_ONE_ITEM_KEPT, minsup=4, minconf=0.0)
def test_walk_never_emits_an_empty_antecedent(reference, data, minsup, minconf):
    """Step 7's store chains groups by lowest item and has no chain for
    an empty antecedent: no walk emits one, under any pruning set (with
    Pruning 2 off an upper bound is reached again) or engine, on tables
    with empty rows and items no row holds, from the filtered root and
    from the unfiltered one.  A root that keeps no item is no root at
    all (``root_state`` is ``None``; an itemless root would emit
    ``I(∅) = ∅``).  At most ten rows: with every pruning off the walk
    visits up to ``2**n`` nodes."""
    table = TransposedTable.build(data, "C")
    if not table.n or not table.item_masks:
        return
    constraints = Constraints(minsup=minsup, minconf=minconf)
    for prunings in PRUNING_SUBSETS:
        ctx = SearchContext.for_table(
            table, constraints, prunings, reference=reference
        )
        candidates = _walk(ctx, table, None, per_node=False)[0]
        assert all(candidate.item_ids for candidate in candidates)
        # The seam reaches contexts built inside the block.
        with unfiltered_root():
            ctx = SearchContext.for_table(
                table, constraints, prunings, reference=reference
            )
            candidates = _walk(ctx, table, None, per_node=False)[0]
        assert all(candidate.item_ids for candidate in candidates)


def _progress_matches_preemption(table, quantum):
    ctx = SearchContext.for_table(
        table, Constraints(minsup=2), PRUNING_SUBSETS[0]
    )
    root_state = ctx.root_state(table)
    if root_state is None:
        return False
    root = [(FRONTIER_STATE, root_state)]

    expected = []
    counters, candidates = NodeCounters(), []
    rest = root
    while True:
        rest = enumerate_frontier(ctx, rest, counters, candidates, quantum)
        if rest is None:
            break
        # The root's unstarted children are the depth-1 states left; a
        # deeper state leading the frontier belongs to the open child.
        depths = [
            payload.x_mask.bit_count()
            for tag, payload in rest
            if tag == FRONTIER_STATE
        ]
        children_left = depths.count(1) + (depths[0] > 1)
        expected.append((dataclasses.astuple(counters), children_left))

    reported = []
    walked, walked_candidates = NodeCounters(), []

    def progress(children_left):
        reported.append((dataclasses.astuple(walked), children_left))

    assert (
        enumerate_frontier(
            ctx, root, walked, walked_candidates, quantum,
            progress=progress,
        )
        is None
    )
    assert walked_candidates == candidates
    assert reported == expected
    return bool(expected)


@pytest.mark.parametrize("quantum", [1, 5, 64])
def test_progress_reports_where_preemption_would_yield(quantum):
    """A walk that reports progress instead of preempting publishes the
    counters a preempted walk holds at each yield, with the count of the
    root's children not finished yet, and mines the same candidates."""
    checked = [
        _progress_matches_preemption(
            TransposedTable.build(
                random_dataset(seed, max_rows=16, max_items=14), "C"
            ),
            quantum,
        )
        for seed in range(8)
    ]
    assert any(checked)


# ----------------------------------------------------------------------
# Step-7 admission index
# ----------------------------------------------------------------------


class LinearStore:
    """The admission store before its index, in item space: one scan of
    the whole prefix of groups with qualifying confidence, prefiltered
    by size, testing item masks built from the candidates' ids.  It
    needs no closure argument, so it is the independent oracle for the
    row-space store."""

    def __init__(self) -> None:
        self.neg_confidences: list[float] = []
        self.item_masks: list[int] = []
        self.sizes: list[int] = []
        self.entries: list[tuple] = []
        self.seen: set[int] = set()

    def is_interesting(self, item_mask: int, size: int, confidence: float) -> bool:
        boundary = bisect.bisect_right(self.neg_confidences, -confidence)
        for index in range(boundary):
            mask = self.item_masks[index]
            if self.sizes[index] < size and mask & item_mask == mask:
                return False
        return True

    def offer(self, candidate: Candidate, counters: NodeCounters) -> bool:
        item_mask = bitset.from_indices(candidate.item_ids)
        if item_mask in self.seen:
            return False
        confidence = candidate.confidence
        if not self.is_interesting(item_mask, len(candidate.item_ids), confidence):
            counters.candidates_rejected += 1
            return False
        position = bisect.bisect_right(self.neg_confidences, -confidence)
        self.neg_confidences.insert(position, -confidence)
        self.item_masks.insert(position, item_mask)
        self.sizes.insert(position, len(candidate.item_ids))
        self.entries.insert(
            position,
            (
                tuple(candidate.item_ids),
                candidate.supp,
                candidate.supn,
                candidate.row_mask,
            ),
        )
        self.seen.add(item_mask)
        return True


def _table_of(rows, n_items=6):
    """The transposed table of ``rows`` (item lists), every row 'C'."""
    data = ItemizedDataset.from_lists(rows, ["C"] * len(rows), n_items=n_items)
    return TransposedTable.build(data, "C")


def _closed(table, item_ids, supp, supn):
    """The candidate ``item_ids -> C`` with its row set ``R(item_ids)``,
    checked to be a closed pair of ``table``."""
    rows = table.rows_of_itemset(item_ids)
    assert table.items_of_rows(rows) == frozenset(item_ids)
    return Candidate(tuple(item_ids), supp, supn, rows)


@st.composite
def offer_sequences(draw, max_size=40, repeats=False):
    """Closed candidates ``(I(X), R(I(X)))`` of a small random table over
    items 0..5, in any table order; small supports so confidences and
    antecedent sizes tie often.  Each row set's ``(supp, supn)`` is
    drawn once and reused, the :class:`Candidate` precondition every
    producer meets.  A row set sharing no item is skipped: no producer
    offers the empty antecedent
    (:func:`test_walk_never_emits_an_empty_antecedent`).

    Returns the table and the sequence."""
    rows = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=5), max_size=5),
            min_size=1,
            max_size=7,
        )
    )
    table = _table_of([sorted(row) for row in rows])
    xs = draw(
        st.lists(
            st.integers(min_value=1, max_value=table.all_rows_mask),
            max_size=max_size,
        )
    )
    stats: dict[int, tuple[int, int]] = {}
    sequence = []
    for x in xs:
        items = table.items_of_rows(x)
        if not items:
            continue
        row_mask = table.rows_of_itemset(items)
        if row_mask not in stats:
            stats[row_mask] = (
                draw(st.integers(min_value=1, max_value=4)),
                draw(st.integers(min_value=0, max_value=4)),
            )
        elif not repeats:
            continue
        item_ids = tuple(draw(st.permutations(sorted(items))))
        sequence.append(Candidate(item_ids, *stats[row_mask], row_mask))
    return table, sequence


def _assert_same_admission(sequence):
    store, oracle = _IRGStore(), LinearStore()
    counters, oracle_counters = NodeCounters(), NodeCounters()
    for candidate in sequence:
        assert store.offer(candidate, counters) == oracle.offer(
            candidate, oracle_counters
        )
    assert store._ranked() == oracle.entries
    assert counters == oracle_counters


@given(offer_sequences())
def test_admission_index_matches_linear_scan(drawn):
    """Distinct closed pairs in any order, supersets before subsets too."""
    _assert_same_admission(drawn[1])


@given(offer_sequences(repeats=True))
def test_reoffers_match_the_seen_set(drawn):
    """Repeated closed pairs, in an order Lemma 3.4 allows a miner to
    emit: every strict subset of an antecedent is offered before it
    (here: by size).  The walk's duplicate skip, on equal row masks,
    counts what the seen-set of item masks did."""
    _assert_same_admission(sorted(drawn[1], key=lambda c: len(c.item_ids)))


def test_admission_ties():
    """Tied confidences and tied sizes: an equal-confidence subset
    blocks, an equal-size non-subset does not, and ties keep admission
    order in the output."""
    # One row per antecedent below makes each of them closed.
    table = _table_of([[3], [1], [3, 1], [4, 3], [0], [2, 0], [5]])
    sequence = [
        _closed(table, (3,), 2, 2),  # 0.5
        _closed(table, (1,), 2, 2),  # 0.5, same size
        _closed(table, (3, 1), 1, 1),  # 0.5, blocked by both
        _closed(table, (4, 3), 3, 1),  # 0.75 beats {3}
        _closed(table, (0,), 3, 1),  # 0.75
        _closed(table, (2, 0), 3, 1),  # 0.75, blocked by {0}
        _closed(table, (5,), 1, 1),  # 0.5, no subset stored: admitted
    ]
    _assert_same_admission(sequence)
    store = _IRGStore()
    verdicts = [store.offer(candidate, NodeCounters()) for candidate in sequence]
    assert verdicts == [True, True, False, True, True, False, True]
    assert [entry[0] for entry in store._ranked()] == [
        (4, 3), (0,), (3,), (1,), (5,),
    ]


def test_reoffered_group_is_skipped_not_rejected():
    """With Pruning 2 off the same upper bound reaches the store again
    from a later node, in another table order: it is not stored twice
    and not counted as a rejection.  A rejected one is rejected again."""
    table = _table_of([[1], [3, 1], [4, 1], [3, 1, 4]])
    sequence = [
        _closed(table, (1,), 1, 1),  # 0.5
        _closed(table, (3, 1), 3, 1),  # 0.75, {1} is below it
        _closed(table, (4, 1), 3, 1),  # 0.75, tied, same chain
        _closed(table, (3, 1, 4), 1, 1),  # 0.5, blocked by {1}
    ]
    again = [
        candidate._replace(item_ids=candidate.item_ids[::-1])
        for candidate in sequence
    ]
    store, counters = _IRGStore(), NodeCounters()
    assert [store.offer(c, counters) for c in sequence] == [True, True, True, False]
    assert counters.candidates_rejected == 1
    stored = store._ranked()
    assert [store.offer(c, counters) for c in again[:3]] == [False] * 3
    assert counters.candidates_rejected == 1
    assert store._ranked() == stored
    assert not store.offer(again[3], counters)
    assert counters.candidates_rejected == 2
    _assert_same_admission(sequence + again)


# ----------------------------------------------------------------------
# Masks by reference
# ----------------------------------------------------------------------


def _table(seed=3, n_rows=70, n_items=10):
    """A table whose masks span two words and are never small cached
    ints, so ``is`` really tells the transposer's objects apart."""
    rng = random.Random(seed)
    rows = [
        [item for item in range(n_items) if rng.random() < 0.6]
        for _ in range(n_rows)
    ]
    labels = ["C" if rng.random() < 0.5 else "D" for _ in range(n_rows)]
    labels[-1] = "C"
    data = ItemizedDataset.from_lists(rows, labels, n_items=n_items)
    return TransposedTable.build(data, "C")


def _rows(table):
    return [1 << row for row in range(table.n)]


def _class_support(table):
    """Each item's positive rows, counted on its int mask."""
    positive = table.positive_mask
    return [(mask & positive).bit_count() for mask in table.item_masks]


@pytest.mark.parametrize("seed", range(3))
def test_narrow_children_hold_the_transposer_masks(seed):
    """Every child one or two rows down holds the transposer's own mask
    objects, in the root's support-descending order, with the items,
    intersection and union of the reference shims."""
    table = _table(seed)
    items = table.item_masks
    full = table.all_rows_mask
    root = CondTable.build(items, full)
    order = root.item_ids
    for first in _rows(table):
        for second in [0, *_rows(table)[::11]]:
            child = root.extend(first)
            ids, masks = extend_items(order, [items[i] for i in order], first)
            if second:
                child = child.extend(second)
                ids, masks = extend_items(ids, masks, second)
            assert child.item_ids == ids
            assert child.masks == masks
            counts = [mask.bit_count() for mask in child.masks]
            assert counts == sorted(counts, reverse=True)
            for item, mask in zip(child.item_ids, child.masks):
                assert mask == items[item]
            assert (child.inter, child.union) == scan_items(masks, full)


def test_class_support_matches_the_int_masks():
    for seed in range(4):
        table = _table(seed)
        assert table.class_support.dtype == np.int64
        assert table.class_support.tolist() == _class_support(table)
        assert not table.class_support.flags.writeable


@pytest.mark.parametrize("n_positive", [1, 63, 64, 65, 130])
def test_class_support_at_word_edges(n_positive):
    """The last positive word is full, partial, or shared with the 65
    negative rows after it, whose bits must not be counted."""
    n_rows = n_positive + 65
    rows = [[item for item in range(3) if (row + item) % 2] for row in range(n_rows)]
    labels = ["C"] * n_positive + ["D"] * 65
    data = ItemizedDataset.from_lists(rows, labels, n_items=3)
    table = TransposedTable.build(data, "C")
    assert table.class_support.tolist() == _class_support(table)


def test_class_support_stays_out_of_equality_and_survives_pickle():
    table = _table()
    other = dataclasses.replace(
        table, class_support=np.zeros_like(table.class_support)
    )
    assert other == table and hash(other) == hash(table)
    assert repr(other) == repr(table)
    clone = pickle.loads(pickle.dumps(table))
    assert clone == table
    assert clone.class_support.tolist() == table.class_support.tolist()


def test_stored_antecedent_does_not_block_itself():
    """Only a strictly smaller antecedent blocks, as the size prefilter
    of the linear scan had it: in row space, a strictly larger row set."""
    table = _table_of([[3, 1], [1, 3, 0]])
    group = _closed(table, (3, 1), 9, 1)
    superset = _closed(table, (1, 3, 0), 1, 1)
    for store in (_IRGStore(), LinearStore()):
        counters = NodeCounters()
        assert store.offer(group, counters)
        assert not store.offer(group._replace(item_ids=(1, 3)), counters)
        assert counters.candidates_rejected == 0
        assert not store.offer(superset, counters)
        assert counters.candidates_rejected == 1


# ----------------------------------------------------------------------
# Step 7 on a real walk
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def registry_tables():
    """LC, ALL and CT at scale 0.02, as the cold-mine goldens build them."""
    tables = {}
    for name in ("LC", "ALL", "CT"):
        data = EqualDepthDiscretizer(n_buckets=10).fit_transform(
            load(name, scale=0.02)
        )
        tables[name] = TransposedTable.build(data, data.class_labels[0])
    return tables


@pytest.mark.parametrize(
    "prunings", [PRUNING_SUBSETS[0], PRUNING_SUBSETS[1]], ids=["all", "p2-off"]
)
@pytest.mark.parametrize(("name", "minsup"), [("LC", 11), ("ALL", 5), ("CT", 4)])
def test_walk_candidates_admit_alike_in_row_and_item_space(
    registry_tables, name, minsup, prunings
):
    """The walk's own candidate sequence, replayed through the row-space
    store and the item-space oracle, gets the same verdicts, groups and
    rejection count.  With Pruning 2 off the sequence re-offers groups,
    which is where the equal-row-mask skip does its work."""
    table = registry_tables[name]
    ctx = SearchContext.for_table(table, Constraints(minsup=minsup), prunings)
    sequence: list[Candidate] = []
    units = [(FRONTIER_STATE, ctx.root_state(table))]
    assert enumerate_frontier(ctx, units, NodeCounters(), sequence, None) is None
    assert sequence
    for candidate in sequence:
        # The Candidate precondition: a closed pair of the table (an
        # empty antecedent would need every row, since an itemless table
        # intersects to all rows).
        assert table.rows_of_itemset(candidate.item_ids) == candidate.row_mask
        assert table.items_of_rows(candidate.row_mask) == frozenset(
            candidate.item_ids
        )
    reoffered = len(sequence) - len({c.row_mask for c in sequence})
    assert (reoffered > 0) == ("p2" not in prunings)
    _assert_same_admission(sequence)
