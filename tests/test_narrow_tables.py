"""The conditional table's key list against other views of ``TT|X``.

A :class:`~repro.core.kernel.CondTable` holds one key per item,
``mask | item_id << shift``.  For random tables (duplicate row masks
included) and one- and two-level extends, the child's ids, masks,
order, ``inter``, ``union`` and bound scans must equal two independent
views of the same table:

* the ``extend_items`` + ``scan_items`` reference shims over the
  root's support-descending order;
* a plain ``max`` over the shim masks, for ``max_overlap`` and
  ``observed_max_overlap``.

The registry datasets pin the same on real duplicates: PC, ALL and CT
at ``scale=0.02`` carry 1, 4 and 8 item masks that repeat an earlier
one, and both ids of a pair must survive, in table order.
"""

from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from repro.core import bitset
from repro.core.enumeration import extend_items, scan_items
from repro.core.kernel import CondTable, ScanStats
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import build_workload
from strategies import n_rows_word_boundary


@st.composite
def tables_with_duplicates(draw):
    """``(masks, n_rows, rows)``: a table where some masks repeat, and
    one or two rows to extend it by (taken from its masks when it has
    any set bits, so the children are rarely empty)."""
    n_rows = draw(n_rows_word_boundary)
    rows_of = st.sets(st.integers(min_value=0, max_value=n_rows - 1))
    masks = draw(st.lists(rows_of.map(bitset.from_indices), max_size=24))
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if masks else 0):
        copy = masks[draw(st.integers(min_value=0, max_value=len(masks) - 1))]
        masks.insert(draw(st.integers(min_value=0, max_value=len(masks))), copy)
    union = 0
    for mask in masks:
        union |= mask
    pool = bitset.to_indices(union) or list(range(n_rows))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    return masks, n_rows, rows


def _shim_child(masks, full, rows):
    """``(ids, masks, inter, union)`` of ``TT|rows`` by the shims, from
    the root's support-descending, id-ascending order."""
    order = sorted(range(len(masks)), key=lambda item: (-masks[item].bit_count(), item))
    ids, kept = order, [masks[item] for item in order]
    for row in rows:
        ids, kept = extend_items(ids, kept, 1 << row)
    inter, union = scan_items(kept, full)
    return ids, kept, inter, union


def _extend(table, rows):
    for row in rows:
        table = table.extend(1 << row)
    return table


def _assert_duplicates_survive(masks, ids):
    """Items with equal masks are all in the child or all out of it,
    and in id order when in."""
    by_mask = defaultdict(list)
    for item, mask in enumerate(masks):
        by_mask[mask].append(item)
    position = {item: index for index, item in enumerate(ids)}
    for group in by_mask.values():
        if len(group) < 2:
            continue
        kept = [item for item in group if item in position]
        assert kept in ([], group)
        assert [position[item] for item in kept] == sorted(
            position[item] for item in kept
        )


@given(tables_with_duplicates(), st.data())
def test_narrow_child_matches_every_view(table, data):
    masks, n_rows, rows = table
    full = bitset.universe(n_rows)
    # Few candidate rows, so the saturating early exit is exercised too.
    cand = bitset.from_indices(
        data.draw(
            st.sets(st.integers(min_value=0, max_value=n_rows - 1), max_size=4),
            label="cand",
        )
    )
    shim_ids, shim_masks, shim_inter, shim_union = _shim_child(masks, full, rows)
    naive = max(((mask & cand).bit_count() for mask in shim_masks), default=0)
    _assert_duplicates_survive(masks, shim_ids)
    child = _extend(CondTable.build(masks, full), rows)
    assert child.item_ids == shim_ids
    assert child.masks == shim_masks
    assert child.keys == [
        mask | item << n_rows for item, mask in zip(shim_ids, shim_masks)
    ]
    assert (child.inter, child.union) == (shim_inter, shim_union)
    assert child.max_overlap(cand) == naive
    stats = ScanStats()
    assert child.observed_max_overlap(stats, cand) == naive
    # The walk counts scans and table rows; the table, early exits.
    assert (stats.bound_scans, stats.bound_rows_total) == (0, 0)
    assert 0 <= stats.bound_rows_skipped < max(len(shim_ids), 1)
    assert stats.bound_early_exits in (0, 1)


@pytest.mark.parametrize(
    "dataset, duplicates", [("PC", 1), ("ALL", 4), ("CT", 8)]
)
# The three variant ids are the hand-off cutoffs this test once forced;
# each now builds the one representation.
@pytest.mark.parametrize("variant", [1, 128, 1 << 30])
def test_duplicate_masks_keep_both_ids(dataset, duplicates, variant):
    workload = build_workload(dataset, scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    masks = table.item_masks
    full = table.all_rows_mask
    by_mask = defaultdict(list)
    for item, mask in enumerate(masks):
        by_mask[mask].append(item)
    groups = [group for group in by_mask.values() if len(group) > 1]
    assert sum(len(group) - 1 for group in groups) == duplicates
    root = CondTable.build(masks, full)
    for group in groups:
        rows = bitset.to_indices(masks[group[0]])
        for path in (rows[:1], rows[:2], rows[-2:]):
            child = _extend(root, path)
            ids = child.item_ids
            kept = [ids.index(item) for item in group]
            assert kept == sorted(kept)
            shim_ids, shim_masks, inter, union = _shim_child(masks, full, path)
            assert ids == shim_ids
            assert (child.inter, child.union) == (inter, union)
            assert child.masks == shim_masks


def test_bound_scan_runs_past_a_partial_overlap():
    """The ranked scan stops on saturation only: a larger tuple that
    holds one of two candidate rows does not end it."""
    table = CondTable.build([0b0111, 0b1001], 0b1111)
    assert table.masks == [0b0111, 0b1001]
    assert table.max_overlap(0b1001) == 2
    stats = ScanStats()
    assert table.observed_max_overlap(stats, 0b1001) == 2
    assert stats.bound_rows_skipped == 0
    assert stats.bound_early_exits == 1
