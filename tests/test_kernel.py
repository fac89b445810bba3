"""Tests for the fused enumeration kernel (:mod:`repro.core.kernel`).

Two layers of assurance:

* unit tests for the kernel primitives (``CondTable`` extends, scans and
  bound scans, COBBLER's closure cache), including the strict-zip
  corruption regression;
* a hypothesis property pinning a caller-order table's ``extend``
  extensionally equal to the pre-kernel ``extend_items`` +
  ``scan_items`` composition.

The engine differential — every registered engine serializing
byte-identically to the kernel across constraints, prunings, shapes,
sharded and stealing runs — lives in
``test_engine_conformance.py``; ``test_narrow_tables.py`` holds the
table's key list against the shims.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitset
from repro.core.enumeration import extend_items, scan_items
from repro.core.kernel import ClosureCache, CondTable
from repro.errors import DataError


def _caller_order(item_ids, masks, full):
    """The table holding ``masks`` under ``item_ids``, in that order."""
    item_masks = [0] * (max(item_ids, default=-1) + 1)
    for item, mask in zip(item_ids, masks, strict=True):
        item_masks[item] = mask
    return CondTable.build(item_masks, full, item_ids, by_support=False)


def _extend(item_ids, masks, row_bit, full):
    """``(ids, masks, inter, union)`` of a caller-order table's child."""
    child = _caller_order(item_ids, masks, full).extend(row_bit)
    return child.item_ids, child.masks, child.inter, child.union


# ---------------------------------------------------------------------------
# CondTable.extend on caller-ordered tables
# ---------------------------------------------------------------------------


class TestExtendAndScan:
    def test_filters_and_scans_in_one_pass(self):
        ids, masks, inter, union = _extend(
            [3, 7, 9], [0b011, 0b110, 0b101], row_bit=0b001, full=0b111
        )
        assert ids == [3, 9]
        assert masks == [0b011, 0b101]
        assert inter == 0b001
        assert union == 0b111

    def test_empty_table(self):
        ids, masks, inter, union = _extend([], [], 0b1, 0b111)
        assert (ids, masks) == ([], [])
        assert inter == 0b111  # empty-intersection convention
        assert union == 0

    def test_zero_row_bit_selects_nothing(self):
        ids, masks, inter, union = _extend([1, 2], [0b01, 0b10], 0, 0b11)
        assert (ids, masks, union) == ([], [], 0)
        assert inter == 0b11

    def test_mask_outside_the_rows_is_data_error(self):
        # Row 2 would land in the key's id bits (shift 2 for rows 0b11).
        for build in (
            lambda: CondTable.build([0b01, 0b101], 0b11, by_support=False),
            lambda: CondTable.build([0b01, 0b101], 0b11),
        ):
            with pytest.raises(DataError, match="outside the table's row set"):
                build()


class TestStrictZipRegression:
    """A corrupt table (ids/masks lengths diverged) must fail loudly.

    Before the strict-zip fix, ``extend_items`` silently truncated to the
    shorter list — dropping items from conditional tables without a trace.
    """

    def test_extend_items_raises_on_mismatch(self):
        with pytest.raises(DataError, match="differ in length"):
            extend_items([1, 2, 3], [0b1, 0b1], 0b1)

    def test_extend_items_mismatch_other_direction(self):
        with pytest.raises(DataError, match="differ in length"):
            extend_items([1], [0b1, 0b1, 0b1], 0b1)

    def test_extend_items_equal_lengths_unaffected(self):
        assert extend_items([1, 2], [0b01, 0b11], 0b10) == ([2], [0b11])


# ---------------------------------------------------------------------------
# Property: fused == composition of the reference shims
# ---------------------------------------------------------------------------

_masks = st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=16)
_full = st.integers(min_value=0, max_value=12).map(bitset.universe)


class TestFusedEqualsComposition:
    """Row masks are subsets of the table's ``full`` mask and the row
    extending it is one of its rows (the item id sits in the bits above
    them), so each drawn mask is clipped to ``full`` and the row drawn
    below its width."""

    @given(masks=_masks, full=_full.filter(bool), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_extensionally_equal(self, masks, full, data):
        masks = [mask & full for mask in masks]
        item_ids = list(range(100, 100 + len(masks)))
        row_bit = 1 << data.draw(
            st.integers(min_value=0, max_value=full.bit_length() - 1),
            label="row",
        )
        ref_ids, ref_masks = extend_items(item_ids, masks, row_bit)
        ref_inter, ref_union = scan_items(ref_masks, full)
        assert _extend(item_ids, masks, row_bit, full) == (
            ref_ids,
            ref_masks,
            ref_inter,
            ref_union,
        )

    @given(full=_full)
    @settings(max_examples=20, deadline=None)
    def test_empty_table_edge(self, full):
        ref_inter, ref_union = scan_items([], full)
        assert _extend([], [], 0b1, full) == ([], [], ref_inter, ref_union)

    @given(masks=_masks, full=_full)
    @settings(max_examples=50, deadline=None)
    def test_empty_mask_edge(self, masks, full):
        # row_bit = 0 selects nothing; the composition agrees.
        masks = [mask & full for mask in masks]
        item_ids = list(range(len(masks)))
        ref_ids, ref_masks = extend_items(item_ids, masks, 0)
        ref_inter, ref_union = scan_items(ref_masks, full)
        assert _extend(item_ids, masks, 0, full) == (
            ref_ids,
            ref_masks,
            ref_inter,
            ref_union,
        )


# ---------------------------------------------------------------------------
# CondTable.max_overlap
# ---------------------------------------------------------------------------


class TestMaxCandidateOverlap:
    @given(
        masks=_masks,
        cand=st.integers(min_value=0, max_value=2**12 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_early_exit_equals_naive_max(self, masks, cand):
        full = bitset.universe(12)
        by_support = CondTable.build(masks, full)
        caller_order = CondTable.build(masks, full, by_support=False)
        naive = max((m & cand).bit_count() for m in masks) if masks else 0
        assert by_support.max_overlap(cand) == naive
        assert caller_order.max_overlap(cand) == naive

    def test_empty_table(self):
        assert CondTable.build([], 0b111).max_overlap(0b111) == 0
        assert CondTable.build([], 0b111, by_support=False).max_overlap(0b111) == 0

    def test_saturation_stops_early(self):
        # First tuple covers every candidate; later garbage is never read.
        table = CondTable([0b1111, "not a key"], 0b1111, 0b1111, 0b1111)
        assert table.max_overlap(0b0011) == 2


# ---------------------------------------------------------------------------
# CondTable
# ---------------------------------------------------------------------------


class TestCondTable:
    MASKS = [0b0101, 0b1111, 0b0001, 0b1011]  # supports 2, 4, 1, 3

    def test_build_sorts_by_support_descending(self):
        table = CondTable.build(self.MASKS, 0b1111)
        assert table.item_ids == [1, 3, 0, 2]
        assert table.masks == [0b1111, 0b1011, 0b0101, 0b0001]
        assert table.keys == [
            mask | item << 4 for item, mask in zip(table.item_ids, table.masks)
        ]

    def test_build_ties_break_by_item_id(self):
        table = CondTable.build([0b10, 0b01, 0b11], 0b11)
        assert table.item_ids == [2, 0, 1]

    def test_build_scan_results(self):
        table = CondTable.build(self.MASKS, 0b1111)
        assert table.inter == 0b0001
        assert table.union == 0b1111
        assert table.full == 0b1111
        assert len(table) == 4

    def test_extend_preserves_order_and_counts(self):
        table = CondTable.build(self.MASKS, 0b1111)
        child = table.extend(0b0100)  # row 2: masks with bit 2 set
        assert child.item_ids == [1, 0]
        assert child.masks == [0b1111, 0b0101]
        assert child.keys == [table.keys[0], table.keys[2]]
        assert child.inter == 0b0101
        assert child.union == 0b1111
        assert child.full == 0b1111

    def test_empty_build_and_extend(self):
        table = CondTable.build([], 0b11)
        assert table.inter == 0b11 and table.union == 0
        child = CondTable.build([0b01], 0b11).extend(0b10)
        assert len(child) == 0
        assert child.inter == 0b11  # empty-intersection convention

    def test_item_ids_are_plain_ints(self):
        """The walker builds a candidate's item mask from ``item_ids``."""
        table = CondTable.build(self.MASKS, 0b1111)
        child = table.extend(0b0100)
        for ids, mask in ((table.item_ids, 0b1111), (child.item_ids, 0b0011)):
            assert all(type(item) is int for item in ids)
            assert bitset.from_indices(tuple(ids)) == mask

    def test_reference_table_keeps_caller_order(self):
        table = _caller_order([5, 1, 9], [0b1, 0b11, 0b1], 0b11)
        assert table.item_ids == [5, 1, 9]
        assert table.masks == [0b1, 0b11, 0b1]
        assert (table.inter, table.union) == scan_items([0b1, 0b11, 0b1], 0b11)

    def test_reference_extend_stays_reference(self):
        table = _caller_order([5, 1], [0b01, 0b11], 0b11)
        child = table.extend(0b01)
        assert child.item_ids == [5, 1]
        assert child.inter == 0b01 and child.union == 0b11

    def test_pickle_round_trip(self):
        table = CondTable.build(self.MASKS, 0b1111)
        clone = pickle.loads(pickle.dumps(table))
        assert [getattr(clone, slot) for slot in CondTable.__slots__] == [
            getattr(table, slot) for slot in CondTable.__slots__
        ]

    def test_max_overlap_delegates(self):
        table = CondTable.build(self.MASKS, 0b1111)
        assert table.max_overlap(0b1100) == 2


# ---------------------------------------------------------------------------
# Closure cache
# ---------------------------------------------------------------------------


class TestClosureCache:
    def test_hit_miss_accounting(self):
        cache = ClosureCache()
        assert cache.get(0b101) is None
        assert cache.put(0b101, (item for item in (2, 5))) == (2, 5)
        assert cache.get(0b101) == (2, 5)
        assert (cache.hits, cache.misses) == (1, 1)


# The engine differential (kernel vs reference vs numpy, byte for byte)
# lives in test_engine_conformance.py — shared machinery that every
# registered engine runs through automatically.
