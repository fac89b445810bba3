"""Property tests for the packed-uint64 layout (:mod:`repro.core.npbitset`).

Every array op is pinned against the int-mask reference
(:mod:`repro.core.bitset` and plain Python int arithmetic): pack/unpack
round-trips, popcounts against ``int.bit_count``, AND/OR/subset
algebra, complement with tail-bit masking, and
:class:`~repro.core.npbitset.NumpyCondTable` against
:class:`~repro.core.kernel.CondTable` over the full protocol surface
(build order, extend, scan results, ``max_overlap``) —
including the hand-off, where a packed table's narrow child comes back
as the int-mask table the kernel would have built.

Row counts are drawn across the 64-bit word boundary (including exactly
63/64/65) so one-word, exactly-full-word, and straddling layouts are all
exercised; the degenerate end (0 rows, 0 items) is pinned explicitly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitset
from repro.core.kernel import CondTable
from repro.core.npbitset import (
    NumpyCondTable,
    complement_words,
    mask_words,
    pack_mask,
    pack_masks,
    popcount_cols,
    popcount_words,
    root_table,
    tail_mask,
    unpack_words,
    word_count,
)

# Word-boundary universes and bitset generators live in the shared
# strategies module so the conformance and scheduling suites draw the
# same shapes.
from conftest import handoff
from strategies import (  # noqa: E402  (import after module docstring)
    mask_and_rows as _mask_and_rows,
    masks_and_rows as _masks_and_rows,
    n_rows_word_boundary as _n_rows,
)


class TestPackRoundTrip:
    @given(_mask_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_round_trip(self, mask_rows):
        mask, n_rows = mask_rows
        width = word_count(n_rows)
        words = pack_mask(mask, width)
        assert words.shape == (width,)
        assert words.dtype == np.uint64
        assert unpack_words(words) == mask

    @given(_masks_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_pack_masks_rows_mirror_pack_mask(self, masks_rows):
        masks, n_rows = masks_rows
        width = word_count(n_rows)
        packed = pack_masks(masks, width)
        assert packed.shape == (len(masks), width)
        for index, mask in enumerate(masks):
            assert unpack_words(packed[index]) == mask
            assert np.array_equal(packed[index], pack_mask(mask, width))

    @pytest.mark.parametrize("n_rows", [63, 64, 65])
    def test_word_boundary_top_bit(self, n_rows):
        width = word_count(n_rows)
        assert width == (1 if n_rows <= 64 else 2)
        top = 1 << (n_rows - 1)
        assert unpack_words(pack_mask(top, width)) == top

    def test_empty_inputs(self):
        assert word_count(0) == 0
        assert unpack_words(pack_mask(0, 0)) == 0
        assert pack_masks([], 3).shape == (0, 3)


class TestPopcounts:
    @given(_masks_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_popcount_words_matches_bit_count(self, masks_rows):
        masks, n_rows = masks_rows
        packed = pack_masks(masks, word_count(n_rows))
        expected = [mask.bit_count() for mask in masks]
        assert popcount_words(packed).tolist() == expected

    @given(_masks_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_popcount_cols_is_transposed_popcount_words(self, masks_rows):
        masks, n_rows = masks_rows
        packed = pack_masks(masks, word_count(n_rows))
        columnar = np.ascontiguousarray(packed.T)
        assert popcount_cols(columnar).tolist() == [
            mask.bit_count() for mask in masks
        ]


class TestWordAlgebra:
    @given(_mask_and_rows(), st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_and_or_subset_mirror_int_ops(self, mask_rows, raw):
        mask, n_rows = mask_rows
        other = raw & ((1 << n_rows) - 1)
        width = word_count(n_rows)
        a, b = pack_mask(mask, width), pack_mask(other, width)
        assert unpack_words(a & b) == mask & other
        assert unpack_words(a | b) == mask | other
        # Subset in the packed world: a & b == a, same as the int test.
        assert bool(np.array_equal(a & b, a)) == bitset.is_subset(
            mask, other
        )

    @given(_mask_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_complement_masks_tail_bits(self, mask_rows):
        mask, n_rows = mask_rows
        width = word_count(n_rows)
        comp = complement_words(pack_mask(mask, width), n_rows)
        assert unpack_words(comp) == bitset.complement(mask, n_rows)
        # The tail bits above n_rows stay clear even after complement.
        assert unpack_words(comp) < (1 << n_rows)

    @given(_n_rows)
    @settings(max_examples=100, deadline=None)
    def test_tail_mask_is_packed_universe(self, n_rows):
        width = word_count(n_rows)
        assert unpack_words(tail_mask(n_rows, width)) == bitset.universe(
            n_rows
        )


@pytest.fixture(scope="class")
def all_packed():
    """Keep every table packed, so extend never hands off."""
    with handoff(0):
        yield


@pytest.mark.usefixtures("all_packed")
class TestNumpyCondTableEquivalence:
    """NumpyCondTable mirrors CondTable over the whole protocol surface."""

    @given(_masks_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_build_matches_kernel_table(self, masks_rows):
        masks, n_rows = masks_rows
        full = bitset.universe(n_rows)
        packed = NumpyCondTable.build(masks, full)
        kernel = CondTable.build(masks, full)
        assert len(packed) == len(kernel)
        assert packed.item_ids == kernel.item_ids
        assert mask_words(packed) == kernel.masks
        assert packed.inter == kernel.inter
        assert packed.union == kernel.union
        assert packed.full == kernel.full
        assert all(type(item) is int for item in packed.item_ids)

    @given(_masks_and_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extend_matches_kernel_table(self, masks_rows, data):
        masks, n_rows = masks_rows
        full = bitset.universe(n_rows)
        row_bit = 1 << data.draw(
            st.integers(min_value=0, max_value=n_rows - 1), label="row"
        )
        packed = NumpyCondTable.build(masks, full).extend(row_bit)
        kernel = CondTable.build(masks, full).extend(row_bit)
        assert packed.item_ids == kernel.item_ids
        assert mask_words(packed) == kernel.masks
        assert packed.inter == kernel.inter
        assert packed.union == kernel.union

    @given(_masks_and_rows(), st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    def test_max_overlap_matches_kernel_table(self, masks_rows, raw):
        masks, n_rows = masks_rows
        full = bitset.universe(n_rows)
        cand = raw & full
        packed = NumpyCondTable.build(masks, full)
        kernel = CondTable.build(masks, full)
        assert packed.max_overlap(cand) == kernel.max_overlap(cand)

    @pytest.mark.parametrize("n_rows", [63, 64, 65])
    def test_word_boundary_extend(self, n_rows):
        # An item containing only the last row: extending by that row
        # must keep exactly the items whose top bit is set.
        full = bitset.universe(n_rows)
        top = 1 << (n_rows - 1)
        masks = [full, top, full ^ top, top | 1]
        packed = NumpyCondTable.build(masks, full).extend(top)
        kernel = CondTable.build(masks, full).extend(top)
        assert packed.item_ids == kernel.item_ids == [0, 3, 1]
        assert mask_words(packed) == kernel.masks
        assert packed.inter == kernel.inter
        assert packed.union == kernel.union

    def test_empty_table_conventions(self):
        full = 0b111
        empty = NumpyCondTable.build([], full)
        assert len(empty) == 0
        assert empty.inter == full and empty.union == 0
        assert empty.max_overlap(full) == 0
        # Extend that strips every item keeps the conventions too.
        child = NumpyCondTable.build([0b001], full).extend(0b100)
        assert len(child) == 0
        assert child.inter == full and child.union == 0

    def test_pickle_round_trip(self):
        table = NumpyCondTable.build([0b0101, 0b1111, 0b0001], 0b1111)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.item_ids == table.item_ids
        assert mask_words(clone) == mask_words(table)
        assert (clone.inter, clone.union, clone.full) == (
            table.inter,
            table.union,
            table.full,
        )


def _assert_same_table(table, kernel):
    """``table`` is an int-mask CondTable equal to ``kernel`` field by
    field: ids, masks and order (its keys), and the ranking the
    early-exiting bound scan relies on."""
    assert type(table) is CondTable
    assert table.item_ids == kernel.item_ids
    assert table.masks == kernel.masks
    assert table.keys == kernel.keys
    assert table.ranked and kernel.ranked
    assert (table.inter, table.union, table.full) == (
        kernel.inter,
        kernel.union,
        kernel.full,
    )


class TestHandOff:
    """A packed table hands a narrow child over to the int-mask table."""

    @given(_masks_and_rows(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extend_hands_off_below_cutoff(self, masks_rows, data):
        masks, n_rows = masks_rows
        full = bitset.universe(n_rows)
        row_bit = 1 << data.draw(
            st.integers(min_value=0, max_value=n_rows - 1), label="row"
        )
        cutoff = data.draw(
            st.integers(min_value=1, max_value=len(masks) + 2), label="cutoff"
        )
        kernel = CondTable.build(masks, full).extend(row_bit)
        with handoff(0):
            packed = NumpyCondTable.build(masks, full)
        with handoff(cutoff):
            child = packed.extend(row_bit)
        if len(kernel) < cutoff:
            _assert_same_table(child, kernel)
        else:
            assert type(child) is NumpyCondTable
            assert child.item_ids == kernel.item_ids
            assert mask_words(child) == kernel.masks

    @pytest.mark.parametrize("n_rows", [63, 64, 65])
    def test_word_boundary_hand_off(self, n_rows):
        full = bitset.universe(n_rows)
        top = 1 << (n_rows - 1)
        masks = [full, top, full ^ top, top | 1]
        with handoff(0):
            packed = NumpyCondTable.build(masks, full)
        with handoff(4):
            child = packed.extend(top)
        _assert_same_table(child, CondTable.build(masks, full).extend(top))

    def test_empty_child_hands_off(self):
        full = 0b111
        with handoff(0):
            packed = NumpyCondTable.build([0b001, 0b011], full)
        with handoff(1):
            child = packed.extend(0b100)
        _assert_same_table(child, CondTable.build([], full))

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 4])
    def test_root_table_selects_by_width(self, cutoff):
        masks = [0b0101, 0b1111, 0b0001]
        with handoff(cutoff):
            root = root_table(masks, 0b1111)
        kernel = CondTable.build(masks, 0b1111)
        if len(masks) < cutoff:
            _assert_same_table(root, kernel)
        else:
            assert type(root) is NumpyCondTable
            assert mask_words(root) == kernel.masks
