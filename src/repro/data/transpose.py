"""Transposed tables and the ORD row ordering.

The paper's Figure 1(b) transposes the dataset: each *tuple* of the
transposed table ``TT`` is an item, holding the set of row ids that contain
it.  FARMER additionally imposes the order ORD on rows — all rows carrying
the consequent class ``C`` come *before* all rows that do not — because the
support/confidence upper bounds of Pruning Strategy 3 rely on it
(Lemmas 3.7 and 3.8).

:class:`TransposedTable` materializes both: rows are re-indexed into ORD
positions ``0 .. n-1`` (positives occupy ``0 .. m-1``) and each item's row
support set becomes a bitset over those positions.  The bitsets are built
as one items x rows boolean matrix, scattered from the dataset's
``(item, ORD position)`` pairs (:meth:`ItemizedDataset.item_positions`,
read straight off an equal-depth dataset's item matrix), each row padded
to whole 64-bit words, packed little-endian with ``np.packbits`` and read
back with one ``int.from_bytes`` per item.  While it holds the packed
words it also counts every item's positive rows, ``|R(i) ∩ pos|``, with
one vectorized popcount over the first ``ceil(m / 64)`` words
(:attr:`TransposedTable.class_support`, what the root's class-support
filter reads, :func:`repro.core.farmer._root_items`); the words
themselves are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable

import numpy as np

from ..core import bitset
from ..errors import DataError
from .dataset import ItemizedDataset

__all__ = ["TransposedTable", "ord_permutation"]

_WORD_BITS = 64

#: ``bytes.translate`` table from ASCII binary digits to 0/1 bytes.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def ord_permutation(labels: tuple[Hashable, ...], consequent: Hashable) -> list[int]:
    """Return original-row indices in ORD order (consequent rows first).

    The ordering is stable within each class, so results are deterministic
    for a given dataset.
    """
    positives = [i for i, label in enumerate(labels) if label == consequent]
    negatives = [i for i, label in enumerate(labels) if label != consequent]
    return positives + negatives


@dataclass(frozen=True)
class TransposedTable:
    """A dataset transposed and ORD-ordered for a fixed consequent.

    Attributes:
        item_masks: per item id, the bitset of ORD row positions whose row
            contains the item (the tuple ``R(i_j)`` of Figure 1(b)).
        n: total number of rows.
        m: number of rows labelled with the consequent; ORD positions
            ``0 .. m-1`` are exactly those rows.
        ord_to_original: maps an ORD position back to the original row
            index in the source :class:`ItemizedDataset`.
        consequent: the class label the table was built for.
        source: the dataset this table was derived from.
        class_support: per item id, ``|R(i_j) ∩ pos|``, the number of
            consequent rows holding the item, as one read-only int64
            array; not part of equality (an array cannot be compared
            with ``==``) or ``repr``.
        memo: values derived from the table, computed once per table
            because it never changes (e.g. the warm cache's
            :func:`~repro.core.frontier.frontier_fingerprint`); not part
            of equality.
    """

    item_masks: tuple[int, ...]
    n: int
    m: int
    ord_to_original: tuple[int, ...]
    consequent: Hashable
    source: ItemizedDataset
    class_support: np.ndarray = field(repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, dataset: ItemizedDataset, consequent: Hashable) -> "TransposedTable":
        """Transpose ``dataset`` with rows ORD-ordered for ``consequent``."""
        m = dataset.class_count(consequent)
        if m == 0:
            raise DataError(
                f"consequent {consequent!r} does not occur in dataset "
                f"{dataset.name!r} (labels: {dataset.class_labels})"
            )
        order = ord_permutation(dataset.labels, consequent)
        # Scatter (item, ORD position) pairs into an items x rows bit
        # matrix whose rows are padded to whole 64-bit words (through
        # flat indices, about twice as fast as a 2-D fancy index), pack
        # each item's row little-endian (bit p = position p) and read
        # every item's bytes as one int; the padding bytes are zero.
        items, positions = dataset.item_positions(order)
        stride = -(-len(order) // _WORD_BITS) * _WORD_BITS
        bits = np.zeros(dataset.n_items * stride, dtype=bool)
        bits[items * stride + positions] = True
        packed = np.packbits(
            bits.reshape(dataset.n_items, stride), axis=1, bitorder="little"
        )
        buffer, width = packed.tobytes(), packed.shape[1]
        from_bytes = int.from_bytes
        masks = [
            from_bytes(buffer[start : start + width], "little")
            for start in range(0, len(buffer), width)
        ]
        # Positive rows are ORD positions 0 .. m-1: count them in the
        # first ceil(m / 64) words, the last one tail-masked.
        pos_words = -(-m // _WORD_BITS)
        positive = bitset.universe(m).to_bytes(pos_words * 8, "little")
        class_support = np.bitwise_count(
            packed.view(np.uint64)[:, :pos_words]
            & np.frombuffer(positive, dtype=np.uint64)
        ).sum(axis=1, dtype=np.int64)
        class_support.flags.writeable = False
        return cls(
            item_masks=tuple(masks),
            n=dataset.n_rows,
            m=m,
            ord_to_original=tuple(order),
            consequent=consequent,
            source=dataset,
            class_support=class_support,
        )

    # ------------------------------------------------------------------
    # Masks and conversions
    # ------------------------------------------------------------------

    @property
    def positive_mask(self) -> int:
        """Bitset of all ORD positions labelled with the consequent."""
        return bitset.universe(self.m)

    @property
    def negative_mask(self) -> int:
        """Bitset of all ORD positions *not* labelled with the consequent."""
        return bitset.universe(self.n) ^ bitset.universe(self.m)

    @property
    def all_rows_mask(self) -> int:
        """Bitset of every ORD position."""
        return bitset.universe(self.n)

    def is_positive(self, position: int) -> bool:
        """Whether the ORD ``position`` carries the consequent label."""
        return position < self.m

    def rows_of_itemset(self, items) -> int:
        """``R(I')`` as a bitset of ORD positions; all rows for ``I' = ∅``."""
        mask = self.all_rows_mask
        for item in items:
            mask &= self.item_masks[item]
            if not mask:
                break
        return mask

    def items_of_rows(self, row_mask: int) -> frozenset[int]:
        """``I(R')``: items common to every row in ``row_mask``.

        For ``row_mask == 0`` this is the whole vocabulary by convention
        (the intersection over an empty family).
        """
        return frozenset(
            item
            for item, mask in enumerate(self.item_masks)
            if row_mask & mask == row_mask
        )

    def original_rows(self, row_mask: int) -> frozenset[int]:
        """Map a bitset of ORD positions back to original row indices."""
        # One C-level pass, as this runs once per output group: the
        # mask's binary digits, lowest bit first, become 0/1 bytes that
        # select from ORD order.
        digits = bin(row_mask)[:1:-1].encode().translate(_BITS)
        return frozenset(compress(self.ord_to_original, digits))

    def support_counts(self, row_mask: int) -> tuple[int, int]:
        """Split a row bitset into (positive, negative) cardinalities."""
        positives = bitset.bit_count(row_mask & self.positive_mask)
        return positives, bitset.bit_count(row_mask) - positives
