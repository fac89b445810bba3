"""Packed-uint64 conditional tables and the hand-off to int masks.

:mod:`repro.core.bitset` represents a row set over ``n`` rows as one
arbitrary-precision Python int with bit ``k`` standing for row ``k``.
This module is the vectorized counterpart: the same row set packed into
``w = ceil(n / 64)`` little-endian ``uint64`` words, and a conditional
transposed table of ``k`` item masks packed columnar into one
C-contiguous ``(w + 1, k)`` array (one item per column; the loose
helpers like :func:`pack_masks` use the row-per-mask ``(k, w)``
orientation).  The two representations are exact mirrors —
``pack_mask`` / ``unpack_words`` round-trip through ``int.to_bytes`` /
``int.from_bytes`` with byte order ``"little"``, so word ``k // 64`` bit
``k % 64`` is int bit ``k`` — and the hypothesis suite in
``tests/test_npbitset.py`` pins every array op here against the int-mask
reference.

FARMER's per-node work is the conditional table ``TT|X`` (Lemma 3.3).
It holds every item at the root and shrinks quickly with depth, so a
search is wide near the root and narrow in its deep tail.  Packed words
win while a table is wide (one vectorized pass per extend and per bound
scan); the kernel's keyed int masks
(:class:`~repro.core.kernel.CondTable`) win once it is narrow (one
filter comprehension per extend, an early-exiting bound scan and no
array dispatch).  The production engine therefore follows
the table: :func:`root_table` builds the root on whichever side of
:data:`HANDOFF_ITEMS` it falls, and :meth:`NumpyCondTable.extend` hands
a child narrower than that over to the int-mask table, which stays
int masks from there down.  The hand-off decodes no words: every
packed table carries the root's int masks indexed by item id (shared by
reference from the root down), so a narrow child builds its keys
(``mask | item_id << shift``) from its item ids.  Both tables implement
:class:`~repro.core.kernel.CondTableProtocol` with the same item order
and the same int scan results, so the hand-off changes work, never
output.

Popcounts are batched through ``np.bitwise_count`` (NumPy 2.0+).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernel import CondTable

__all__ = [
    "HANDOFF_ITEMS",
    "NumpyCondTable",
    "complement_words",
    "mask_words",
    "pack_mask",
    "pack_masks",
    "popcount_cols",
    "popcount_words",
    "root_table",
    "tail_mask",
    "unpack_words",
    "word_count",
]

_WORD_BITS = 64
_WORD_BYTES = 8

#: Item count below which a conditional table is held as int masks
#: rather than packed words: :func:`root_table` builds a narrower root
#: as a :class:`~repro.core.kernel.CondTable`, and
#: :meth:`NumpyCondTable.extend` converts a narrower child.  Measured on
#: the perf gate's LC sweeps (``docs/performance.md``); not an option.
#: ``0`` keeps every table packed and a huge value keeps every table as
#: int masks, which is how tests and the gate force either side.
HANDOFF_ITEMS = 128


def word_count(n_rows: int) -> int:
    """How many uint64 words a row set over ``n_rows`` rows packs into."""
    return (n_rows + _WORD_BITS - 1) // _WORD_BITS


def pack_mask(mask: int, width: int) -> np.ndarray:
    """One int row mask as a ``(width,)`` little-endian uint64 array.

    Args:
        mask: non-negative int bitset (bit ``k`` = row ``k``).
        width: word count of the packed layout (``word_count(n_rows)``).

    Returns:
        A read-only ``(width,)`` uint64 array; word ``k // 64`` holds int
        bits ``64k .. 64k+63``.
    """
    return np.frombuffer(
        mask.to_bytes(width * _WORD_BYTES, "little"), dtype=np.uint64
    )


def pack_masks(masks: Sequence[int], width: int) -> np.ndarray:
    """Many int row masks as one C-contiguous ``(len(masks), width)`` array.

    Args:
        masks: non-negative int bitsets.
        width: word count of the packed layout.

    Returns:
        A writable ``(len(masks), width)`` uint64 array, one row per mask.
    """
    if not len(masks):
        return np.zeros((0, width), dtype=np.uint64)
    payload = b"".join(
        mask.to_bytes(width * _WORD_BYTES, "little") for mask in masks
    )
    packed = np.frombuffer(payload, dtype=np.uint64).reshape(
        len(masks), width
    )
    return packed.copy()


def unpack_words(words: np.ndarray) -> int:
    """The int row mask of one packed ``(width,)`` word vector.

    Exact inverse of :func:`pack_mask` (pinned by the property suite).
    """
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


def tail_mask(n_rows: int, width: int) -> np.ndarray:
    """The packed all-rows mask: valid bits set, tail bits clear.

    The last word of a packed row set over ``n_rows`` rows has
    ``64 * width - n_rows`` bits that correspond to no row; complement
    must never set them (:func:`complement_words`).

    Args:
        n_rows: number of real rows.
        width: word count of the packed layout.

    Returns:
        ``pack_mask((1 << n_rows) - 1, width)``, computed wordwise.
    """
    return pack_mask((1 << n_rows) - 1, width)


def complement_words(words: np.ndarray, n_rows: int) -> np.ndarray:
    """Bitwise complement within the ``n_rows`` universe (tail-masked).

    Args:
        words: packed ``(..., width)`` row sets.
        n_rows: universe size; bits at or above it stay clear.

    Returns:
        ``~words`` with the tail bits of the last word forced to zero —
        the packed mirror of :func:`repro.core.bitset.complement`.
    """
    return ~words & tail_mask(n_rows, words.shape[-1])


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-mask popcounts via ``np.bitwise_count``.

    Args:
        words: ``(..., width)`` packed row sets.

    Returns:
        int64 array of shape ``words.shape[:-1]``: total set bits per
        packed row set.
    """
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def popcount_cols(words: np.ndarray) -> np.ndarray:
    """Per-column popcounts of a ``(width, k)`` word-row array.

    The transposed-layout counterpart of :func:`popcount_words`: column
    ``i`` holds one packed row set spread down the rows, so the sum runs
    over axis 0.

    Args:
        words: ``(width, k)`` array, one packed row set per column.

    Returns:
        int64 array of shape ``(k,)``: total set bits per column.
    """
    return np.bitwise_count(words).sum(axis=0, dtype=np.int64)


class NumpyCondTable:
    """A conditional transposed table on the packed-uint64 layout.

    The wide-table implementation of
    :class:`~repro.core.kernel.CondTableProtocol`.  All per-item state
    lives in one C-contiguous uint64 array ``data`` of shape
    ``(width + 1, k)``: item ``i`` is column ``i``, with its packed row
    mask spread down rows ``0..width-1`` and its item id in row
    ``width``.  The transposed ("columnar") orientation makes the hot
    operations walk contiguous memory: extending to a child table is one
    :func:`np.compress` along axis 1, and the AND/OR reductions for the
    child's intersection/union run along contiguous word rows.
    ``inter``/``union``/``full`` are plain Python ints (converted at the
    table boundary), which keeps every consumer of the protocol —
    witness math, class splits, candidate row masks — byte-identical
    to the int-mask table.

    Item order is support-descending with item-id ties ascending, the
    exact :meth:`~repro.core.kernel.CondTable.build` order, inherited by
    children through filtering (and across the hand-off); candidates
    therefore serialize identically either way.  The Pruning-3 bound
    scan (:meth:`max_overlap`) is one vectorized AND + popcount + max
    over the whole table, so no per-column popcounts are kept.

    ``item_masks`` are the root's int masks indexed by item id, shared
    by reference with every packed descendant: the hand-off to
    :class:`~repro.core.kernel.CondTable` builds a narrow child's keys
    from them by id instead of decoding its words.

    A run's root table is handed to every worker process once, through
    the pool initializer; ``data`` is a plain ndarray and the rest are
    ints and sequences of ints, so default pickling round-trips.
    """

    __slots__ = ("data", "width", "inter", "union", "full", "item_masks")

    def __init__(
        self,
        data: np.ndarray,
        width: int,
        inter: int,
        union: int,
        full: int,
        item_masks: Sequence[int],
    ) -> None:
        self.data = data
        self.width = width
        self.inter = inter
        self.union = union
        self.full = full
        self.item_masks = item_masks

    def __len__(self) -> int:
        return self.data.shape[1]

    @property
    def item_ids(self) -> list[int]:
        """Item ids in table order, as plain Python ints.

        Read at candidate emission and by the tracer — a small fraction
        of visited nodes — so the row-to-list conversion is paid rarely
        and never on the per-node hot path.
        """
        return self.data[self.width].tolist()

    @classmethod
    def build(
        cls,
        item_masks: Sequence[int],
        full_mask: int,
        words: np.ndarray | None = None,
        ids: np.ndarray | None = None,
    ) -> "NumpyCondTable":
        """The packed root table, support-sorted and scanned.

        Mirrors :meth:`repro.core.kernel.CondTable.build` exactly —
        same order (support descending, item id ascending), same
        intersection/union values — on the packed layout.

        Args:
            item_masks: per-item row bitsets in item-id order; kept by
                reference as :attr:`item_masks`.
            full_mask: bitset of all rows (``(1 << n_rows) - 1``).
            words: ``item_masks`` already packed, as
                :func:`pack_masks` would (the transposer's
                :attr:`~repro.data.transpose.TransposedTable.packed_words`);
                ``None`` packs them here.
            ids: the ascending item ids the table holds (one column
                ``compress`` of ``words``); ``None`` holds every item.

        Returns:
            The fully scanned root table.
        """
        width = word_count(full_mask.bit_count())
        if words is None:
            kept = item_masks if ids is None else [item_masks[i] for i in ids]
            words = pack_masks(kept, width)
        elif ids is not None:
            words = words[ids]
        ids = np.arange(len(item_masks)) if ids is None else np.asarray(ids)
        if not len(ids):
            data = np.zeros((width + 1, 0), dtype=np.uint64)
            return cls(data, width, full_mask, 0, full_mask, item_masks)
        counts = popcount_words(words)
        # Stable sort on descending count == (-count, id) lexicographic.
        order = np.argsort(-counts, kind="stable")
        data = np.empty((width + 1, len(ids)), dtype=np.uint64)
        data[:width] = words[order].T
        data[width] = ids[order]
        inter = unpack_words(np.bitwise_and.reduce(words, axis=0)) & full_mask
        union = unpack_words(np.bitwise_or.reduce(words, axis=0))
        return cls(data, width, inter, union, full_mask, item_masks)

    def extend(
        self, row_bit: int, region: int = 0, minsup: int = 0
    ) -> "NumpyCondTable | CondTable":
        """The child table ``TT|X∪{r}`` — one selection, one fused scan.

        The packed mirror of :meth:`repro.core.kernel.CondTable.extend`:
        select the items whose mask contains the row (one
        :func:`np.compress` over columns; a nonzero AND result is the
        membership test) and, when ``minsup`` is set, that hold at least
        ``minsup`` rows of ``region`` (one batched popcount over the
        words below ``region``'s highest row, which for FARMER's
        positive-row regions are the first ``ceil(m / 64)``), then
        AND/OR-reduce the survivors' contiguous word rows for the
        child's intersection and union.  Order is preserved by the
        selection.  A child with fewer than :data:`HANDOFF_ITEMS` items
        (counted after the filter) is returned as the equivalent
        int-mask :class:`~repro.core.kernel.CondTable`, gathered by item
        id from :attr:`item_masks`.

        Args:
            row_bit: the one-bit mask of the row ``r``.
            region: the rows the class-support filter counts.
            minsup: keep only the items holding at least this many rows
                of ``region``; ``0`` keeps every item holding ``r``.

        Returns:
            The child table, packed or handed off by its item count.
        """
        row = row_bit.bit_length() - 1
        word_index, bit_index = divmod(row, _WORD_BITS)
        data = self.data
        keep = data[word_index] & np.uint64(1 << bit_index)
        if minsup:
            words = word_count(region.bit_length())
            positive = pack_mask(region, words)[:, None]
            counts = popcount_cols(data[:words] & positive)
            keep = (counts >= minsup) & (keep != 0)
        # ndarray.compress, not np.compress: same op, no dispatch shim —
        # this is the hottest allocation on the packed side.
        selected = data.compress(keep, axis=1)
        width = self.width
        size = selected.shape[1]
        if not size:
            if HANDOFF_ITEMS > 0:
                return CondTable([], self.full, 0, self.full)
            return NumpyCondTable(
                selected, width, self.full, 0, self.full, self.item_masks
            )
        words = selected[:width]
        # Reduce outputs are fresh contiguous arrays; convert straight
        # from their bytes (the unpack_words fast path, inlined).
        inter = int.from_bytes(
            np.bitwise_and.reduce(words, axis=1).tobytes(), "little"
        )
        union = int.from_bytes(
            np.bitwise_or.reduce(words, axis=1).tobytes(), "little"
        )
        if size < HANDOFF_ITEMS:
            return CondTable.gather(
                self.item_masks, selected[width].tolist(), inter, union,
                self.full,
            )
        return NumpyCondTable(
            selected, width, inter, union, self.full, self.item_masks
        )

    def max_overlap(self, cand_mask: int) -> int:
        """``MAX(|cand ∩ t|)`` over the tuples, as one vectorized pass.

        AND the packed candidate mask against every tuple at once, batch
        the popcounts, take the max — the whole-candidate-list
        replacement for the kernel's early-exiting scan, same value.
        """
        data = self.data
        if not data.shape[1]:
            return 0
        width = self.width
        cand = np.frombuffer(
            cand_mask.to_bytes(width * _WORD_BYTES, "little"), dtype=np.uint64
        )
        overlaps = popcount_cols(data[:width] & cand[:, None])
        return int(overlaps.max())

    def observed_max_overlap(self, stats, cand_mask: int) -> int:
        """:meth:`max_overlap`, which has no early exit to account.

        The vectorized scan always touches every tuple, so it adds
        nothing to ``stats``: the walk counts the scan and the table's
        length (:func:`~repro.core.farmer.enumerate_frontier`), which
        is the whole of the packed table's cost model in the
        ``kernel.bound_*`` telemetry.

        Args:
            stats: the walk's :class:`~repro.core.kernel.ScanStats`,
                left as it is.
            cand_mask: candidate row bitset, as in :meth:`max_overlap`.

        Returns:
            ``MAX(|cand ∩ t|)`` over the tuples.
        """
        return self.max_overlap(cand_mask)


def root_table(
    item_masks: Sequence[int],
    full_mask: int,
    words: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> "NumpyCondTable | CondTable":
    """The production engine's root table.

    Packed words when the root has at least :data:`HANDOFF_ITEMS` items,
    the int-mask :class:`~repro.core.kernel.CondTable` otherwise; the
    two carry the same order and scan results.  FARMER's
    :meth:`~repro.core.farmer.SearchContext.root_state` (over the items
    that can reach ``minsup``) and CARPENTER (over every item) both
    build their roots here, so the representation decision lives in
    this module alone.

    Args:
        item_masks: per-item row bitsets in item-id order.
        full_mask: bitset of all rows (``(1 << n_rows) - 1``).
        words: ``item_masks`` already packed, for a packed root (see
            :meth:`NumpyCondTable.build`); ``None`` packs them if needed.
        ids: the ascending item ids the root holds; ``None`` holds
            every item.  Ids are kept as they are, so candidates name
            the table's own items.

    Returns:
        The fully scanned root table.
    """
    size = len(item_masks) if ids is None else len(ids)
    if size < HANDOFF_ITEMS:
        return CondTable.build(item_masks, full_mask, ids)
    return NumpyCondTable.build(item_masks, full_mask, words, ids)


def mask_words(table: NumpyCondTable) -> list[int]:
    """The table's row masks as ints, in table order (test/debug helper).

    Args:
        table: a packed conditional table.

    Returns:
        One int bitset per item, matching the kernel table's ``masks``
        at the same node.
    """
    width = table.width
    return [
        unpack_words(table.data[:width, index])
        for index in range(table.data.shape[1])
    ]
