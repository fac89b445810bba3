"""Fused enumeration kernel: the single-pass hot path of row enumeration.

Every row-enumeration miner in this package (FARMER, CARPENTER, COBBLER)
spends almost all of its time doing the same three things at each node of
the Figure 3 search tree:

* extending the conditional transposed table ``TT|X`` to ``TT|X∪{r}``
  (Lemma 3.3 — keep the items whose row mask contains bit ``r``),
* scanning the resulting table for the intersection and union of its
  tuples (the intersection *is* ``R(I(X∪{r}))``), and
* bounding the best rule reachable below the node (Pruning Strategy 3).

The pre-kernel implementation (kept as reference shims in
:mod:`repro.core.enumeration` — :func:`~repro.core.enumeration.extend_items`
followed by :func:`~repro.core.enumeration.scan_items`) walks each table
two to three times per node in separate Python loops.  This module fuses
and, where possible, *skips* that work:

* :class:`CondTable` is a conditional table held as one list of keys,
  each an item's row mask with its item id in the bits above the rows.
  Extending it is one filter comprehension plus one AND/OR pass over
  the survivors, which computes the child's scan results
  (``inter``/``union``) as it is built.  Its support-descending item
  order lets Pruning-3 bound scans (:meth:`CondTable.max_overlap`) stop
  early instead of walking every tuple;
* :class:`ScanStats` counts, on an observed walk, how far those bound
  scans walk (the per-node bounds themselves are constant-time
  arithmetic on the node's counts, evaluated inline by the walk);
* :class:`ClosureCache` memoizes closure *itemsets* keyed by their
  row-set int (used by COBBLER's column mode, where the global closure
  ``I(T)`` of a projected tid-set is provably projection-independent).

Item order inside a :class:`CondTable` is an implementation detail: every
consumer of the kernel reduces itemsets to frozensets or bitmasks before
they become output, so the support-descending order changes *work*, never
results — the differential suite pins byte-identical ``.irgs`` output
against the reference shims and the brute-force oracle.

:class:`CondTable` is the production engine's representation of a
*narrow* table: wide ones are packed words
(:class:`~repro.core.npbitset.NumpyCondTable`), which hand their narrow
children over to this class (:data:`~repro.core.npbitset.HANDOFF_ITEMS`).
Miners accept ``engine="reference"`` to run the pre-kernel cost model
(every visited node's table built eagerly in the dataset's item order,
unranked so bound scans are full) for differential testing and the
committed perf gate (``benchmarks/perf_gate.py``).
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from ..errors import DataError
from .enumeration import scan_items

__all__ = [
    "CondTable",
    "CondTableProtocol",
    "ScanStats",
    "ClosureCache",
]


@runtime_checkable
class CondTableProtocol(Protocol):
    """The conditional-table seam both table representations implement.

    :func:`repro.core.farmer.enumerate_frontier` (the one walk every
    FARMER mine runs) and the baselines never touch a table's
    representation — they consume exactly this surface, so a table is
    free to store its tuples as keyed int masks (:class:`CondTable`) or packed
    uint64 arrays (:class:`~repro.core.npbitset.NumpyCondTable`), and to
    change from one to the other in :meth:`extend`, as long as the scan
    results are plain ints and the item order matches the kernel's
    support-descending build order (candidates must serialize
    byte-identically whatever the representation).

    Attributes:
        inter: tuple intersection as an int row mask (``full`` when the
            table is empty).
        union: tuple union as an int row mask.
        full: the all-rows mask, the empty-intersection convention.
    """

    inter: int
    union: int
    full: int

    @property
    def item_ids(self) -> Sequence[int]:
        """Item ids in table order (plain Python ints)."""
        ...

    def __len__(self) -> int:
        ...

    def extend(self, row_bit: int) -> "CondTableProtocol":
        """The child table ``TT|X∪{r}``, scanned (Lemma 3.3 + scan)."""
        ...

    def max_overlap(self, cand_mask: int) -> int:
        """``MAX(|cand ∩ t|)`` over this table's tuples (Lemma 3.7)."""
        ...

    def observed_max_overlap(self, stats: "ScanStats", cand_mask: int) -> int:
        """:meth:`max_overlap` plus early-exit telemetry on ``stats``."""
        ...


def _check_rows(union: int, full_mask: int) -> None:
    """Refuse row masks with rows outside ``full_mask``.

    A key keeps its item id just above ``full_mask``'s highest row, so
    a mask bit there would land in the id bits and come back as a wrong
    id and mask, with no error.  Checked once per root table, on the
    union of its masks.

    Raises:
        DataError: if ``union`` has a bit outside ``full_mask``.
    """
    if union & ~full_mask:
        raise DataError(
            "conditional table corrupt: a row mask has rows outside the "
            "table's row set"
        )


class CondTable:
    """A conditional transposed table as one list of keyed row masks.

    The kernel's working representation of ``TT|X``: one int *key* per
    item, ``mask | item_id << shift`` with ``shift = full.bit_length()``
    (the row count), so a key's low bits are the item's row-support
    bitset and its high bits its id.  Because ``TT|X`` is exactly the
    items whose mask contains ``X``, a key carries everything the table
    needs of its item, and a child table is one filter over the
    parent's keys.  Besides ``keys`` a table holds

    * ``inter`` / ``union`` — the tuple intersection and union, computed
      when the table is built (the intersection over an empty table is
      ``full`` by convention);
    * ``full`` — the all-rows mask, which also splits a key into its
      mask (``key & full``) and its id (``key >> full.bit_length()``);
    * ``ranked`` — whether ``keys`` are in support-descending order (ties
      by item id), whose bound scans stop early (:meth:`max_overlap`).

    ``item_ids`` and ``masks`` are derived from the keys on read (at
    candidate emission, by the tracer and by COBBLER's column mode).
    Reference-engine tables (:meth:`reference`) keep the caller's item
    order with ``ranked=False``, so their bound scans walk every tuple;
    extending a table keeps its ``ranked`` flag.

    Instances are shared between sibling :class:`~repro.core.farmer.NodeState`
    values, and a run's root table is handed to every worker process
    once; everything on them is plain ints and lists, so they pickle
    with the default protocol.
    """

    __slots__ = ("keys", "inter", "union", "full", "ranked")

    def __init__(
        self,
        keys: list[int],
        inter: int,
        union: int,
        full: int,
        ranked: bool = True,
    ) -> None:
        self.keys = keys
        self.inter = inter
        self.union = union
        self.full = full
        self.ranked = ranked

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def item_ids(self) -> list[int]:
        """Item ids in table order (plain Python ints)."""
        shift = self.full.bit_length()
        return [key >> shift for key in self.keys]

    @property
    def masks(self) -> list[int]:
        """Per-item row bitsets in table order."""
        full = self.full
        return [key & full for key in self.keys]

    @classmethod
    def build(cls, item_masks: Sequence[int], full_mask: int) -> "CondTable":
        """The root table over every item, support-sorted and scanned.

        The sort (support descending, item id ascending) establishes the
        order every descendant table inherits by filtering.

        Args:
            item_masks: per-item row bitsets in item-id order, each a
                subset of ``full_mask``.
            full_mask: bitset of all rows.

        Returns:
            The fully scanned, ranked root :class:`CondTable`.

        Raises:
            DataError: if a mask has a row outside ``full_mask`` (see
                :func:`_check_rows`).
        """
        order = sorted(
            range(len(item_masks)),
            key=lambda item: (-item_masks[item].bit_count(), item),
        )
        inter, union = scan_items(item_masks, full_mask)
        _check_rows(union, full_mask)
        return cls.gather(item_masks, order, inter, union, full_mask)

    @classmethod
    def gather(
        cls,
        item_masks: Sequence[int],
        item_ids: Sequence[int],
        inter: int,
        union: int,
        full_mask: int,
    ) -> "CondTable":
        """The ranked table of ``item_ids``, already scanned.

        The root build's last step, and how a wide table hands a narrow
        child over: the ids come in table order and the masks from the
        root's, by id.

        Args:
            item_masks: per-item row bitsets in item-id order.
            item_ids: the table's item ids, in support-descending order.
            inter: the table's tuple intersection.
            union: the table's tuple union.
            full_mask: bitset of all rows.

        Returns:
            The ranked :class:`CondTable` over ``item_ids``.
        """
        shift = full_mask.bit_length()
        keys = [item_masks[item] | item << shift for item in item_ids]
        return cls(keys, inter, union, full_mask)

    @classmethod
    def reference(
        cls, item_ids: Sequence[int], masks: Sequence[int], full_mask: int
    ) -> "CondTable":
        """A pre-kernel-style table: caller's order, full bound scans.

        The reference engine's root.  Its scan comes from the
        :func:`~repro.core.enumeration.scan_items` shim, and its
        ``ranked=False`` flag passes to every table extended from it.

        Args:
            item_ids: item ids in the caller's order.
            masks: per-item row bitsets, parallel to ``item_ids``, each
                a subset of ``full_mask``.
            full_mask: bitset of all rows.

        Returns:
            The scanned, unranked :class:`CondTable`.

        Raises:
            DataError: if ``item_ids`` and ``masks`` differ in length (a
                corrupted conditional table must fail loudly, not
                silently truncate — mirrors ``extend_items``), or if a
                mask has a row outside ``full_mask`` (see
                :func:`_check_rows`).
        """
        shift = full_mask.bit_length()
        try:
            keys = [
                mask | item << shift
                for item, mask in zip(item_ids, masks, strict=True)
            ]
        except ValueError as exc:
            raise DataError(
                "conditional table corrupt: item_ids and masks differ in length"
            ) from exc
        inter, union = scan_items(masks, full_mask)
        _check_rows(union, full_mask)
        return cls(keys, inter, union, full_mask, False)

    def extend(self, row_bit: int) -> "CondTable":
        """The child table ``TT|X∪{r}`` (Lemma 3.3), scanned.

        One filter keeps the keys whose mask contains ``row_bit``, and
        one AND/OR pass over the survivors gives the child's
        intersection and union.  Order (and with it the ranking) is
        preserved by filtering.  ``row_bit`` is one of the table's rows,
        below ``full.bit_length()``, so it never meets an item id's bits.
        """
        full = self.full
        keys = [key for key in self.keys if key & row_bit]
        inter = full
        union = 0
        for key in keys:
            inter &= key
            union |= key
        return CondTable(keys, inter, union & full, full, self.ranked)

    def max_overlap(self, cand_mask: int) -> int:
        """``MAX(|cand ∩ t|)`` over this table's tuples (Lemma 3.7).

        ``cand_mask`` holds rows only, so ``key & cand_mask`` drops the
        item id.  A ranked table stops once the maximum saturates at
        ``|cand|``, which its support-descending order makes likely
        early; an unranked one scans every tuple.  (Stopping as well
        once no later tuple is larger than the maximum, which the order
        also allows, cut no scan shorter on the measured sweeps and cost
        a popcount per tuple; see ``docs/performance.md``.)
        """
        best = 0
        if not self.ranked:
            for key in self.keys:
                overlap = (key & cand_mask).bit_count()
                if overlap > best:
                    best = overlap
            return best
        cand_count = cand_mask.bit_count()
        for key in self.keys:
            overlap = (key & cand_mask).bit_count()
            if overlap > best:
                best = overlap
                if best >= cand_count:
                    break
        return best

    def observed_max_overlap(self, stats: "ScanStats", cand_mask: int) -> int:
        """:meth:`max_overlap` plus early-exit accounting on ``stats``.

        The walk counts the scan and the table's length itself
        (:func:`~repro.core.farmer.enumerate_frontier`); this records
        only what the scan alone knows, an early exit and the rows it
        skipped.

        Args:
            stats: receives ``bound_early_exits`` and
                ``bound_rows_skipped``.
            cand_mask: the candidate-row bitset of Lemma 3.7.

        Returns:
            Exactly what :meth:`max_overlap` returns on a ranked table
            (the reference engine never takes this path).
        """
        keys = self.keys
        best = 0
        cand_count = cand_mask.bit_count()
        # The loop must stay identical to :meth:`max_overlap`, or the
        # observed run pays a per-row tax the overhead gate forbids.  A
        # scan that runs to the end counts nothing; the rows an early
        # exit skips are counted there (keys are distinct, so
        # ``keys.index`` finds where the scan stopped).
        for key in keys:
            overlap = (key & cand_mask).bit_count()
            if overlap > best:
                best = overlap
                if best >= cand_count:
                    stats.bound_rows_skipped += len(keys) - keys.index(key) - 1
                    stats.bound_early_exits += 1
                    break
        return best


class ScanStats:
    """Bound-scan telemetry of one observed walk.

    How far the early-exiting :meth:`CondTable.max_overlap` scans
    actually walk, filled only by an observed walk
    (:class:`~repro.core.farmer.SearchContext` ``observe``): the walk
    adds its scans and their tables' rows (``bound_scans``,
    ``bound_rows_total``) when it adds its node counts, and the tables'
    ``observed_max_overlap`` count early exits as they happen.  Each
    representation accounts for its own cost model: the int-mask table
    records how far its early exit walked, the packed table's
    vectorized scans never exit early, so they walk every row.  They
    live here rather than on
    :class:`~repro.core.enumeration.NodeCounters` deliberately:
    every counter field is compared between runs with and without
    telemetry, so a telemetry-only counter there would break that
    equality.
    """

    __slots__ = (
        "bound_scans",
        "bound_rows_skipped",
        "bound_rows_total",
        "bound_early_exits",
    )

    def __init__(self) -> None:
        self.bound_scans = 0
        self.bound_rows_skipped = 0
        self.bound_rows_total = 0
        self.bound_early_exits = 0

    def stats(self) -> dict[str, int]:
        """The bound-scan telemetry as catalogue-named counters.

        Returns:
            A mapping of ``kernel.*`` counter names to values, ready for
            :meth:`repro.obs.telemetry.Telemetry.add_counters`.
        """
        return {
            "kernel.bound_scans": self.bound_scans,
            "kernel.bound_rows_scanned": (
                self.bound_rows_total - self.bound_rows_skipped
            ),
            "kernel.bound_rows_total": self.bound_rows_total,
            "kernel.bound_early_exits": self.bound_early_exits,
        }


class ClosureCache:
    """Per-run memo of closure itemsets keyed by their row-set int.

    COBBLER's column mode computes, for a projected tid-set ``T``, the
    closure ``{item : T ⊆ R(item)}``.  Because every projection at a
    row-enumeration node ``X`` contains exactly the items whose support
    covers ``X``, and every tid-set arising inside that projection
    contains ``X``, the closure of ``T`` is the *global* ``I(T)``
    restricted order — independent of which projection asked.  One cache
    per run is therefore sound across column-mode invocations, and the
    cached tuple (root-order filtered) is exactly what the local scan
    would have produced.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: dict[int, tuple[int, ...]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, row_mask: int) -> tuple[int, ...] | None:
        """The cached closure for ``row_mask``, or ``None`` on a miss."""
        closure = self.entries.get(row_mask)
        if closure is not None:
            self.hits += 1
        return closure

    def put(self, row_mask: int, closure: Iterable[int]) -> tuple[int, ...]:
        """Record a freshly computed closure; returns it as a tuple."""
        value = tuple(closure)
        self.entries[row_mask] = value
        self.misses += 1
        return value
