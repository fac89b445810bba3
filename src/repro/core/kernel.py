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

* :class:`CondTable` is a conditional table that carries its own scan
  results (``inter``/``union`` are computed while the table is built, in
  the same pass), per-item popcounts, and a support-descending item
  order, so Pruning-3 bound scans can stop early instead of walking
  every tuple (:func:`max_candidate_overlap`);
* :func:`extend_and_scan` is the fused one-pass primitive — extensionally
  equal to the ``extend_items`` + ``scan_items`` composition, which the
  property-based test suite pins;
* :class:`KernelCache` memoizes, per mining run, the pure per-node
  evaluations keyed by row-set ints and count pairs: the class split of a
  closure ``R(I(X))``, the confidence and chi-square upper bounds of
  Lemmas 3.8/3.9, and the Step-7 threshold test — with hit/miss counters
  folded into :class:`~repro.core.enumeration.NodeCounters` so cache
  behaviour shows up in shard telemetry;
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
(every visited node's table built eagerly, no popcounts so full bound
scans, no memo caches) for differential testing and the committed perf
gate (``benchmarks/perf_gate.py``).
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, runtime_checkable

from ..errors import DataError
from .bounds import chi_bound, confidence_bound

__all__ = [
    "CondTable",
    "CondTableProtocol",
    "KernelCache",
    "ClosureCache",
    "extend_and_scan",
    "max_candidate_overlap",
]


@runtime_checkable
class CondTableProtocol(Protocol):
    """The conditional-table seam both table representations implement.

    :func:`repro.core.farmer.enumerate_frontier` (the one walk every
    FARMER mine runs) and the baselines never touch a table's
    representation — they consume exactly this surface, so a table is
    free to store its tuples as int lists (:class:`CondTable`) or packed
    uint64 arrays (:class:`~repro.core.npbitset.NumpyCondTable`), and to
    change from one to the other in :meth:`extend`, as long as the scan
    results are plain ints and the item order matches the kernel's
    support-descending build order (candidates must serialize
    byte-identically whatever the representation).

    Attributes:
        inter: tuple intersection as an int row mask (``full`` when the
            table is empty); ``None`` only on reference-engine carriers,
            which re-scan per node.
        union: tuple union as an int row mask (``None`` on reference
            carriers).
        full: the all-rows mask, the empty-intersection convention.
    """

    inter: int | None
    union: int | None
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

    def observed_max_overlap(self, cache: "KernelCache", cand_mask: int) -> int:
        """:meth:`max_overlap` plus bound-scan telemetry on ``cache``."""
        ...


def extend_and_scan(
    item_ids: Sequence[int],
    masks: Sequence[int],
    row_bit: int,
    full_mask: int,
) -> tuple[list[int], list[int], int, int]:
    """Fused table extension and scan in one traversal.

    Extensionally equal to ``extend_items(item_ids, masks, row_bit)``
    followed by ``scan_items(new_masks, full_mask)`` (the reference shims
    in :mod:`repro.core.enumeration`), but walks the table once instead
    of twice.

    Args:
        item_ids: item ids of the parent conditional table.
        masks: per-item row bitsets, parallel to ``item_ids``.
        row_bit: one-bit mask of the row extending the combination.
        full_mask: bitset of all rows, the empty-table intersection.

    Returns:
        ``(new_ids, new_masks, intersection, union)`` — the conditional
        table for ``X ∪ {r}`` plus its tuple intersection and union.
        The intersection over an empty result is ``full_mask`` by the
        same convention as ``scan_items``.

    Raises:
        DataError: if ``item_ids`` and ``masks`` diverge in length (a
            corrupted conditional table must fail loudly, not silently
            truncate — mirrors ``extend_items``).
    """
    new_ids: list[int] = []
    new_masks: list[int] = []
    intersection = full_mask
    union = 0
    try:
        for item_id, mask in zip(item_ids, masks, strict=True):
            if mask & row_bit:
                new_ids.append(item_id)
                new_masks.append(mask)
                intersection &= mask
                union |= mask
    except ValueError as exc:
        raise DataError(
            "conditional table corrupt: item_ids and masks differ in length"
        ) from exc
    return new_ids, new_masks, intersection, union


def max_candidate_overlap(
    masks: Sequence[int], counts: Sequence[int] | None, cand_mask: int
) -> int:
    """``MAX(|cand ∩ t|)`` over the tuples ``t`` of a conditional table.

    The tight support bound of Lemma 3.7 needs the largest number of
    candidate rows any single tuple can still absorb.

    Args:
        masks: per-item row bitsets of the conditional table.
        counts: per-tuple popcounts, sorted descending (the
            :class:`CondTable` invariant), or ``None`` for reference
            tables.
        cand_mask: bitset of the candidate rows.

    Returns:
        The maximum overlap.  When ``counts`` is provided the scan stops
        as soon as no later tuple can beat the current maximum:
        ``|cand ∩ t| <= |t|``, and ``|t|`` only shrinks from here on.
        It also stops once the maximum saturates at ``|cand|``.  With
        ``counts=None`` the full scan of the pre-kernel path runs
        instead.
    """
    best = 0
    if counts is None:
        for mask in masks:
            overlap = (mask & cand_mask).bit_count()
            if overlap > best:
                best = overlap
        return best
    cand_count = cand_mask.bit_count()
    for mask, count in zip(masks, counts):
        if count <= best:
            break
        overlap = (mask & cand_mask).bit_count()
        if overlap > best:
            best = overlap
            if best >= cand_count:
                break
    return best


class CondTable:
    """A conditional transposed table with its scan results attached.

    The kernel's working representation of ``TT|X``: parallel lists of
    item ids and row-support bitsets, ordered by support descending (ties
    by item id), plus

    * ``counts`` — per-item popcounts (constant per item, inherited by
      children, the early-exit key of :func:`max_candidate_overlap`);
    * ``inter`` / ``union`` — the tuple intersection and union, computed
      in the same pass that built the table (the intersection over an
      empty table is ``full`` by convention);
    * ``full`` — the all-rows mask the empty-intersection convention and
      child extensions use.

    Reference-engine tables keep the caller's item order and carry
    ``counts=None``, so their bound scans walk every tuple; extending
    one yields another count-less table.  :meth:`reference` builds such
    a table without its scan fields.

    Instances are shared between sibling :class:`~repro.core.farmer.NodeState`
    values, and a run's root table is handed to every worker process
    once; everything on them is plain ints and lists, so they pickle
    with the default protocol.
    """

    __slots__ = ("item_ids", "masks", "counts", "inter", "union", "full")

    def __init__(
        self,
        item_ids: list[int],
        masks: list[int],
        counts: list[int] | None,
        inter: int | None,
        union: int | None,
        full: int,
    ) -> None:
        self.item_ids = item_ids
        self.masks = masks
        self.counts = counts
        self.inter = inter
        self.union = union
        self.full = full

    def __len__(self) -> int:
        return len(self.item_ids)

    @classmethod
    def build(cls, item_masks: Sequence[int], full_mask: int) -> "CondTable":
        """The root table over every item, support-sorted and scanned.

        One pass computes popcounts, intersection and union; the sort
        (support descending, item id ascending) establishes the order
        every descendant table inherits by filtering.

        Args:
            item_masks: per-item row bitsets in item-id order.
            full_mask: bitset of all rows.

        Returns:
            The fully scanned root :class:`CondTable`.
        """
        order = sorted(
            range(len(item_masks)),
            key=lambda item: (-item_masks[item].bit_count(), item),
        )
        item_ids: list[int] = []
        masks: list[int] = []
        counts: list[int] = []
        intersection = full_mask
        union = 0
        for item in order:
            mask = item_masks[item]
            item_ids.append(item)
            masks.append(mask)
            counts.append(mask.bit_count())
            intersection &= mask
            union |= mask
        return cls(item_ids, masks, counts, intersection, union, full_mask)

    @classmethod
    def reference(
        cls, item_ids: list[int], masks: list[int], full_mask: int
    ) -> "CondTable":
        """A pre-kernel-style carrier: caller's order, no counts, no scan.

        ``inter``/``union`` stay unset (``None``) so a caller that has
        not scanned the table with
        :func:`~repro.core.enumeration.scan_items` fails loudly instead
        of reading them; :meth:`extend` on the carrier yields a scanned,
        still count-less child.

        Args:
            item_ids: item ids in the caller's order.
            masks: per-item row bitsets, parallel to ``item_ids``.
            full_mask: bitset of all rows.

        Returns:
            The unscanned reference :class:`CondTable`.
        """
        return cls(item_ids, masks, None, None, None, full_mask)

    def extend(self, row_bit: int) -> "CondTable":
        """The fused child table ``TT|X∪{r}`` (Lemma 3.3 + scan, one pass).

        Filters ids, masks and counts by ``row_bit`` while accumulating
        the child's intersection and union.  Order (and therefore the
        support-descending invariant) is preserved by filtering.
        """
        full = self.full
        new_ids: list[int] = []
        new_masks: list[int] = []
        intersection = full
        union = 0
        counts = self.counts
        if counts is None:
            for item_id, mask in zip(self.item_ids, self.masks):
                if mask & row_bit:
                    new_ids.append(item_id)
                    new_masks.append(mask)
                    intersection &= mask
                    union |= mask
            return CondTable(new_ids, new_masks, None, intersection, union, full)
        new_counts: list[int] = []
        for item_id, mask, count in zip(self.item_ids, self.masks, counts):
            if mask & row_bit:
                new_ids.append(item_id)
                new_masks.append(mask)
                new_counts.append(count)
                intersection &= mask
                union |= mask
        return CondTable(new_ids, new_masks, new_counts, intersection, union, full)

    def max_overlap(self, cand_mask: int) -> int:
        """Early-exiting ``MAX(|cand ∩ t|)`` over this table's tuples."""
        return max_candidate_overlap(self.masks, self.counts, cand_mask)

    def observed_max_overlap(self, cache: "KernelCache", cand_mask: int) -> int:
        """:meth:`max_overlap` plus bound-scan accounting on ``cache``.

        Args:
            cache: receives the ``bound_*`` telemetry (scan length, the
                full-scan length avoided, whether the scan early-exited).
            cand_mask: the candidate-row bitset of Lemma 3.7.

        Returns:
            Exactly what :func:`max_candidate_overlap` returns; requires
            ``counts`` (the reference engine never takes this path).
        """
        masks = self.masks
        counts = self.counts
        best = 0
        scanned = len(masks)
        early = False
        cand_count = cand_mask.bit_count()
        # Accounting happens only at the exits (``scanned`` falls out of
        # the enumerate index): the loop body must stay identical to
        # :func:`max_candidate_overlap`, or the observed run pays a
        # per-row tax the overhead gate forbids.
        for index, mask in enumerate(masks):
            if counts[index] <= best:  # type: ignore[index]
                early = True
                scanned = index
                break
            overlap = (mask & cand_mask).bit_count()
            if overlap > best:
                best = overlap
                if best >= cand_count:
                    early = True
                    scanned = index + 1
                    break
        cache.bound_scans += 1
        cache.bound_rows_scanned += scanned
        cache.bound_rows_total += len(masks)
        if early:
            cache.bound_early_exits += 1
        return best


class KernelCache:
    """Per-run memo caches for the pure per-node evaluations.

    Everything memoized here is a deterministic function of its key for a
    fixed dataset and constraints, so caching can never change mined
    output — only the work done.  Scope is one cache per serial run and
    one per shard task in the sharded pipeline (which keeps the counters
    deterministic under retries, checkpoint/resume and any scheduling);
    consequently the *cache telemetry* of a serial run and a sharded run
    differ even though every other counter is identical — see
    :data:`repro.core.enumeration.CACHE_TELEMETRY_FIELDS`.

    Hit/miss counts are accumulated into the ``cache_hits`` /
    ``cache_misses`` fields of the :class:`~repro.core.enumeration.NodeCounters`
    passed to each method, travelling through ``merge_counters``, the
    parallel reduce and checkpoint records like every other counter.

    The cache additionally hosts the kernel's *bound-scan* statistics
    (how far the early-exiting :func:`max_candidate_overlap` scans
    actually walk), filled only by the tables' ``observed_max_overlap``
    (:meth:`CondTable.observed_max_overlap` and its packed counterpart)
    — the telemetry variant the miner switches to when observability
    is on (:class:`~repro.core.farmer.SearchContext` ``observe``).  Each
    representation accounts for its own cost model: the int-mask table
    records how far its early exit walked, the packed table records
    full-length vectorized scans.  They live
    here rather than on :class:`~repro.core.enumeration.NodeCounters`
    deliberately: checkpoint records serialize every counter field, so a
    telemetry-only counter there would break the byte-identity of
    checkpoints written with and without telemetry.
    """

    __slots__ = (
        "splits",
        "confidences",
        "chis",
        "thresholds",
        "bound_scans",
        "bound_rows_scanned",
        "bound_rows_total",
        "bound_early_exits",
    )

    def __init__(self) -> None:
        #: row-set int -> (supp, supn): the class split of a closure.
        self.splits: dict[int, tuple[int, int]] = {}
        #: (support bound, negative support) -> confidence bound.
        self.confidences: dict[tuple[int, int], float] = {}
        #: (supp, supn) -> chi-square upper bound (Lemma 3.9).
        self.chis: dict[tuple[int, int], float] = {}
        #: (supp, supn) -> Step-7 threshold verdict.
        self.thresholds: dict[tuple[int, int], bool] = {}
        #: Bound-scan telemetry (observed runs only; see class docstring).
        self.bound_scans = 0
        self.bound_rows_scanned = 0
        self.bound_rows_total = 0
        self.bound_early_exits = 0

    def class_split(self, row_mask: int, positive_mask: int, counters) -> tuple[int, int]:
        """``(supp, supn)`` of the closure ``R(I(X))`` given as ``row_mask``.

        Keyed by the row-set int itself: the same closure reached at
        different nodes (or re-reached with Pruning 2 off) pays its two
        popcounts once per run.

        Args:
            row_mask: the closure's supporting-row bitset.
            positive_mask: row bitset of the consequent class.
            counters: hit/miss statistics, mutated in place.

        Returns:
            The ``(supp, supn)`` class split of the closure.
        """
        split = self.splits.get(row_mask)
        if split is not None:
            counters.cache_hits += 1
            return split
        counters.cache_misses += 1
        supp = (row_mask & positive_mask).bit_count()
        split = (supp, row_mask.bit_count() - supp)
        self.splits[row_mask] = split
        return split

    def confidence(self, support_bound: int, negative_lower: int, counters) -> float:
        """Memoized :func:`~repro.core.bounds.confidence_bound`."""
        key = (support_bound, negative_lower)
        value = self.confidences.get(key)
        if value is not None:
            counters.cache_hits += 1
            return value
        counters.cache_misses += 1
        value = confidence_bound(support_bound, negative_lower)
        self.confidences[key] = value
        return value

    def chi(self, supp: int, supn: int, n: int, m: int, counters) -> float:
        """Memoized :func:`~repro.core.bounds.chi_bound` (Lemma 3.9)."""
        key = (supp, supn)
        value = self.chis.get(key)
        if value is not None:
            counters.cache_hits += 1
            return value
        counters.cache_misses += 1
        value = chi_bound(supp, supn, n, m)
        self.chis[key] = value
        return value

    def satisfies(self, constraints, supp: int, supn: int, n: int, m: int, counters) -> bool:
        """Memoized Step-7 threshold test.

        Args:
            constraints: the run's admission thresholds.
            supp: positive support of the candidate.
            supn: negative support of the candidate.
            n: total row count of the dataset.
            m: rows carrying the consequent class.
            counters: hit/miss statistics, mutated in place.

        Returns:
            :meth:`~repro.core.constraints.Constraints.satisfied_by` for
            ``(supp, supn, n, m)``, cached per ``(supp, supn)``.
        """
        key = (supp, supn)
        verdict = self.thresholds.get(key)
        if verdict is not None:
            counters.cache_hits += 1
            return verdict
        counters.cache_misses += 1
        verdict = constraints.satisfied_by(supp, supn, n, m)
        self.thresholds[key] = verdict
        return verdict

    def stats(self) -> dict[str, int]:
        """The bound-scan telemetry as catalogue-named counters.

        Returns:
            A mapping of ``kernel.*`` counter names to values, ready for
            :meth:`repro.obs.telemetry.Telemetry.add_counters`.  All
            zeros unless the run took the observed path.
        """
        return {
            "kernel.bound_scans": self.bound_scans,
            "kernel.bound_rows_scanned": self.bound_rows_scanned,
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
