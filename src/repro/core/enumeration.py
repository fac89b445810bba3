"""Shared machinery for row-enumeration search trees.

Both FARMER and CARPENTER walk the row-enumeration tree of Figure 3 using
*conditional transposed tables* (Definition 3.1): at node ``X`` the table
``TT|X`` consists of exactly the items (tuples) whose row support contains
every row of ``X``.  With row supports stored as bitsets, the two
operations every node performs are:

* extending ``TT|X`` to ``TT|X∪{r}`` by keeping the items whose mask has
  bit ``r`` (Lemma 3.3), and
* scanning the table to obtain the intersection and union of its tuples —
  the intersection *is* ``R(I(X))`` (every row containing all common
  items), and the union tells which candidates appear in at least one
  tuple.

This module also hosts the node-budget bookkeeping shared by the miners.

:func:`extend_items` and :func:`scan_items` are the *reference shims* of
the fused kernel (:mod:`repro.core.kernel`): every engine walks each
table once via ``CondTable.extend`` (or its packed counterpart), while
these two-pass helpers remain the independently-tested ground truth the
differential and property-based suites compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterable

from ..errors import BudgetExceeded, DataError, ReproError

__all__ = [
    "extend_items",
    "scan_items",
    "SearchBudget",
    "NodeCounters",
    "merge_counters",
]


def extend_items(
    item_ids: list[int], masks: list[int], row_bit: int
) -> tuple[list[int], list[int]]:
    """Conditional table for ``X ∪ {r}`` from the table for ``X``.

    Keeps exactly the items whose row mask contains ``row_bit``
    (Lemma 3.3: ``TT|X |r = TT|X∪{r}``).

    Args:
        item_ids: item ids of the parent conditional table.
        masks: per-item row bitsets, parallel to ``item_ids``.
        row_bit: one-bit mask of the row extending the combination.

    Returns:
        The child table as an ``(item_ids, masks)`` pair.

    Raises:
        DataError: if ``item_ids`` and ``masks`` diverge in length — a
            corrupted conditional table must fail loudly rather than
            silently truncate to the shorter sequence.
    """
    new_ids: list[int] = []
    new_masks: list[int] = []
    try:
        for item_id, mask in zip(item_ids, masks, strict=True):
            if mask & row_bit:
                new_ids.append(item_id)
                new_masks.append(mask)
    except ValueError as exc:
        raise DataError(
            "conditional table corrupt: item_ids and masks differ in length"
        ) from exc
    return new_ids, new_masks


def scan_items(masks: list[int], full_mask: int) -> tuple[int, int]:
    """One pass over the conditional table: ``(intersection, union)``.

    Args:
        masks: per-item row bitsets of the conditional table.
        full_mask: bitset of all rows, the empty-table intersection.

    Returns:
        The ``(intersection, union)`` of the masks.  The intersection
        over an empty table is ``full_mask`` by convention (callers
        guard against empty tables before using it).
    """
    intersection = full_mask
    union = 0
    for mask in masks:
        intersection &= mask
        union |= mask
    return intersection, union


#: Ticks between clock reads of a time-limited :class:`SearchBudget`.
_CLOCK_STRIDE = 256

#: What :meth:`SearchBudget.until_check` reports when no tick can raise.
_NO_CHECK = 1 << 62


@dataclass
class SearchBudget:
    """Optional node / wall-clock limits for a mining run.

    The experiment harness uses budgets to reproduce the paper's
    "competitor did not finish" outcomes without hanging: when a limit is
    hit the miner raises :class:`~repro.errors.BudgetExceeded`.

    A budget is charged per expanded node.  The baselines call
    :meth:`tick` on every node; FARMER's walk counts its own nodes and
    calls :meth:`check` only where :meth:`until_check` says a tick could
    raise, so a limit trips on the same node either way.

    Attributes:
        max_nodes: maximum enumeration-tree nodes to expand (``None`` =
            unlimited).
        max_seconds: maximum wall-clock seconds (``None`` = unlimited);
            checked every 256 nodes to keep overhead negligible.
        strict: when ``True`` (default) exceeding a limit raises
            :class:`~repro.errors.BudgetExceeded` out of the miner; when
            ``False``, miners that support it (FARMER) stop the search and
            return the results found so far, flagged as truncated — the
            mode the classifiers use so an adversarial training set cannot
            hang ``fit``.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None
    strict: bool = True
    _started_at: float = field(default=0.0, repr=False)
    _nodes: int = field(default=0, repr=False)

    def start(self) -> None:
        """Reset counters at the beginning of a mining run."""
        self._started_at = time.perf_counter()
        self._nodes = 0

    @property
    def nodes(self) -> int:
        """Nodes expanded so far in the current run."""
        return self._nodes

    def advance(self, count: int) -> None:
        """Account for ``count`` expanded nodes at once, without limit
        checks (a walk that counted them itself, between checks)."""
        self._nodes += count

    def tick(self) -> None:
        """Account for one expanded node; raise if a limit is exceeded."""
        self._nodes += 1
        if self.max_nodes is not None and self._nodes > self.max_nodes:
            raise BudgetExceeded(
                f"node budget of {self.max_nodes} exceeded",
                nodes_expanded=self._nodes,
            )
        if self.max_seconds is not None and self._nodes % _CLOCK_STRIDE == 0:
            elapsed = time.perf_counter() - self._started_at
            if elapsed > self.max_seconds:
                raise BudgetExceeded(
                    f"time budget of {self.max_seconds:.1f}s exceeded "
                    f"after {elapsed:.1f}s",
                    nodes_expanded=self._nodes,
                )

    def until_check(self) -> int:
        """How many of the next ticks only count: the tick after them is
        the first that can raise."""
        nodes = self._nodes
        span = _NO_CHECK
        if self.max_nodes is not None:
            span = max(self.max_nodes - nodes, 0)
        if self.max_seconds is not None:
            clock = _CLOCK_STRIDE - 1 - nodes % _CLOCK_STRIDE
            if clock < span:
                span = clock
        return span

    def poll(self) -> None:
        """Raise if the run must stop now, charging no node.

        The hook of a coordinator that does not charge the nodes it
        walks: the sharded miner (:mod:`repro.core.parallel`) polls it
        while it decomposes, whenever it wakes to collect shard parts,
        and every few hundred nodes of a part it runs inline.  This
        budget's limits are node counts and a clock the coordinator
        enforces as its own deadline, so here it does nothing;
        subclasses with an external stop signal raise.
        """

    def check(self, counters: NodeCounters) -> int:
        """Charge a walk that counts its own nodes, as it enters one.

        ``counters`` count this run's nodes since :meth:`start`, up to
        but not including the node being entered.  The budget takes that
        count, ticks the entered node and returns how many nodes the
        walk may visit, that one included, before it must call again.
        A node the tick refuses counts as expanded in ``counters`` too,
        as it would under a tick per node.
        """
        self._nodes = counters.nodes
        try:
            self.tick()
        except ReproError:
            counters.nodes += 1
            raise
        return self.until_check() + 1


@dataclass
class NodeCounters:
    """Per-run statistics reported alongside mining results.

    Attributes:
        nodes: enumeration-tree nodes expanded.
        pruned_loose: subtrees cut by Step 2 (loose support/confidence
            bounds, before the scan).
        pruned_tight: subtrees cut by Step 4 (tight support/confidence/
            chi-square bounds, after the scan).
        pruned_identified: subtrees cut by Pruning Strategy 2 (Step 1).
        rows_compressed: candidate rows deleted by Pruning Strategy 1
            (Step 5) over the whole run.
        groups_emitted: upper bounds admitted into the result.
        candidates_rejected: upper bounds meeting the thresholds but
            rejected by the interestingness comparison of Step 7.
    """

    nodes: int = 0
    pruned_loose: int = 0
    pruned_tight: int = 0
    pruned_identified: int = 0
    rows_compressed: int = 0
    groups_emitted: int = 0
    candidates_rejected: int = 0


def merge_counters(parts: Iterable[NodeCounters]) -> NodeCounters:
    """Sum per-worker / per-phase counters into one run-level view.

    The sharded miner (:mod:`repro.core.parallel`) visits every
    enumeration node exactly once across the coordinator, its workers and
    the admission replay, so for a completed run the merged counters
    equal the serial miner's — the test suite pins this invariant.
    """
    merged = NodeCounters()
    for part in parts:
        for spec in fields(NodeCounters):
            setattr(
                merged, spec.name, getattr(merged, spec.name) + getattr(part, spec.name)
            )
    return merged
