"""COBBLER-style combined row+column enumeration (extension).

The FARMER authors' follow-up (Pan, Tung, Cong & Xu, SSDBM'04) observed
that row enumeration wins when rows are few and column enumeration wins
when columns are few — and that a table can *change regime* as the search
conditions it.  COBBLER therefore switches dynamically between the two
enumeration directions based on an estimated cost of processing each
subtree.

This module implements that idea for closed-pattern mining on top of the
two engines already in this package:

* **row mode** is CARPENTER's conditional-table expansion;
* **column mode** is the LCM-style prefix-preserving closed-set
  enumeration used by ColumnE, run over the *projection* at the current
  row-enumeration node (the items of ``I(X)``; every closed set ``C ⊆
  I(X)`` has ``R(C) ⊇ X`` and its global closure stays inside ``I(X)``,
  so the subproblem is self-contained);
* the **switch estimate** follows the authors' talk: for each direction,
  sort the candidate dimensions by selectivity and estimate the deepest
  enumeration level a path can reach before support falls under
  ``minsup``; the direction with the smaller estimated frontier wins.

Duplicates across subtrees (a pattern is emitted by whichever mode finds
it first) are removed by a global support-set index, so the output is
exactly the closed patterns above ``minsup`` — verified against CHARM,
CARPENTER and the brute-force oracle by the test suite.

Both modes run on the fused kernel (:mod:`repro.core.kernel`): row mode
carries conditional tables lazily and materializes them with the fused
:meth:`~repro.core.kernel.CondTable.extend` (one pass instead of
extend-then-scan), and column mode memoizes closures in a run-wide
:class:`~repro.core.kernel.ClosureCache` keyed by tid-set ints — sound
across projections because every projected tid-set's closure equals its
*global* closure (see the cache's docstring), and the same closed set is
re-derived many times across column-mode invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import bitset
from ..core.enumeration import SearchBudget
from ..core.kernel import ClosureCache, CondTable
from ..data.dataset import ItemizedDataset
from ..errors import ConstraintError
from ..baselines.charm import ClosedItemset

__all__ = ["Cobbler", "mine_closed_cobbler"]


@dataclass
class Cobbler:
    """Closed-pattern miner with dynamic row/column switching.

    Args:
        minsup: minimum supporting-row count (>= 1).
        switch_ratio: switch to column mode when the projection has fewer
            than ``switch_ratio x remaining-candidate-rows`` items.
            Lower values are more conservative (values near 0 never
            switch, large values switch eagerly); 0.5 tracks the lower
            envelope on both table shapes in our crossover experiment.
        budget: optional node/time limits.
    """

    minsup: int = 1
    switch_ratio: float = 0.5
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self) -> None:
        if self.minsup < 1:
            raise ConstraintError(f"minsup must be >= 1, got {self.minsup}")
        if self.switch_ratio <= 0.0:
            raise ConstraintError(
                f"switch_ratio must be > 0, got {self.switch_ratio}"
            )

    # ------------------------------------------------------------------

    def mine(self, dataset: ItemizedDataset) -> list[ClosedItemset]:
        """Mine all closed itemsets with support >= ``minsup``."""
        import sys

        self.budget.start()
        self._n = dataset.n_rows
        self._all_rows = bitset.universe(self._n)
        self._seen: set[int] = set()
        self._results: list[tuple[tuple[int, ...], int]] = []
        self.column_switches = 0
        self._closures = ClosureCache()
        #: Closure-cache telemetry of the last run (diagnostics).
        self.closure_hits = 0
        self.closure_misses = 0

        item_masks = [0] * dataset.n_items
        for row_index, row in enumerate(dataset.rows):
            bit = 1 << row_index
            for item in row:
                item_masks[item] |= bit

        if self._n and dataset.n_items:
            old_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(
                max(old_limit, (self._n + dataset.n_items) * 2 + 1000)
            )
            try:
                self._row_visit(
                    table=CondTable.build(item_masks, self._all_rows),
                    row_bit=0,
                    x_mask=0,
                    cand=self._all_rows,
                    p1_removed=0,
                )
            finally:
                sys.setrecursionlimit(old_limit)

        self.closure_hits = self._closures.hits
        self.closure_misses = self._closures.misses
        results = [
            ClosedItemset(
                items=frozenset(items),
                support=bitset.bit_count(row_mask),
                row_mask=row_mask,
            )
            for items, row_mask in self._results
        ]
        results.sort(key=lambda c: (-c.support, sorted(c.items)))
        return results

    # ------------------------------------------------------------------
    # Row mode (CARPENTER engine + switch decision)
    # ------------------------------------------------------------------

    def _row_visit(
        self,
        table: CondTable,
        row_bit: int,
        x_mask: int,
        cand: int,
        p1_removed: int,
    ) -> None:
        self.budget.tick()
        # Fused materialize + scan (see Carpenter): ``table`` is the
        # parent's until extended by this node's row bit; candidate rows
        # come from the union, so the child table is never empty.
        if row_bit:
            table = table.extend(row_bit)
        intersection = table.inter
        union = table.union

        witness = intersection & ~x_mask & ~cand & ~p1_removed
        if witness:
            return

        support = bitset.bit_count(intersection)
        remaining = bitset.bit_count(cand & union & ~intersection)
        if support + remaining < self.minsup:
            return

        y_mask = intersection & cand
        new_cand = union & cand & ~y_mask
        child_p1_removed = p1_removed | y_mask

        if new_cand and self._should_switch(len(table), new_cand, support):
            self.column_switches += 1
            self._column_solve(table)
        else:
            for row in bitset.iter_bits(new_cand):
                bit = 1 << row
                self._row_visit(
                    table=table,
                    row_bit=bit,
                    x_mask=x_mask | bit,
                    cand=new_cand & ~bitset.below_mask(row + 1),
                    p1_removed=child_p1_removed,
                )

        if support >= self.minsup:
            self._emit(tuple(table.item_ids), intersection)

    def _should_switch(self, n_cols: int, cand: int, support: int) -> bool:
        """Switch when the projection has become *column-narrow*.

        Both enumeration directions shrink the conditional table as the
        search descends; the decisive quantity is the shape of what is
        left.  Row enumeration's frontier is bounded by the remaining
        candidate rows, column enumeration's by the remaining items, and
        each column step pays a closure scan over all remaining items —
        so column mode wins once the item side is decisively the smaller
        dimension.  (A selectivity-product depth estimate, as sketched in
        the authors' talk, systematically underestimates column cost on
        microarray-shaped tables because it ignores that per-node closure
        scan; the shape rule is what actually tracks the lower envelope
        in our measurements.)
        """
        n_rows = bitset.bit_count(cand)
        if n_rows <= 2 or n_cols <= 2:
            return False
        del support  # the shape rule does not need it
        return n_cols < self.switch_ratio * n_rows

    # ------------------------------------------------------------------
    # Column mode (LCM ppc-extension over the projected item universe)
    # ------------------------------------------------------------------

    def _column_solve(self, table: CondTable) -> None:
        """Enumerate every closed set inside this projection column-wise."""
        item_ids = table.item_ids
        order = {item: position for position, item in enumerate(item_ids)}
        tids_of = dict(zip(item_ids, table.masks))
        closures = self._closures

        def closure(tids: int) -> tuple[int, ...]:
            # Run-wide memo keyed by the tid-set int: the closure of a
            # projected tid-set equals its global closure, and kernel
            # tables all preserve the root's item order, so a hit from
            # any projection is valid verbatim here.
            cached = closures.get(tids)
            if cached is not None:
                return cached
            return closures.put(
                tids,
                (item for item in item_ids if tids & tids_of[item] == tids),
            )

        def expand(closed: tuple[int, ...], tids: int, core_position: int) -> None:
            self.budget.tick()
            if bitset.bit_count(tids) >= self.minsup:
                self._emit(tuple(closed), tids)
            closed_set = set(closed)
            for item in item_ids[core_position + 1 :]:
                if item in closed_set:
                    continue
                new_tids = tids & tids_of[item]
                if bitset.bit_count(new_tids) < self.minsup:
                    continue
                new_closed = closure(new_tids)
                if any(
                    order[other] < order[item] and other not in closed_set
                    for other in new_closed
                ):
                    continue
                expand(new_closed, new_tids, order[item])

        for item in item_ids:
            tids = tids_of[item]
            if bitset.bit_count(tids) < self.minsup:
                continue
            closed = closure(tids)
            if order[closed[0]] < order[item]:
                continue
            expand(closed, tids, order[item])

    # ------------------------------------------------------------------

    def _emit(self, items: tuple[int, ...], row_mask: int) -> None:
        if not items or row_mask in self._seen:
            return
        if bitset.bit_count(row_mask) < self.minsup:
            return
        self._seen.add(row_mask)
        self._results.append((items, row_mask))


def mine_closed_cobbler(
    dataset: ItemizedDataset,
    minsup: int = 1,
    switch_ratio: float = 1.0,
    budget: SearchBudget | None = None,
) -> list[ClosedItemset]:
    """Convenience wrapper: run :class:`Cobbler` on ``dataset``."""
    miner = Cobbler(
        minsup=minsup, switch_ratio=switch_ratio, budget=budget or SearchBudget()
    )
    return miner.mine(dataset)
