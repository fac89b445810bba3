"""CARPENTER — row-enumeration closed pattern mining (Pan et al., KDD'03).

FARMER's predecessor (reference [17] of the paper) and the third system
in our scaling benchmark: it mines all *frequent closed patterns* (no
classes, no interestingness) by the same depth-first row enumeration,
with the row-enumeration analogues of FARMER's prunings:

* Pruning 1 — rows present in every tuple of the conditional table are
  folded into the node instead of being enumerated;
* Pruning 2 — a skipped earlier row present in every tuple proves the
  subtree was enumerated before;
* Pruning 3 — ``minsup`` pruning: a node can contribute patterns of
  support at most ``|R(I(X))| + |remaining candidates|``.

Support here is a plain row count; results match CHARM / CLOSET+ /
the brute-force oracle exactly (tests pin this three-way agreement).

The traversal runs on FARMER's production tables
(:class:`repro.core.kernel.CondTable`): a node's conditional table is
carried lazily as (parent table, row bit) and materialized with
``extend``, which builds the child table *and* its intersection/union in
one pass — halving the per-node table walks of the original
extend-then-scan loop.  Item order inside a table is support-sorted (a
kernel invariant); emitted itemsets become frozensets, so results are
order-identical to before.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core import bitset
from ..core.enumeration import SearchBudget
from ..core.kernel import CondTable
from ..data.dataset import ItemizedDataset
from ..errors import ConstraintError
from .charm import ClosedItemset

if TYPE_CHECKING:
    from ..obs.telemetry import Telemetry

__all__ = ["Carpenter", "mine_closed_carpenter"]


@dataclass
class Carpenter:
    """CARPENTER closed-pattern miner.

    Args:
        minsup: minimum number of supporting rows (>= 1).
        budget: optional node/time limits.
        telemetry: optional observability sink; when set, the mine
            emits ``run_start``/``run_end`` events, a ``search`` phase,
            and ``carpenter.*`` counters.  ``None`` (the default) keeps
            the hot path untouched.
    """

    minsup: int = 1
    budget: SearchBudget = field(default_factory=SearchBudget)
    telemetry: "Telemetry | None" = None

    def __post_init__(self) -> None:
        if self.minsup < 1:
            raise ConstraintError(f"minsup must be >= 1, got {self.minsup}")

    def mine(self, dataset: ItemizedDataset) -> list[ClosedItemset]:
        """Mine all closed itemsets with support >= ``minsup``."""
        import sys

        self.budget.start()
        self._n = dataset.n_rows
        self._all_rows = bitset.universe(self._n)
        self._results: list[tuple[tuple[int, ...], int]] = []
        self._seen: set[int] = set()

        item_masks = [0] * dataset.n_items
        for row_index, row in enumerate(dataset.rows):
            bit = 1 << row_index
            for item in row:
                item_masks[item] |= bit

        if self.telemetry is not None:
            self.telemetry.run_start(
                algorithm="carpenter",
                n_rows=dataset.n_rows,
                n_items=dataset.n_items,
                minsup=self.minsup,
            )
        if self._n and dataset.n_items:
            old_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(old_limit, self._n * 4 + 1000))
            phase = (
                nullcontext()
                if self.telemetry is None
                else self.telemetry.phase("search")
            )
            try:
                with phase:
                    self._visit(
                        table=CondTable.build(item_masks, self._all_rows),
                        row_bit=0,
                        x_mask=0,
                        cand=self._all_rows,
                        p1_removed=0,
                    )
            finally:
                sys.setrecursionlimit(old_limit)

        results = [
            ClosedItemset(
                items=frozenset(items),
                support=bitset.bit_count(row_mask),
                row_mask=row_mask,
            )
            for items, row_mask in self._results
        ]
        results.sort(key=lambda c: (-c.support, sorted(c.items)))
        if self.telemetry is not None:
            self.telemetry.add_counters(
                {
                    "carpenter.nodes": self.budget.nodes,
                    "carpenter.closed_sets": len(results),
                }
            )
            self.telemetry.run_end(closed_sets=len(results))
        return results

    # ------------------------------------------------------------------

    def _visit(
        self,
        table: CondTable,
        row_bit: int,
        x_mask: int,
        cand: int,
        p1_removed: int,
    ) -> None:
        self.budget.tick()

        # Fused materialize + scan: ``table`` is the parent's table until
        # extended by this node's row bit (one pass; Lemma 3.3 + scan).
        # A candidate row always occurs in some tuple of the parent
        # (it is drawn from the union), so the child table is never empty.
        if row_bit:
            table = table.extend(row_bit)
        intersection = table.inter
        union = table.union

        # Pruning 2: an earlier, never-compressed row in every tuple.
        witness = intersection & ~x_mask & ~cand & ~p1_removed
        if witness:
            return

        support = bitset.bit_count(intersection)

        # Pruning 3: even taking every remaining candidate cannot reach
        # minsup rows.
        remaining = bitset.bit_count(cand & union & ~intersection)
        if support + remaining < self.minsup:
            return

        # Pruning 1: compress always-present candidates into the node.
        y_mask = intersection & cand
        new_cand = union & cand & ~y_mask
        child_p1_removed = p1_removed | y_mask

        for row in bitset.iter_bits(new_cand):
            bit = 1 << row
            self._visit(
                table=table,
                row_bit=bit,
                x_mask=x_mask | bit,
                cand=new_cand & ~bitset.below_mask(row + 1),
                p1_removed=child_p1_removed,
            )

        # Emit I(X) (at the root this is the whole vocabulary, a real
        # closed set exactly when some rows contain every item — in which
        # case `support` is non-zero and Pruning 1 just compressed those
        # rows away).
        if support >= self.minsup and intersection not in self._seen:
            self._seen.add(intersection)
            self._results.append((tuple(table.item_ids), intersection))


def mine_closed_carpenter(
    dataset: ItemizedDataset,
    minsup: int = 1,
    budget: SearchBudget | None = None,
) -> list[ClosedItemset]:
    """Convenience wrapper: run :class:`Carpenter` on ``dataset``."""
    miner = Carpenter(minsup=minsup, budget=budget or SearchBudget())
    return miner.mine(dataset)
