"""Tracing the row-enumeration tree (the paper's Figure 3).

For teaching, debugging and the test suite it is invaluable to *see* the
search: which row combinations FARMER visits, what ``I(X)`` labels each
node, and which pruning cut each subtree.  :class:`TracingFarmer` is a
:class:`~repro.core.farmer.Farmer` that records one :class:`TraceNode`
per visited enumeration node (plus the pruning verdict), and
:func:`render_tree` draws the result as an indented tree, e.g. for the
paper's running example at ``minsup=1`` with pruning disabled it
reproduces Figure 3's node labels::

    {} -> I = (all items)
      1 -> I = {a,b,c,l,o,s}
        12 -> I = {a,l}
          123 -> I = {a}
          ...

Tracing buffers every node, so use it on small inputs (it exists for
exactly the datasets you can read).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..data.dataset import ItemizedDataset
from . import bitset
from .farmer import Farmer

__all__ = ["TraceNode", "TracingFarmer", "render_tree"]


@dataclass
class TraceNode:
    """One visited node of the row-enumeration tree.

    Attributes:
        rows: the ORD row positions of the combination ``X``.
        items: ``I(X)`` as item ids, sorted ascending (the node label in
            Figure 3).  Sorting makes the label independent of the
            engine's internal table order — the production engine keeps
            conditional tables support-sorted, the reference engine
            keeps insertion order.
        supp: ``|R(I(X)) ∩ C|`` (-1 when pruned before the scan).
        supn: ``|R(I(X)) ∩ ¬C|`` (-1 when pruned before the scan).
        outcome: ``"explored"``, ``"pruned:loose"``, ``"pruned:tight"``,
            ``"pruned:identified"`` or ``"reported"`` (explored and
            admitted into the IRG set).
        children: child nodes in visit order.
    """

    rows: tuple[int, ...]
    items: tuple[int, ...]
    supp: int = -1
    supn: int = -1
    outcome: str = "explored"
    children: list["TraceNode"] = field(default_factory=list)

    def row_label(self) -> str:
        """Figure 3-style node name: 1-based row ids, e.g. ``"123"``."""
        if not self.rows:
            return "{}"
        return "".join(str(row + 1) for row in self.rows)

    def size(self) -> int:
        """Number of nodes in this subtree (including this node)."""
        return 1 + sum(child.size() for child in self.children)

    def find(self, label: str) -> "TraceNode | None":
        """Locate a node by its Figure 3 label (depth-first)."""
        if self.row_label() == label:
            return self
        for child in self.children:
            found = child.find(label)
            if found is not None:
                return found
        return None


class TracingFarmer(Farmer):
    """A :class:`Farmer` that records the enumeration tree it walks.

    After :meth:`mine`, the tree is available as :attr:`trace_root`.
    All constructor arguments match :class:`Farmer`.  Tracing always runs
    the serial traversal — an ``n_workers`` argument is accepted but
    ignored, since the trace observes every node of the in-process walk.
    """

    trace_root: TraceNode | None = None
    _supports_sharding = False

    def mine(self, dataset: ItemizedDataset, consequent: Hashable):
        self._trace_stack: list[tuple[TraceNode, object]] = []
        self.trace_root = None
        return super().mine(dataset, consequent)

    def _node_observer(self, ctx, store):
        # Tables are resolved as the walk under ``ctx`` builds them, and
        # an explored node is "reported" when ``store`` admitted it.
        self._trace_ctx = ctx
        self._trace_store = store
        return self

    # The walker's observer hooks (see repro.core.farmer.enumerate_frontier).
    def enter(self, state) -> None:
        """Open a trace node for ``state``, nested under the current one."""
        # Materialize the (possibly lazy) table up front: tracing exists
        # to *show* I(X), so it gladly pays for tables the walker would
        # have skipped on loose-pruned nodes.
        table = state.resolve(self._trace_ctx)
        node = TraceNode(
            rows=tuple(bitset.iter_bits(state.x_mask)),
            items=tuple(sorted(table.item_ids)),
        )
        if self._trace_stack:
            self._trace_stack[-1][0].children.append(node)
        else:
            self.trace_root = node
        self._trace_stack.append((node, table))

    def leave(self, outcome: str) -> None:
        """Close the current trace node with the walker's verdict."""
        node, table = self._trace_stack.pop()
        if outcome != "explored":
            node.outcome = outcome
        elif any(
            frozenset(entry[0]) == frozenset(node.items)
            for entry in self._trace_store.entries
        ):
            # Store entries keep the engine's table order; compare as
            # sets so "reported" detection works under every engine.
            node.outcome = "reported"
        # Fill the support stats for nodes that got past the pre-scan
        # bound (every engine's tables carry their scan).
        if outcome != "pruned:loose":
            intersection = table.inter
            node.supp = bitset.bit_count(
                intersection & self._trace_ctx.positive_mask
            )
            node.supn = bitset.bit_count(intersection) - node.supp


def render_tree(
    node: TraceNode,
    dataset: ItemizedDataset | None = None,
    max_depth: int | None = None,
    _depth: int = 0,
) -> str:
    """Render a trace as an indented Figure 3-style tree."""
    if dataset is not None:
        label_items = dataset.format_itemset(node.items)
    else:
        label_items = "{" + ",".join(str(i) for i in node.items) + "}"
    marker = "" if node.outcome == "explored" else f"  [{node.outcome}]"
    stats = (
        f"  (supp={node.supp}, supn={node.supn})" if node.supp >= 0 else ""
    )
    lines = [
        "  " * _depth + f"{node.row_label()} -> I = {label_items}{stats}{marker}"
    ]
    if max_depth is None or _depth < max_depth:
        for child in node.children:
            lines.append(
                render_tree(child, dataset, max_depth, _depth + 1)
            )
    return "\n".join(lines)
