"""FARMER: row-enumeration mining of interesting rule groups.

This is the paper's core contribution (Figure 5).  The miner performs a
depth-first search over row combinations ``X`` in ORD order (consequent
rows before the rest), maintaining at each node the conditional transposed
table ``TT|X`` — the items common to every row of ``X``, with their row
supports as bitsets.  At node ``X`` the upper bound rule ``I(X) -> C`` of
the rule group with antecedent support set ``R(I(X))`` is identified
(Lemma 3.1); a complete traversal therefore discovers every rule group
(Lemma 3.2).  Three pruning strategies keep the traversal far from
complete while provably preserving the result:

* **Pruning 1** (Step 5, Lemma 3.5): candidate rows occurring in *every*
  tuple of ``TT|X`` are folded into the node ("compressed") instead of
  being enumerated.
* **Pruning 2** (Step 1, Lemma 3.6): if some row outside ``X`` and outside
  the candidate list — and never removed by Pruning 1 on this path —
  occurs in every tuple, the node's whole subtree was already enumerated
  under an earlier branch.
* **Pruning 3** (Steps 2 and 4, Lemmas 3.7-3.9): loose (pre-scan) and
  tight (post-scan) upper bounds on support, confidence and chi-square
  against the user thresholds.

Step 7 admits ``I(X) -> C`` as an *interesting* rule group iff it meets
the thresholds and beats the confidence of every already-admitted group
with a strictly smaller antecedent; visiting descendants first (Step 6
before Step 7) plus Lemma 3.4 guarantees those groups are known by then.

Implementation notes (Section 3.3 of the paper uses conditional pointer
lists into an in-memory transposed table; we use the bitset equivalent):

* a conditional table is a list of the items common to ``X``, each
  with its row mask; extending to a child filters by one bit (Lemma 3.3);
* the intersection of all tuple masks *is* ``R(I(X))``, which yields the
  exact ``supp``/``supn`` of the node's rule and doubles as the Pruning 2
  witness set and the rule group's row set;
* a table holds only the items that can still reach ``minsup`` where it
  is built: the root keeps the items with ``minsup`` positive rows, and
  with Pruning 2 on every table below it the items with ``minsup`` rows
  in its node's region ``(X ∪ P1(X) ∪ cand(X)) ∩ pos``
  (:attr:`SearchContext.item_floor`); the walk emits the same
  candidates in the same order.  Under that filter Step 4's tight
  support bound cannot fire, so the walk does not test it and
  scans for the tight bound only at ``minconf > 0``;
* every pruning strategy can be disabled independently (the ablation
  benchmark relies on this); disabling any of them never changes the
  mined result, only the work done.  Pruning 2 requires Pruning 1's
  bookkeeping (Lemma 3.6 assumes it), so ``p2`` is ignored when ``p1``
  is off.
* the traversal is one explicit-stack walk, :func:`enumerate_frontier`,
  over an ordered frontier of picklable :class:`NodeState` units.  It
  can stop after a node quantum and hand back the exact remaining
  frontier, so the same walk runs serially and per shard in worker
  processes (:mod:`repro.core.parallel`), with output bit-identical to
  the serial traversal.  Every serial mine (cold, warm-cache capture
  from :mod:`repro.core.frontier`, traced, with or without telemetry)
  goes through one driver, :meth:`Farmer._search`.  It needs no recursion, so no interpreter
  recursion limit is touched.
* a node's conditional table is materialized *lazily*: the Step-2 loose
  bounds need only the parent's counts, so the walk evaluates them at
  the parent, and on the paper's workloads the large majority of nodes
  are loose-pruned and never get a table, a state object or a frame.
  The production engine builds a surviving node's table and scan in one
  fused pass and evaluates each node's bounds inline on its counts.
  Every table is the kernel's keyed int masks
  (:class:`~repro.core.kernel.CondTable`), every root one
  :meth:`~repro.core.kernel.CondTable.build`; the production engine's
  support-sorted order lets its bound scans saturate early.
  ``engine="reference"`` keeps the pre-kernel cost model for
  differential tests and the perf gate: the dataset's item order and
  every visited node's table built before its Step-2 bound.  Both
  produce byte-identical serialized output.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from ..data.dataset import ItemizedDataset
from ..data.transpose import TransposedTable
from ..errors import BudgetExceeded, ConstraintError, UsageError
from . import bitset
from .bounds import chi_bound, confidence_bound
from .constraints import Constraints
from .enumeration import NodeCounters, SearchBudget
from .kernel import CondTable, ScanStats
from .minelb import attach_lower_bounds
from .rulegroup import RuleGroup

if TYPE_CHECKING:
    from ..obs.telemetry import Telemetry
    from .parallel import ParallelReport, RetryPolicy

__all__ = [
    "Farmer",
    "FarmerResult",
    "mine_irgs",
    "ALL_PRUNINGS",
    "ENGINES",
    "NodeState",
    "Candidate",
    "SearchContext",
    "enumerate_frontier",
    "FRONTIER_STATE",
    "FRONTIER_CAND",
]

#: The full set of pruning strategy names.
ALL_PRUNINGS = frozenset({"p1", "p2", "p3"})

#: Accepted ``engine=`` spellings.  ``"reference"`` selects the
#: pre-kernel cost model (the differential oracle); ``"kernel"`` and
#: ``"numpy"`` are kept as spellings of the one production engine, which
#: is also what ``None`` selects, because saved scripts and job specs
#: name them.  They select nothing.
ENGINES = frozenset({"kernel", "reference", "numpy"})


def _is_reference(engine: str | None) -> bool:
    """Whether ``engine`` names the reference oracle; rejects unknown
    names loudly."""
    if engine is not None and engine not in ENGINES:
        raise UsageError(
            f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}"
        )
    return engine == "reference"


class NodeState(NamedTuple):
    """The complete, picklable state of one row-enumeration node.

    This is exactly the argument list of a ``MineIRGs`` call (Figure 5):
    a node is fully described by its conditional transposed
    table ``TT|X``, its row combination and candidate bitsets, and the
    incremental support counts of Pruning 3.  Since ``TT|X`` depends
    only on ``X`` (Lemma 3.3), a state crosses the process boundary
    *detached*, with ``table=None``, and the worker rebuilds the table
    from the run's root (:mod:`repro.core.parallel`).

    The conditional table is carried *lazily*: when ``row_bit`` is zero,
    ``table`` is this node's own ``TT|X``; otherwise ``table`` is the
    **parent's** table and this node's is ``table.extend(row_bit)``
    (Lemma 3.3, with the per-node filter), deferred so a loose-pruned
    node never pays for it.  :meth:`resolve` materializes it on demand.

    Attributes:
        table: the node's conditional table when ``row_bit == 0``,
            else the parent's; ``None`` in the detached wire form.
        row_bit: the bit of the row that extended the parent into this
            node (``0`` at the root of a traversal).
        x_mask: the row combination ``X`` as an ORD-position bitset.
        cand_pos: remaining candidate rows carrying the consequent.
        cand_neg: remaining candidate rows not carrying the consequent.
        p1_removed: rows compressed away by Pruning 1 on this path.
        supp_in: positive rows counted into ``X`` so far (Pruning 3).
        supn_in: negative rows counted into ``X`` so far (Pruning 3).
        rm_is_positive: whether the most recently added row is positive.
    """

    table: CondTable
    row_bit: int
    x_mask: int
    cand_pos: int
    cand_neg: int
    p1_removed: int
    supp_in: int
    supn_in: int
    rm_is_positive: bool

    def resolve(self, ctx: "SearchContext") -> CondTable:
        """This node's own conditional table, materialized if still lazy,
        as the walk builds it under ``ctx``."""
        return _node_table(
            self.table, self.row_bit, self.x_mask, self.p1_removed,
            self.cand_pos, ctx.positive_mask, ctx.item_floor,
        )

    def estimate(self) -> int:
        """Subtree-size proxy for load balancing and progress: the
        number of remaining candidate rows."""
        return bitset.bit_count(self.cand_pos | self.cand_neg)


def _node_table(
    table: CondTable,
    row_bit: int,
    x_mask: int,
    p1_removed: int,
    cand_pos: int,
    positive_mask: int,
    floor: int,
) -> CondTable:
    """A node's own ``TT|X`` from :class:`NodeState`'s fields: ``table``
    itself at a traversal's root (``row_bit == 0``), else the parent
    ``table`` extended by ``row_bit`` and kept to the items holding
    ``floor`` rows of the node's region ``(X ∪ P1(X) ∪ cand(X)) ∩ pos``
    (:attr:`SearchContext.item_floor`).

    The filter reads only the node's own region, never what the parent
    kept, so any parent holding the walker's parent's items gives the
    walker's table.  The walk (both engines) and :meth:`NodeState.resolve`
    build through here, so a unit whose parent
    ``repro.core.parallel._attach`` rebuilt without the filter still
    gets the walker's table.
    """
    if not row_bit:
        return table
    return table.extend(
        row_bit, (x_mask | p1_removed | cand_pos) & positive_mask, floor
    )


class Candidate(NamedTuple):
    """A threshold-satisfying Step-7 candidate awaiting admission.

    The upper bound rule ``I(X) -> C`` of one rule group, with the exact
    statistics read off the node's table scan.  Whether it is *admitted*
    (interesting) is decided separately — serially by
    :meth:`_IRGStore.offer`, because admission depends on every group with
    a smaller antecedent (Lemma 3.4).

    Precondition: a closed pair of one table, ``item_ids = I(row_mask)``
    and ``row_mask = R(item_ids)`` (all rows for ``I = ∅``), supports
    read off ``row_mask``.  As ``A1 ⊊ A2 ⟺ R(A1) ⊋ R(A2)`` for closed
    antecedents, Step 7 compares row masks, and equal row masks mean
    equal items and confidence.  Walker node tables hold ``I(X)`` and
    intersect to ``R(I(X))``; decoded candidates (warm entries) come
    from checksummed envelopes of the same table.
    """

    item_ids: tuple[int, ...]
    supp: int
    supn: int
    row_mask: int

    @property
    def confidence(self) -> float:
        return self.supp / (self.supp + self.supn)


@dataclass(frozen=True)
class SearchContext:
    """Immutable per-run search parameters, shared by every node.

    Everything :func:`enumerate_frontier` needs besides the frontier itself:
    the dataset constants, the ORD class masks, the enabled prunings and
    whether the run is the ``reference`` oracle.  Picklable, so worker
    processes receive one copy per task.

    ``item_floor`` is the per-node class-support filter: every table
    below the root holds only the items with at least ``item_floor``
    rows in its node's region, ``(X ∪ P1(X) ∪ cand(X)) ∩ pos``
    (:func:`_node_table`).  Any group emitted at or below ``X`` has all its
    positive rows there (Pruning 2 cuts the nodes where it would not),
    so an item of it holds ``supp >= minsup`` of them; regions shrink
    along a path, so a node's filter is the same whatever its ancestors
    kept.  The walk finds the same groups, in the same order
    (``docs/architecture.md`` has the proof).  The proof needs Pruning
    2's cut, so without it ``item_floor`` is ``0``: no filter below the
    root's own (:meth:`root_state`).

    ``observe`` switches the production engine's Pruning-3 bound scan
    to its telemetry-counting variant (each table's
    ``observed_max_overlap``, which counts early exits into the walk's
    :class:`~repro.core.kernel.ScanStats`; the walk counts the scans
    and their tables' rows itself) so an observed run can report how
    far the early-exiting scans walk.  It never changes the
    mined output, and the disabled cost is one boolean check on the
    minority of nodes that survive the loose bounds.
    """

    constraints: Constraints
    n: int
    m: int
    positive_mask: int
    all_rows_mask: int
    use_p1: bool
    use_p2: bool
    use_p3: bool
    reference: bool = False
    observe: bool = False
    item_floor: int = 0

    @classmethod
    def for_table(
        cls,
        table: TransposedTable,
        constraints: Constraints,
        prunings: Iterable[str],
        reference: bool = False,
        observe: bool = False,
    ) -> "SearchContext":
        """Build the context for one mining run over ``table``.

        Args:
            table: the transposed table being mined.
            constraints: the run's thresholds.
            prunings: enabled pruning strategies (subset of
                ``{"p1", "p2", "p3"}``; ``p2`` degrades to off without
                ``p1``).
            reference: run the pre-kernel cost model instead of the
                production engine.
            observe: enable bound-scan telemetry (production engine
                only).

        Returns:
            The immutable :class:`SearchContext` shared by every node.
        """
        prunings = frozenset(prunings)
        use_p1 = "p1" in prunings
        use_p2 = "p2" in prunings and use_p1
        return cls(
            constraints=constraints,
            n=table.n,
            m=table.m,
            positive_mask=table.positive_mask,
            all_rows_mask=table.all_rows_mask,
            use_p1=use_p1,
            use_p2=use_p2,
            use_p3="p3" in prunings,
            reference=reference,
            observe=observe,
            item_floor=_item_floor(constraints.minsup, use_p2),
        )

    def root_state(self, table: TransposedTable) -> NodeState | None:
        """The enumeration root: ``X = {}`` over the items that can
        reach ``minsup``, or ``None`` when there are none.

        Rule support counts consequent rows only, so an item in an
        emitted upper bound ``A`` has class support
        ``|R(i) ∩ pos| >= supp(A) >= minsup``; the root keeps just
        those items (:func:`_root_items`), under their own ids, and
        the walk finds the same groups with the same rows.  A root
        that keeps no item has no group to find; it would only emit
        ``I(∅) = ∅``, so every caller skips the walk instead.

        Both engines build the pre-scanned root with
        :meth:`~repro.core.kernel.CondTable.build`: support-sorted for
        the production engine, in the dataset's item order for the
        reference engine.
        """
        if not table.n or not table.item_masks:
            return None
        ids = _root_items(table, self.constraints.minsup)
        if not len(ids):
            return None
        return NodeState(
            table=CondTable.build(
                table.item_masks, table.all_rows_mask, ids.tolist(),
                by_support=not self.reference,
            ),
            row_bit=0,
            x_mask=0,
            cand_pos=table.positive_mask,
            cand_neg=table.negative_mask,
            p1_removed=0,
            supp_in=0,
            supn_in=0,
            rm_is_positive=True,
        )


def _root_items(table: TransposedTable, minsup: int) -> np.ndarray:
    """The ascending ids of the items whose class support
    ``|R(i) ∩ pos|`` (:attr:`TransposedTable.class_support`) reaches
    ``minsup``.  Tests replace this function to mine an unfiltered
    root."""
    return np.flatnonzero(table.class_support >= minsup)


def _item_floor(minsup: int, use_p2: bool) -> int:
    """:attr:`SearchContext.item_floor`: ``minsup`` with Pruning 2 on,
    else ``0``.  Tests replace this function to mine without the
    per-node filter."""
    return minsup if use_p2 else 0


#: Tag of a frontier unit holding an unexplored :class:`NodeState`.
FRONTIER_STATE = "state"

#: Tag of a frontier unit holding a pending, not-yet-emitted
#: :class:`Candidate` (its node's children were already captured ahead
#: of it, preserving the children-first emission order).
FRONTIER_CAND = "cand"

#: The quantum of a walk that never yields (``quantum=None``).
_UNBOUNDED = 1 << 62

#: Nodes the serial search visits between counter and coverage updates
#: under telemetry (see :meth:`Farmer._search`): a few tens of
#: milliseconds of walking, so live progress moves inside one large
#: subtree between 0.2 s samples.
_PROGRESS_QUANTUM = 16384


def _child_state(
    table: CondTable,
    x_mask: int,
    new_pos: int,
    new_neg: int,
    p1_removed: int,
    supp: int,
    supn: int,
    inter: int,
    bit: int,
    m: int,
) -> NodeState:
    """The lazy child of an expanded node reached through row ``bit``.

    The arguments are the first eight fields of a walker frame (the
    parent's table, row set, post-Pruning-1 candidates and class split)
    plus the child's row bit; rows below ``m`` are positive in ORD.
    """
    above = ~((bit << 1) - 1)
    if bit.bit_length() <= m:
        return NodeState(
            table, bit, x_mask | bit, new_pos & above, new_neg, p1_removed,
            supp if inter & bit else supp + 1, supn, True,
        )
    return NodeState(
        table, bit, x_mask | bit, 0, new_neg & above, p1_removed,
        supp, supn if inter & bit else supn + 1, False,
    )


def _frame_units(frame: tuple, m: int) -> list[tuple[str, NodeState | Candidate]]:
    """A suspended frame as frontier units: its unvisited children in
    ORD order, then its pending candidate."""
    units: list[tuple[str, NodeState | Candidate]] = []
    remaining = frame[9]
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        units.append((FRONTIER_STATE, _child_state(*frame[:8], bit, m)))
    if frame[10] is not None:
        units.append((FRONTIER_CAND, frame[10]))
    return units


def _add_counts(
    counters: NodeCounters,
    nodes: int,
    loose: int,
    tight: int,
    identified: int,
    stats: ScanStats | None,
    scans: int,
    scan_rows: int,
) -> None:
    """Add a walk's node and pruning counts to ``counters``, nodes
    first, so a concurrent reader (the telemetry sampler) never sees
    more pruned nodes than nodes, and an observed walk's bound scans
    and the rows of their tables to ``stats``."""
    counters.nodes += nodes
    counters.pruned_loose += loose
    counters.pruned_tight += tight
    counters.pruned_identified += identified
    if scans:
        stats.bound_scans += scans
        stats.bound_rows_total += scan_rows


def enumerate_frontier(
    ctx: SearchContext,
    units: Sequence[tuple[str, NodeState | Candidate]],
    counters: NodeCounters,
    sink: "list[Candidate] | Callable[[Candidate], None]",
    quantum: int | None,
    stats: ScanStats | None = None,
    *,
    observer=None,
    progress: Callable[[int], int | None] | None = None,
) -> list[tuple[str, NodeState | Candidate]] | None:
    """``MineIRGs`` (Figure 5): the one depth-first row-enumeration walk.

    Every mine runs through here — each serial mine through
    :meth:`Farmer._search` (cold, warm-cache capture, traced), each
    shard part and the decomposition.  The walk enumerates an
    ordered frontier: a list of ``(tag, payload)`` units where
    :data:`FRONTIER_STATE` carries an unexplored subtree root and
    :data:`FRONTIER_CAND` a pending candidate whose children were
    already enumerated ahead of it.  ``[("state", root)]`` is a whole
    mine.

    The walk keeps an explicit stack of *expanded* nodes (Steps 1, 3-5
    done) and advances the innermost one a child row at a time.  A
    child's Step-2 loose bound needs only the parent's counts, so it is
    evaluated right there: on paper-shaped workloads most nodes die at
    that bound, and they get no :class:`NodeState`, no table and no
    frame (the reference engine alone still builds each visited node's
    table first — its eager pre-kernel cost model).  A child that
    survives builds its table (Step 3) and becomes the innermost frame;
    a frame whose children are exhausted is popped and its candidate
    emitted (Step 7 after Step 6, so every group with a smaller
    antecedent is already known — Lemma 3.4).  Node counts and
    emissions therefore happen in serial depth-first order,
    whatever the engine.  The walk makes no per-node call unless it has
    an ``observer`` or is the reference engine: limits are enforced
    between chunks of nodes, through ``progress``.

    After ``quantum`` nodes the walk stops and hands back the exact
    remaining frontier (the open frames' unvisited children and pending
    candidates, then the unread input units).  Enumerating the emitted
    prefix plus that frontier, in order and under any partition onto
    workers, reproduces the serial candidate sequence and per-node
    accounting — which is what keeps work-stealing schedules
    byte-identical after the Step-7 replay.

    Args:
        ctx: the immutable search parameters.
        units: the ordered frontier to enumerate — ``[("state", root)]``
            for a fresh subtree, or the return value of a previous
            preempted call.
        counters: mutated in place with node and pruning statistics.
        sink: receives each candidate as its subtree completes, in
            discovery order — a list to append to (the decomposition),
            or a callable (the serial search's Step-7 admission, which
            a warm-cache capture also records, a shard part's advisory
            prefilter).
        quantum: nodes visited before preemption or, with
            ``progress``, before its first call (values below one still
            visit one node, so every call makes progress); ``None``
            never preempts.  Pending candidates are always flushed — a
            returned frontier never leads with work-free units.
        stats: receives the bound-scan telemetry of an observed walk
            (``ctx.observe``); ``None`` there creates one scoped to the
            call.  Scans and rows are added whenever ``counters`` is,
            early exits as they happen.  Unobserved and reference walks
            ignore it.
        observer: optional node observer with ``enter(state)`` (every
            visited node) and ``leave(outcome)`` (one
            of ``"explored"``, ``"pruned:loose"``, ``"pruned:tight"``,
            ``"pruned:identified"``; an explored node leaves after its
            subtree and its candidate).  The tracer records the tree
            through it.
        progress: called as ``progress(children_left)`` each time the
            quantum expires, instead of preempting, just before the walk
            visits its next node: the walk's counts reach ``counters``
            first, and ``children_left`` is the number of children of
            the outermost open frame not finished yet — the one whose
            subtree is being walked included — or 0 when no frame is
            open.  For a walk of one root that is how many of the root's
            children are left.  It returns the next
            quantum, ``None`` to keep the last one, or ``0`` to stop
            there and hand back the frontier.  It may raise (a budget
            refusing the next node,
            :meth:`~repro.core.enumeration.SearchBudget.check`).  Live
            progress for the telemetry sampler and the budget's limit
            checks, without rebuilding the frontier.

    Returns:
        ``None`` when the frontier was fully enumerated, else the
        ordered remaining frontier to continue from.
    """
    emit = sink if callable(sink) else sink.append
    confidence = confidence_bound
    constraints = ctx.constraints
    satisfied_by = constraints.satisfied_by
    minsup = constraints.minsup
    minconf = constraints.minconf
    minchi = constraints.minchi
    use_p1 = ctx.use_p1
    use_p2 = ctx.use_p2
    use_p3 = ctx.use_p3
    n = ctx.n
    m = ctx.m
    positive_mask = ctx.positive_mask
    floor = ctx.item_floor
    # Under the per-node filter Step 4's tight support bound cannot
    # fire: every item of a non-empty table holds ``floor`` rows of its
    # node's region, each in X ∪ P1(X) (counted in ``supp``) or in
    # ``cand_pos``, so ``supp + max_overlap(cand_pos) >= minsup``; an
    # empty table is cut by Pruning 2 first.  There the walk does not
    # test the bound against minsup and scans for it only when the
    # confidence bound needs it (docs/architecture.md).
    tight_minsup = 0 if floor else minsup
    scan_tight = not floor or minconf > 0.0
    eager = ctx.reference
    # Bound-scan telemetry describes the production kernel; the
    # reference oracle reports none.
    observe = ctx.observe and not eager
    if observe and stats is None:
        stats = ScanStats()
    # Per-node work only some walks do: an observer, or the reference
    # engine's eager tables.
    slow = observer is not None or eager
    count_tails = use_p3 and not slow
    limit = _UNBOUNDED if quantum is None else max(1, quantum)
    pending = list(units)
    pending.reverse()
    # The innermost expanded node lives in locals (the first eight are
    # _child_state's arguments); enclosing ones wait on ``stack`` as
    # tuples of the same eleven fields.
    active = False
    table = None
    x_mask = new_pos = new_neg = p1 = supp = supn = inter = 0
    pos_left = remaining = skipped = 0
    candidate = None
    stack: list[tuple] = []
    state = None
    # Node and pruning counts, and an observed walk's bound scans and
    # their tables' rows, live in locals and reach ``counters`` and
    # ``stats`` together (_add_counts) when the walk returns, yields or
    # reports progress.  ``expanded`` never passes ``limit``.
    expanded = 0
    loose = 0
    tight_pruned = 0
    identified = 0
    scans = 0
    scan_rows = 0
    try:
        while True:
            if active:
                if not remaining:
                    if candidate is not None:
                        emit(candidate)
                    if observer is not None:
                        observer.leave("explored")
                    if stack:
                        (
                            table, x_mask, new_pos, new_neg, p1, supp, supn,
                            inter, pos_left, remaining, candidate,
                        ) = stack.pop()
                    else:
                        active = False
                    continue
                if expanded >= limit:
                    if progress is not None:
                        _add_counts(
                            counters, expanded, loose, tight_pruned,
                            identified, stats, scans, scan_rows,
                        )
                        expanded = loose = tight_pruned = identified = 0
                        scans = scan_rows = 0
                        # ``skipped`` children are counted, so finished;
                        # a frame below the outermost one is its open
                        # child.
                        step = progress(
                            stack[0][9].bit_count() + 1
                            if stack
                            else remaining.bit_count() - skipped
                        )
                        if step is not None:
                            limit = step
                    if expanded >= limit:
                        # Children counted ahead of the quantum's end
                        # leave the frame before it is handed back.
                        for _ in range(skipped):
                            remaining &= remaining - 1
                        break
                # Step 2 for the whole sibling tail at once: no remaining
                # positive child's loose support bound exceeds
                # ``supp + pos_left``, and a negative child's is ``supp``,
                # so below minsup every remaining child is loose-pruned.
                # Counting them here visits none of them and makes no
                # confidence lookup, as the per-node test short-circuits
                # on minsup too.  A tail longer than the quantum's room
                # is counted up to the quantum's end: ``skipped`` of its
                # lowest children are counted but still in ``remaining``,
                # so preemption points, frontiers and progress calls do
                # not move.
                if count_tails and supp + pos_left < minsup:
                    tail = remaining.bit_count() - skipped
                    if expanded + tail <= limit:
                        expanded += tail
                        loose += tail
                        remaining = skipped = 0
                        continue
                    loose += limit - expanded
                    skipped += limit - expanded
                    expanded = limit
                    continue
                # Step 6 — the next child in ORD order, its fields
                # computed inline as _child_state would, but only as far
                # as Step 2 needs them.  ``pos_left`` counts the positive
                # candidate rows above it (ORD visits ``new_pos``
                # ascending), which is its |EP| for Step 2.
                row_bit = remaining & -remaining
                remaining ^= row_bit
                if row_bit.bit_length() <= m:
                    pos_left -= 1
                    node_supp = supp if inter & row_bit else supp + 1
                    node_supn = supn
                    positive = True
                    bound = node_supp + pos_left
                else:
                    node_supp = supp
                    node_supn = supn if inter & row_bit else supn + 1
                    positive = False
                    bound = node_supp
                if observer is not None:
                    state = _child_state(
                        table, x_mask, new_pos, new_neg, p1, supp, supn,
                        inter, row_bit, m,
                    )
            else:
                if not pending:
                    break
                tag, payload = pending.pop()
                if tag == FRONTIER_CAND:
                    emit(payload)
                    continue
                if expanded >= limit:
                    if progress is not None:
                        _add_counts(
                            counters, expanded, loose, tight_pruned,
                            identified, stats, scans, scan_rows,
                        )
                        expanded = loose = tight_pruned = identified = 0
                        scans = scan_rows = 0
                        step = progress(0)
                        if step is not None:
                            limit = step
                    if expanded >= limit:
                        pending.append((tag, payload))
                        break
                # No frame is open, so the frame locals are free: the
                # unit's parent table goes where a child's would be.
                state = payload
                (
                    table, row_bit, node_x, node_pos, node_neg, node_p1,
                    node_supp, node_supn, positive,
                ) = payload
                bound = node_supp + node_pos.bit_count() if positive else node_supp
            expanded += 1
            if active:
                node_x = x_mask | row_bit
                above = ~((row_bit << 1) - 1)
                if positive:
                    node_pos = new_pos & above
                    node_neg = new_neg
                else:
                    node_pos = 0
                    node_neg = new_neg & above
                node_p1 = p1
            if slow:
                if observer is not None:
                    observer.enter(state)
                if eager:
                    # The reference cost model: every visited node pays
                    # for its own table, whether or not it survives.
                    node_table = _node_table(
                        table, row_bit, node_x, node_p1, node_pos,
                        positive_mask, floor,
                    )

            # Step 2 — Pruning 3, loose bounds, before TT|X exists.
            if use_p3 and (
                bound < minsup
                or (
                    minconf > 0.0
                    and confidence(bound, node_supn) < minconf
                )
            ):
                loose += 1
                if observer is not None:
                    observer.leave("pruned:loose")
                continue

            # Step 3 — materialize TT|X and scan it in one pass; the
            # intersection of all tuples is R(I(X)).
            if not eager:
                node_table = _node_table(
                    table, row_bit, node_x, node_p1, node_pos,
                    positive_mask, floor,
                )
            node_inter = node_table.inter
            union = node_table.union
            candidates = node_pos | node_neg

            # Step 1 — Pruning 2.  A row outside X and outside the
            # candidate list (and never compressed away by Pruning 1 on
            # this path) that occurs in every tuple proves this subtree
            # was enumerated before.
            if use_p2 and node_inter & ~node_x & ~candidates & ~node_p1:
                identified += 1
                if observer is not None:
                    observer.leave("pruned:identified")
                continue

            total_supp = (node_inter & positive_mask).bit_count()
            total_supn = node_inter.bit_count() - total_supp

            # Step 4 — Pruning 3, tight bounds (after the scan).
            if use_p3:
                if scan_tight and positive and node_pos:
                    if observe:
                        scans += 1
                        scan_rows += len(node_table)
                        tight = node_supp + node_table.observed_max_overlap(
                            stats, node_pos
                        )
                    else:
                        tight = node_supp + node_table.max_overlap(node_pos)
                else:
                    tight = node_supp
                if (
                    tight < tight_minsup
                    or (
                        minconf > 0.0
                        and confidence(tight, total_supn) < minconf
                    )
                    or (
                        minchi > 0.0
                        and chi_bound(total_supp, total_supn, n, m) < minchi
                    )
                ):
                    tight_pruned += 1
                    if observer is not None:
                        observer.leave("pruned:tight")
                    continue

            # Step 5 — Pruning 1: compress rows found in every tuple, and
            # drop candidates found in no tuple (they would yield
            # I(X) = ∅).
            y_mask = node_inter & candidates
            if use_p1:
                child_pos = union & node_pos & ~y_mask
                child_neg = union & node_neg & ~y_mask
                child_p1 = node_p1 | y_mask
                counters.rows_compressed += y_mask.bit_count()
            else:
                child_pos = union & node_pos
                child_neg = union & node_neg
                child_p1 = node_p1

            # Step 7, threshold half — the candidate upper bound
            # I(X) -> C, emitted once the subtree is done.
            if satisfied_by(total_supp, total_supn, n, m):
                ids = tuple(node_table.item_ids)
                node_candidate = Candidate(ids, total_supp, total_supn, node_inter)
            else:
                node_candidate = None

            # The node becomes the innermost frame; its children are
            # visited one row at a time at the top of the loop.
            if active:
                stack.append(
                    (
                        table, x_mask, new_pos, new_neg, p1, supp, supn,
                        inter, pos_left, remaining, candidate,
                    )
                )
            active = True
            table = node_table
            x_mask = node_x
            new_pos = child_pos
            new_neg = child_neg
            p1 = child_p1
            supp = total_supp
            supn = total_supn
            inter = node_inter
            pos_left = child_pos.bit_count()
            remaining = child_pos | child_neg
            candidate = node_candidate
    finally:
        _add_counts(
            counters, expanded, loose, tight_pruned, identified, stats,
            scans, scan_rows,
        )
    if not active and not pending:
        return None
    frontier: list[tuple[str, NodeState | Candidate]] = []
    if active:
        frontier.extend(
            _frame_units(
                (
                    table, x_mask, new_pos, new_neg, p1, supp, supn, inter,
                    pos_left, remaining, candidate,
                ),
                m,
            )
        )
        for frame in reversed(stack):
            frontier.extend(_frame_units(frame, m))
    pending.reverse()
    frontier.extend(pending)
    return frontier


def _phase(telemetry: "Telemetry | None", name: str):
    """``telemetry.phase(name)``, or a no-op context for an unobserved
    run."""
    return nullcontext() if telemetry is None else telemetry.phase(name)


@dataclass
class FarmerResult:
    """Outcome of one FARMER run.

    Attributes:
        groups: interesting rule groups, ordered by confidence descending
            (ties in store order); :meth:`sorted_groups` gives the fully
            deterministic ordering.
        consequent: the class label mined for.
        constraints: thresholds used.
        counters: search statistics (nodes, prunings fired, ...).
        elapsed_seconds: wall-clock mining time (excludes MineLB when
            lower bounds are disabled).
    """

    groups: list[RuleGroup]
    consequent: Hashable
    constraints: Constraints
    counters: NodeCounters
    elapsed_seconds: float = 0.0
    #: True when a non-strict budget stopped the search early; the groups
    #: found up to that point are valid rule groups, but the set may be
    #: incomplete and interestingness was only checked against it.
    truncated: bool = False
    #: Sharded-execution diagnostics (worker/task counters, advisory-bound
    #: drops); ``None`` for serial runs.
    parallel: "ParallelReport | None" = None

    def __len__(self) -> int:
        return len(self.groups)

    def sorted_groups(self) -> list[RuleGroup]:
        """Groups ordered by (confidence desc, support desc, antecedent)."""
        return sorted(
            self.groups,
            key=lambda group: (
                -group.confidence,
                -group.support,
                sorted(group.upper),
            ),
        )

    def upper_antecedents(self) -> set[frozenset[int]]:
        """The set of upper-bound antecedents (for comparisons in tests)."""
        return {group.upper for group in self.groups}


@dataclass
class _IRGStore:
    """Discovered IRGs with the index used by Step 7's check.

    Step 7 asks: does some stored group with antecedent ``⊂`` the
    candidate's have confidence ``>=`` the candidate's?  By the
    :class:`Candidate` precondition (closed pairs of one table) that
    antecedent test is a row-mask test on at most ``n`` bits: the stored
    rows contain the candidate's.  A stored antecedent inside the
    candidate's contains its own lowest item, so the store chains its
    groups by lowest item id and walks only the chains of the
    candidate's items.  No antecedent is empty: a root that keeps no
    item skips the walk (:meth:`SearchContext.root_state`); a child
    whose filtered table is empty is cut by Pruning 2, since its
    intersection is every row, among them the skipped sibling rows
    whose loss emptied it (with Pruning 2 off nothing below the root
    is filtered, and Step 5 only visits rows some item holds); and
    decoded candidates without items are refused
    (:func:`~repro.core.frontier.candidate_from_row`).  Each chain runs
    by confidence descending, so a walk stops at the first group below
    the candidate's confidence and only the qualifying prefix pays for
    the row-mask test.  The paper observes this comparison dominates
    at low supports ("more time will be spent when the number of IRGs
    ... increase"); a linear scan of the whole qualifying prefix cost
    about 20 µs per candidate at BC minsup 6.  The chains are links in
    flat per-group lists, not a container per chain: most groups start
    a chain of their own, and a container each would add a tracked
    object per group for the garbage collector to count and walk.

    Groups are kept in admission order, each with its negated
    confidence beside its chain link.  Output order (confidence
    descending, ties in admission order) is one stable sort, taken by
    :meth:`_ranked` when the groups are built.  A warm answer hands the
    store ``built``, the groups earlier answers from the same cache
    entry built, by row mask (a closed pair's row mask fixes its group),
    so a repeated answer builds only the groups it has not built before.

    An upper bound offered again (reachable when Pruning 2 is off: the
    same ``I(X)`` rediscovered at a later node) has a stored group's
    row mask, and is skipped without counting a rejection.  By the
    :class:`Candidate` precondition it has the stored copy's confidence
    and, with the same items, its chain, so the walk meets that copy
    inside the prefix it visits anyway.  No strictly smaller blocking
    group can come first: by
    Lemma 3.4 it would have been stored before the first copy, and
    blocked that one too.
    """

    # Per group, in admission order: (item ids, supp, supn, row mask).
    entries: list[tuple[tuple[int, ...], int, int, int]] = field(default_factory=list)
    # The chains: lowest item id -> first group; per group, its row
    # mask, its negated confidence and the next group of its chain (-1
    # at the end).
    heads: dict[int, int] = field(default_factory=dict)
    chain_masks: list[int] = field(default_factory=list)
    chain_negs: list[float] = field(default_factory=list)
    chain_next: list[int] = field(default_factory=list)
    built: "dict[int, RuleGroup] | None" = None

    def offer(self, candidate: Candidate, counters: NodeCounters) -> bool:
        """Step 7's admission for one candidate; whether it was stored.

        Shared by the serial miner (called in discovery order as nodes
        unwind), the warm filter and the sharded miner's reduce (both
        replaying a candidate sequence in that order).  One walk
        decides the verdict and finds where the candidate links into
        its own chain.
        """
        item_ids = candidate.item_ids
        rows = candidate.row_mask
        neg_confidence = -candidate.confidence
        heads = self.heads
        masks = self.chain_masks
        negs = self.chain_negs
        next_group = self.chain_next
        key = min(item_ids)
        for chain in item_ids:
            previous, group = -1, heads.get(chain, -1)
            while group >= 0 and negs[group] <= neg_confidence:
                mask = masks[group]
                if mask & rows == rows:
                    if mask != rows:
                        counters.candidates_rejected += 1
                    return False
                previous, group = group, next_group[group]
            if chain == key:
                # After every group of its chain with confidence >= its own.
                link, following = previous, group
        added = len(negs)
        self.entries.append((tuple(item_ids), candidate.supp, candidate.supn, rows))
        masks.append(rows)
        negs.append(neg_confidence)
        next_group.append(following)
        if link < 0:
            heads[key] = added
        else:
            next_group[link] = added
        return True

    def _ranked(self) -> list[tuple[tuple[int, ...], int, int, int]]:
        """The stored groups in output order: confidence descending,
        ties in admission order."""
        entries = self.entries
        order = sorted(range(len(entries)), key=self.chain_negs.__getitem__)
        return [entries[group] for group in order]


class Farmer:
    """The FARMER miner.

    Args:
        constraints: minimum support / confidence / chi-square thresholds.
        prunings: which pruning strategies to enable; any subset of
            ``{"p1", "p2", "p3"}``.  Disabling prunings never changes the
            mined groups (verified by the test suite) — it only slows the
            search.  ``p2`` silently degrades to off when ``p1`` is off.
        compute_lower_bounds: run MineLB on each discovered group (the
            paper's optional Step 3).
        budget: optional node/time limits; exceeding them raises
            :class:`~repro.errors.BudgetExceeded`.
        n_workers: shard the row-enumeration search across this many
            processes (:mod:`repro.core.parallel`).  ``None`` (default)
            runs the in-process serial traversal; ``1`` runs the sharded
            decompose/execute/reduce pipeline without worker processes
            (exercises the same code path, useful for testing).  The
            mined result is bit-identical to the serial miner for every
            worker count.  Node budgets (``max_nodes``) force the serial
            path — deterministic node accounting needs one traversal.
        retry: fault-tolerance policy for sharded runs
            (:class:`~repro.core.parallel.RetryPolicy`); ``None`` uses
            the defaults.
        steal: in sharded runs with more than one worker, shard parts
            yield their enumeration frontier every ``steal_quantum``
            nodes and the coordinator re-enqueues donated halves onto
            idle workers (:mod:`repro.core.parallel`); off, every shard
            runs to completion as one part.  The mined result stays
            byte-identical to the serial miner for any steal schedule.
        steal_quantum: nodes a shard part visits between yield points
            under ``steal``; ``None`` uses
            :data:`~repro.core.parallel.DEFAULT_STEAL_QUANTUM`.
        engine: ``None`` (default) for the production engine, or
            ``"reference"`` for the pre-kernel cost model (the
            differential oracle of the tests and the perf gate).
            ``"kernel"`` and ``"numpy"`` are accepted as spellings of
            the production engine (see :data:`ENGINES`).  Both engines
            produce byte-identical serialized output.
        warm_cache: directory of persisted frontier entries
            (:mod:`repro.core.frontier`).  When set, a mine first
            consults the cache: an entry whose constraints are no looser
            answers by filtering its recorded evaluation sequence with
            zero enumeration; anything else mines cold (serially) and
            adds an entry.  The mined output is
            byte-identical to a cold mine either way.  Warm answers
            never shard, so ``n_workers``, ``steal`` and
            ``steal_quantum`` are ignored.  Incompatible with
            ``max_nodes`` budgets.
        telemetry: optional :class:`~repro.obs.telemetry.Telemetry` to
            observe the run — phase timers, run-log events, live
            progress.  ``None`` (default) disables telemetry entirely.
            Telemetry is observational: a run produces byte-identical
            results and artifacts with and without it.
    """

    #: Subclasses that observe every node (e.g. the tracer) set this to
    #: ``False``; such miners always traverse serially.
    _supports_sharding = True

    def __init__(
        self,
        constraints: Constraints | None = None,
        prunings: Iterable[str] = ALL_PRUNINGS,
        compute_lower_bounds: bool = False,
        budget: SearchBudget | None = None,
        n_workers: int | None = None,
        retry: "RetryPolicy | None" = None,
        steal: bool = False,
        steal_quantum: int | None = None,
        engine: str | None = None,
        telemetry: "Telemetry | None" = None,
        warm_cache: str | None = None,
    ) -> None:
        self.constraints = constraints if constraints is not None else Constraints()
        self.telemetry = telemetry
        prunings = frozenset(prunings)
        unknown = prunings - ALL_PRUNINGS
        if unknown:
            raise ConstraintError(f"unknown pruning strategies: {sorted(unknown)}")
        self.prunings = prunings
        self.reference = _is_reference(engine)
        self.compute_lower_bounds = compute_lower_bounds
        self.budget = budget if budget is not None else SearchBudget()
        if n_workers is not None and n_workers < 1:
            raise ConstraintError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.retry = retry
        self.steal = steal
        self.steal_quantum = steal_quantum
        self.warm_cache = warm_cache
        if warm_cache is not None:
            if self.budget.max_nodes is not None:
                raise UsageError(
                    "warm_cache cannot be combined with max_nodes budgets: "
                    "a warm re-mine skips enumeration, so node accounting "
                    "is not comparable; use a max_seconds budget instead"
                )
            if not self._supports_sharding:
                raise UsageError(
                    f"{type(self).__name__} hooks the serial traversal, "
                    "so it cannot answer from a frontier cache"
                )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def mine(self, dataset: ItemizedDataset, consequent: Hashable) -> FarmerResult:
        """Mine the interesting rule groups of ``dataset`` for
        ``consequent``.

        Args:
            dataset: the itemized input table.
            consequent: the class label on the rule RHS.

        Returns:
            A :class:`FarmerResult`; groups carry lower bounds iff the
            miner was built with ``compute_lower_bounds=True``.
        """
        return self.mine_table(TransposedTable.build(dataset, consequent))

    def mine_table(self, table: TransposedTable) -> FarmerResult:
        """Mine from a pre-built :class:`TransposedTable`.

        Args:
            table: the transposed table to mine (see
                :class:`~repro.data.transpose.TransposedTable`).

        Returns:
            The :class:`FarmerResult`; groups carry lower bounds iff the
            miner was built with ``compute_lower_bounds=True``.
        """
        started = time.perf_counter()
        report = stats = None
        telemetry = self.telemetry
        warm = self.warm_cache is not None
        sharded = not warm and self._wants_sharding()
        self.budget.start()
        if telemetry is not None:
            telemetry.run_start(
                consequent=str(table.consequent),
                n_rows=table.n,
                m_positive=table.m,
                n_items=len(table.item_masks),
                minsup=self.constraints.minsup,
                minconf=self.constraints.minconf,
                minchi=self.constraints.minchi,
                prunings=sorted(self.prunings),
                engine="reference" if self.reference else "production",
                mode="warm" if warm else ("sharded" if sharded else "serial"),
            )
        try:
            if warm:
                from .frontier import warm_mine_table

                store, counters, truncated, stats = warm_mine_table(self, table)
            elif sharded:
                from .parallel import mine_table_parallel

                store, counters, truncated, report = mine_table_parallel(
                    table,
                    constraints=self.constraints,
                    prunings=self.prunings,
                    n_workers=self.n_workers if self.n_workers is not None else 1,
                    budget=self.budget,
                    retry=self.retry,
                    steal=self.steal,
                    steal_quantum=self.steal_quantum,
                    engine="reference" if self.reference else None,
                    telemetry=telemetry,
                )
            else:
                store = _IRGStore()
                with _phase(telemetry, "search"):
                    counters, truncated, stats = self._search(table, store)
            with _phase(telemetry, "build"):
                groups = self._finish_groups(table, store)
        finally:
            if telemetry is not None:
                telemetry.stop_sampling()
        counters.groups_emitted = len(groups)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.fold_node_counters(counters)
            if stats is not None:
                telemetry.add_counters(stats.stats())
            telemetry.run_end(
                groups=len(groups),
                nodes=counters.nodes,
                truncated=truncated,
                seconds=round(elapsed, 6),
            )
        return FarmerResult(
            groups=groups,
            consequent=table.consequent,
            constraints=self.constraints,
            counters=counters,
            elapsed_seconds=elapsed,
            truncated=truncated,
            parallel=report,
        )

    def _finish_groups(
        self, table: TransposedTable, store: _IRGStore
    ) -> list[RuleGroup]:
        """Materialize rule groups (plus MineLB when enabled)."""
        groups = self._build_groups(table, store)
        if self.compute_lower_bounds:
            groups = [
                attach_lower_bounds(table.source, group) for group in groups
            ]
        return groups

    def _wants_sharding(self) -> bool:
        return (
            self.n_workers is not None
            and self._supports_sharding
            and self.budget.max_nodes is None
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _search(
        self,
        table: TransposedTable,
        store: _IRGStore,
        sink: "Callable[[Candidate, NodeCounters], object] | None" = None,
    ) -> "tuple[NodeCounters, bool, ScanStats | None]":
        """``MineIRGs`` (Figure 5) on ``table``'s root: the one serial
        search.

        Cold mines, warm-cache captures (:mod:`repro.core.frontier`) and
        traced mines walk through here, with or without telemetry.
        ``sink(candidate, counters)`` receives each Step-7 candidate in
        discovery order, as its subtree completes; the default,
        ``store.offer``, is Step 7's admission, and every group with a
        smaller antecedent is in the store by then (Lemma 3.4) —
        including for the root, whose I(∅) is a real group exactly when
        some rows contain every item.  A capture's sink records the
        candidate and then offers it.  The caller starts the budget.

        One ``progress`` hook charges the budget where a limit could
        trip (:meth:`SearchBudget.check`) and, under telemetry, also
        every :data:`_PROGRESS_QUANTUM` nodes, where it updates the
        coverage estimate the telemetry sampler reads from its own
        thread: the root's children finished so far, weighted by their
        candidate rows (the proxy the sharded decomposition also
        balances on: in ORD the ``k``-th of ``C`` children has the
        ``C - 1 - k`` rows after it).  The first report under telemetry
        comes right after the root, while all ``C`` of its children are
        left, so counters and coverage move every few thousand nodes
        even inside one large subtree.  Nothing is split off or rebuilt,
        so the output is unchanged.

        Returns:
            ``(counters, truncated, stats)``: the run's node counters,
            whether a non-strict budget stopped the walk, and the
            bound-scan telemetry (``None`` without telemetry and for the
            reference oracle).
        """
        telemetry = self.telemetry
        budget = self.budget
        counters = NodeCounters()
        stats = (
            ScanStats() if telemetry is not None and not self.reference else None
        )
        ctx = SearchContext.for_table(
            table,
            self.constraints,
            self.prunings,
            reference=self.reference,
            observe=telemetry is not None,
        )
        root = ctx.root_state(table)
        if root is None:
            return counters, False, stats
        offer = store.offer if sink is None else sink

        def emit(candidate: Candidate) -> None:
            offer(candidate, counters)

        quantum = _UNBOUNDED
        coverage = None
        if telemetry is not None:
            quantum = _PROGRESS_QUANTUM
            coverage = {"done": 0.0, "total": 0.0}
            entries = store.entries

            def sample() -> dict:
                return {
                    "phase": "search",
                    "nodes": counters.nodes,
                    "pruned": (
                        counters.pruned_loose
                        + counters.pruned_tight
                        + counters.pruned_identified
                    ),
                    "groups": len(entries),
                    "done_weight": coverage["done"],
                    "total_weight": coverage["total"],
                }

            telemetry.start_sampling(sample)
        children = 0

        def progress(children_left: int) -> int:
            nonlocal children
            if coverage is not None:
                if not children:
                    children = children_left
                    coverage["total"] = float(children * (children - 1) // 2)
                done = children - children_left
                coverage["done"] = float(
                    done * (children - 1) - done * (done - 1) // 2
                )
            return min(budget.check(counters), quantum)

        truncated = False
        try:
            # ``progress`` charges the root's node; under telemetry the
            # next call comes right after it.
            first = progress(0)
            enumerate_frontier(
                ctx,
                [(FRONTIER_STATE, root)],
                counters,
                emit,
                first if coverage is None else 1,
                stats,
                observer=self._node_observer(ctx, store),
                progress=progress,
            )
            if coverage is not None:
                coverage["done"] = coverage["total"]
        except BudgetExceeded:
            if budget.strict:
                raise
            truncated = True
        finally:
            if telemetry is not None:
                telemetry.stop_sampling()
        # The nodes walked since the last check.
        budget.advance(counters.nodes - budget.nodes)
        return counters, truncated, stats

    def _node_observer(self, ctx: SearchContext, store: _IRGStore):
        """The walker's node observer for a walk under ``ctx`` that
        offers its candidates to ``store`` (see
        :func:`enumerate_frontier`); ``None`` here, the tracer's
        recorder in :mod:`repro.core.trace`."""
        return None

    # ------------------------------------------------------------------
    # Result materialization
    # ------------------------------------------------------------------

    def _build_groups(
        self, table: TransposedTable, store: _IRGStore
    ) -> list[RuleGroup]:
        consequent, n, m = table.consequent, table.n, table.m
        original_rows = table.original_rows
        built = {} if store.built is None else store.built
        groups = []
        for item_ids, supp, supn, row_mask in store._ranked():
            group = built.get(row_mask)
            if group is None:
                group = built[row_mask] = RuleGroup(
                    frozenset(item_ids),
                    consequent,
                    original_rows(row_mask),
                    supp,
                    supp + supn,
                    n,
                    m,
                )
            groups.append(group)
        return groups


def mine_irgs(
    dataset: ItemizedDataset,
    consequent: Hashable,
    minsup: int = 1,
    minconf: float = 0.0,
    minchi: float = 0.0,
    compute_lower_bounds: bool = False,
    prunings: Iterable[str] = ALL_PRUNINGS,
    budget: SearchBudget | None = None,
    n_workers: int | None = None,
    steal: bool = False,
    steal_quantum: int | None = None,
    engine: str | None = None,
    telemetry: "Telemetry | None" = None,
    warm_cache: str | None = None,
) -> FarmerResult:
    """One-call convenience wrapper around :class:`Farmer`.

    Args:
        dataset: the itemized input table.
        consequent: the class label on the rule RHS.
        minsup: minimum rule support (rows).
        minconf: minimum confidence in ``[0, 1]``.
        minchi: minimum chi-square value.
        compute_lower_bounds: run MineLB on the results.
        prunings: enabled pruning strategies.
        budget: optional node / wall-clock limits.
        n_workers: shard the search across this many processes (see
            :mod:`repro.core.parallel`); the result is bit-identical to
            the serial miner for any worker count.
        steal: schedule sharded runs with cooperative work stealing
            (see :class:`Farmer`); never changes the mined result.
        steal_quantum: nodes a stealing worker expands before donating
            its frontier (``None`` = the default quantum).
        engine: ``None`` (production) or ``"reference"`` (see
            :class:`Farmer`).
        telemetry: optional :class:`~repro.obs.telemetry.Telemetry`
            observer (metrics, run log, progress); ``None`` (default)
            disables instrumentation entirely.
        warm_cache: frontier-cache directory for warm re-mining (see
            :class:`Farmer`); the warm answer is byte-identical to a
            cold mine and never shards.

    Returns:
        The :class:`FarmerResult` of the configured :class:`Farmer`.

    >>> from repro.data.dataset import ItemizedDataset
    >>> data = ItemizedDataset.from_lists(
    ...     [[0, 1], [0, 1], [1]], ["C", "C", "D"], n_items=2)
    >>> result = mine_irgs(data, "C", minsup=1)
    >>> sorted(sorted(g.upper) for g in result.groups)
    [[0, 1], [1]]
    """
    miner = Farmer(
        constraints=Constraints(minsup=minsup, minconf=minconf, minchi=minchi),
        prunings=prunings,
        compute_lower_bounds=compute_lower_bounds,
        budget=budget,
        n_workers=n_workers,
        steal=steal,
        steal_quantum=steal_quantum,
        engine=engine,
        telemetry=telemetry,
        warm_cache=warm_cache,
    )
    return miner.mine(dataset, consequent)
