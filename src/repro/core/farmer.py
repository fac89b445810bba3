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
* every pruning strategy can be disabled independently (the ablation
  benchmark relies on this); disabling any of them never changes the
  mined result, only the work done.  Pruning 2 requires Pruning 1's
  bookkeeping (Lemma 3.6 assumes it), so ``p2`` is ignored when ``p1``
  is off.
* the traversal is one explicit-stack walk, :func:`enumerate_frontier`,
  over an ordered frontier of picklable :class:`NodeState` units.  It
  can stop after a node quantum and hand back the exact remaining
  frontier, so the same walk runs serially, per shard in worker
  processes (:mod:`repro.core.parallel`) and under frontier capture
  (:mod:`repro.core.frontier`), with output bit-identical to the
  serial traversal.  It needs no recursion, so no interpreter
  recursion limit is touched.
* a node's conditional table is materialized *lazily*: the Step-2 loose
  bounds need only the parent's counts, so the walk evaluates them at
  the parent, and on the paper's workloads the large majority of nodes
  are loose-pruned and never get a table, a state object or a frame.
  The production engine builds a surviving node's table and scan in one
  fused pass and evaluates each node's bounds inline on its counts.  Its
  tables are packed uint64 columns while ``TT|X`` is wide and the
  kernel's keyed int masks, with early-exiting bound scans on the
  support-sorted order, once it is narrow
  (:data:`~repro.core.npbitset.HANDOFF_ITEMS`).
  ``engine="reference"`` keeps the pre-kernel cost model for
  differential tests and the perf gate: the dataset's item order, every
  visited node's table built before its Step-2 bound and full bound
  scans.  Both produce byte-identical serialized output.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, NamedTuple, Sequence

from ..data.dataset import ItemizedDataset
from ..data.transpose import TransposedTable
from ..errors import BudgetExceeded, ConstraintError, UsageError
from . import bitset
from .bounds import chi_bound, confidence_bound
from .constraints import Constraints
from .enumeration import NodeCounters, SearchBudget
from .kernel import CondTable, CondTableProtocol, ScanStats
from .minelb import attach_lower_bounds
from .npbitset import root_table
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
    (Lemma 3.3), deferred so a loose-pruned node never pays for it.
    :meth:`resolve` materializes it on demand.

    Attributes:
        table: the node's conditional table (any
            :class:`~repro.core.kernel.CondTableProtocol`
            representation) when ``row_bit == 0``, else the parent's;
            ``None`` in the detached wire form.
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

    table: CondTableProtocol
    row_bit: int
    x_mask: int
    cand_pos: int
    cand_neg: int
    p1_removed: int
    supp_in: int
    supn_in: int
    rm_is_positive: bool

    def resolve(self) -> CondTableProtocol:
        """This node's own conditional table, materialized if still lazy."""
        if self.row_bit:
            return self.table.extend(self.row_bit)
        return self.table

    def estimate(self) -> int:
        """Subtree-size proxy for load balancing and progress: the
        number of remaining candidate rows."""
        return bitset.bit_count(self.cand_pos | self.cand_neg)


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
        return cls(
            constraints=constraints,
            n=table.n,
            m=table.m,
            positive_mask=table.positive_mask,
            all_rows_mask=table.all_rows_mask,
            use_p1=use_p1,
            use_p2="p2" in prunings and use_p1,
            use_p3="p3" in prunings,
            reference=reference,
            observe=observe,
        )

    def root_state(self, table: TransposedTable) -> NodeState:
        """The enumeration root: ``X = {}`` over the full table.

        The production engine builds the support-sorted, pre-scanned
        root through :func:`~repro.core.npbitset.root_table` (packed
        words or int masks by root width, identical item order); the
        reference engine keeps the dataset's item order, unranked, so
        its bound scans walk every tuple.
        """
        cond: CondTableProtocol
        if self.reference:
            masks = table.item_masks
            cond = CondTable.reference(
                range(len(masks)), masks, table.all_rows_mask
            )
        else:
            cond = root_table(
                table.item_masks, table.all_rows_mask, table.packed_words
            )
        return NodeState(
            table=cond,
            row_bit=0,
            x_mask=0,
            cand_pos=table.positive_mask,
            cand_neg=table.negative_mask,
            p1_removed=0,
            supp_in=0,
            supn_in=0,
            rm_is_positive=True,
        )


#: Tag of a frontier unit holding an unexplored :class:`NodeState`.
FRONTIER_STATE = "state"

#: Tag of a frontier unit holding a pending, not-yet-emitted
#: :class:`Candidate` (its node's children were already captured ahead
#: of it, preserving the children-first emission order).
FRONTIER_CAND = "cand"

#: The quantum of a walk that never yields (``quantum=None``).
_UNBOUNDED = 1 << 62

#: Nodes the telemetry-enabled serial walk visits between counter
#: updates (see :meth:`Farmer._walk_observed`): a few tens of
#: milliseconds of walking, so live progress moves inside one large
#: subtree between 0.2 s samples.
_PROGRESS_QUANTUM = 16384


def _child_state(
    table: CondTableProtocol,
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

    Every mine runs through here — serial, sharded (each shard part),
    decomposition and warm-cache capture.  The walk enumerates an
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
            discovery order — a list to append to (the decomposition,
            the warm-cache capture), or a callable (the serial miner's
            Step-7 admission, a shard part's advisory prefilter).
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
    eager = ctx.reference
    # Reference tables have no popcounts to account a scan by.
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
            if slow:
                if observer is not None:
                    observer.enter(state)
                if eager:
                    # The reference cost model: every visited node pays
                    # for its own table, whether or not it survives.
                    node_table = table.extend(row_bit) if row_bit else table

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

            # Step 3 — materialize TT|X and scan it in one pass; the
            # intersection of all tuples is R(I(X)).
            if not eager:
                node_table = table.extend(row_bit) if row_bit else table
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
                if positive and node_pos:
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
                    tight < minsup
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


def _no_phase(name: str) -> nullcontext:
    """The phase timer of an unobserved run: does nothing."""
    return nullcontext()


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
    candidate's items.  No antecedent is empty: the walk's root holds
    every item of a non-empty vocabulary, a child keeps its parent's
    items that hold the child's row and Step 5 only visits rows some
    item holds, and decoded candidates without items are refused
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
    :meth:`_ranked` when the groups are built.

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
        report = None
        telemetry = self.telemetry
        warm = self.warm_cache is not None
        sharded = not warm and self._wants_sharding()
        phase = telemetry.phase if telemetry is not None else _no_phase
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

                store, counters, truncated = warm_mine_table(self, table)
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
                with phase("search"):
                    store = self._mine_table(table)
                counters = self._counters
                truncated = self._truncated
            with phase("build"):
                groups = self._finish_groups(table, store)
        finally:
            if telemetry is not None:
                telemetry.stop_sampling()
        counters.groups_emitted = len(groups)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.fold_node_counters(counters)
            if not sharded and not warm and not self.reference:
                telemetry.add_counters(self._scan_stats.stats())
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

    def _mine_table(self, table: TransposedTable) -> _IRGStore:
        self._table = table
        self._counters = counters = NodeCounters()
        self._store = store = _IRGStore()
        self._scan_stats = (
            ScanStats()
            if self.telemetry is not None and not self.reference
            else None
        )
        self._truncated = False
        budget = self.budget
        budget.start()

        if table.n == 0 or not table.item_masks:
            return store

        ctx = SearchContext.for_table(
            table,
            self.constraints,
            self.prunings,
            reference=self.reference,
            observe=self.telemetry is not None,
        )

        # Step 7's admission, in discovery order as subtrees complete.
        # Every group with a smaller antecedent is in the store by then
        # (Lemma 3.4) — including for the root, whose I(∅) is a real
        # group exactly when some rows contain every item.
        def offer(candidate: Candidate) -> None:
            store.offer(candidate, counters)

        # The walk counts its own nodes and charges the budget only where
        # a limit could trip (SearchBudget.check).
        def check(children_left: int = 0) -> int:
            return budget.check(counters)

        units = [(FRONTIER_STATE, ctx.root_state(table))]
        observer = self._node_observer()
        try:
            if self.telemetry is None:
                enumerate_frontier(
                    ctx, units, counters, offer, check(),
                    observer=observer, progress=check,
                )
            else:
                self._walk_observed(ctx, units, offer, check, observer)
        except BudgetExceeded:
            if budget.strict:
                raise
            self._truncated = True
        finally:
            if self.telemetry is not None:
                self.telemetry.stop_sampling()
        # The nodes walked since the last check.
        budget.advance(counters.nodes - budget.nodes)
        return store

    def _node_observer(self):
        """The walker's node observer (see :func:`enumerate_frontier`);
        ``None`` here, the tracer's recorder in :mod:`repro.core.trace`."""
        return None

    def _walk_observed(
        self,
        ctx: SearchContext,
        units: list,
        offer: Callable[[Candidate], None],
        check: Callable[[int], int],
        observer,
    ) -> None:
        """The telemetry-enabled serial walk.

        The same walk as a bare mine's, reporting progress every
        :data:`_PROGRESS_QUANTUM` nodes instead of only where a limit
        could trip: the shared counters move, and the root's children
        finished so far give the coverage estimate, weighted by their
        candidate rows (the proxy the sharded decomposition also
        balances on: in ORD the ``k``-th of ``C`` children has the
        ``C - 1 - k`` rows after it).  The first report comes right
        after the root, while all ``C`` of its children are left.  The
        telemetry sampler reads both from its own thread, so they move
        every few thousand nodes even inside one large subtree.  The
        same hook charges the budget (``check``, see
        :meth:`SearchBudget.check`), so the quantum is also cut short
        where a limit could trip.  Nothing below the root is
        instrumented and nothing is split off or rebuilt, so the output
        is unchanged.  A node observer (the tracer) gets the walk with
        the budget hook alone; its counters and coverage stay unknown
        until it returns.
        """
        counters = self._counters
        store_entries = self._store.entries
        coverage = {"done": 0.0, "total": 0.0}

        def sample() -> dict:
            return {
                "phase": "search",
                "nodes": counters.nodes,
                "pruned": (
                    counters.pruned_loose
                    + counters.pruned_tight
                    + counters.pruned_identified
                ),
                "groups": len(store_entries),
                "done_weight": coverage["done"],
                "total_weight": coverage["total"],
            }

        self.telemetry.start_sampling(sample)
        # ``check`` charges the root's node.
        span = check()
        if observer is not None:
            enumerate_frontier(
                ctx, units, counters, offer, span, stats=self._scan_stats,
                observer=observer, progress=check,
            )
            return
        children = 0

        def progress(children_left: int) -> int:
            nonlocal children
            if not children:
                children = children_left
                coverage["total"] = float(children * (children - 1) // 2)
            done = children - children_left
            coverage["done"] = float(
                done * (children - 1) - done * (done - 1) // 2
            )
            return min(check(), _PROGRESS_QUANTUM)

        enumerate_frontier(
            ctx, units, counters, offer, 1, stats=self._scan_stats,
            progress=progress,
        )
        coverage["done"] = coverage["total"]

    # ------------------------------------------------------------------
    # Result materialization
    # ------------------------------------------------------------------

    def _build_groups(
        self, table: TransposedTable, store: _IRGStore
    ) -> list[RuleGroup]:
        consequent, n, m = table.consequent, table.n, table.m
        original_rows = table.original_rows
        return [
            RuleGroup(
                frozenset(item_ids),
                consequent,
                original_rows(row_mask),
                supp,
                supp + supn,
                n,
                m,
            )
            for item_ids, supp, supn, row_mask in store._ranked()
        ]


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
