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

* a conditional table is a pair of parallel lists ``(item_ids, masks)``;
  extending to a child filters by one bit (Lemma 3.3);
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
  The ``kernel`` engine (:mod:`repro.core.kernel`, the default) builds a
  surviving node's table and scan in one fused pass, early-exits bound
  scans on the support-sorted order and memoizes pure per-node
  evaluations per run (:class:`~repro.core.kernel.KernelCache`);
  ``numpy`` does the table work on packed uint64 columns.
  ``engine="reference"`` keeps the pre-kernel cost model for
  differential tests and the perf gate: the dataset's item order, every
  visited node's table built before its Step-2 bound, full bound scans
  and no caches.  All engines produce byte-identical serialized output.
"""

from __future__ import annotations

import bisect
import os
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
from .enumeration import NodeCounters, SearchBudget, scan_items
from .kernel import CondTable, CondTableProtocol, KernelCache
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
    "ENGINE_ENV",
    "NodeState",
    "Candidate",
    "SearchContext",
    "available_engines",
    "default_engine",
    "enumerate_frontier",
    "FRONTIER_STATE",
    "FRONTIER_CAND",
]

#: The full set of pruning strategy names.
ALL_PRUNINGS = frozenset({"p1", "p2", "p3"})

#: Selectable per-node expansion engines (see module docstring).
#: ``"numpy"`` additionally requires NumPy to be installed
#: (:func:`available_engines` reports what this interpreter can run).
ENGINES = frozenset({"kernel", "reference", "numpy"})

#: Environment variable naming the engine used when a miner is built
#: without an explicit ``engine=`` argument (see :func:`default_engine`).
ENGINE_ENV = "FARMER_ENGINE"


def _load_npbitset():
    """The packed-array backend module, or a loud :class:`UsageError`.

    Import is deferred so the ``"kernel"``/``"reference"`` engines — and
    everything else in this package — keep working on interpreters
    without NumPy.
    """
    try:
        from . import npbitset
    except ImportError as exc:
        raise UsageError(
            "engine 'numpy' requires NumPy, which is not installed; "
            "use engine='kernel' or install numpy"
        ) from exc
    return npbitset


def _validate_engine(engine: str) -> str:
    """Reject unknown engines and unavailable backends, loudly."""
    if engine not in ENGINES:
        raise UsageError(
            f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}"
        )
    if engine == "numpy":
        _load_npbitset()
    return engine


def available_engines() -> tuple[str, ...]:
    """The registered engines this interpreter can actually run, sorted.

    Every name in :data:`ENGINES` except ``"numpy"`` when NumPy is not
    importable.  The conformance suite parameterizes over this.
    """
    names = []
    for name in sorted(ENGINES):
        try:
            _validate_engine(name)
        except UsageError:
            continue
        names.append(name)
    return tuple(names)


def default_engine() -> str:
    """The engine used when none is requested explicitly.

    Reads :data:`ENGINE_ENV` (``FARMER_ENGINE``) so a whole test run or
    batch job can be switched onto one engine without touching call
    sites — CI runs the tier-1 suite under an engine matrix this way —
    and falls back to ``"kernel"`` when unset.

    Returns:
        A validated engine name.

    Raises:
        UsageError: if the environment names an unknown engine or one
            whose backend is not importable.
    """
    return _validate_engine(os.environ.get(ENGINE_ENV, "kernel"))


class NodeState(NamedTuple):
    """The complete, picklable state of one row-enumeration node.

    This is exactly the argument list of a ``MineIRGs`` call (Figure 5):
    a node is fully described by its conditional transposed
    table ``TT|X``, its row combination and candidate bitsets, and the
    incremental support counts of Pruning 3.  Because the state carries no
    references to the miner, a node can be shipped to another process and
    its subtree enumerated there (:mod:`repro.core.parallel`).

    The conditional table is carried *lazily*: when ``row_bit`` is zero,
    ``table`` is this node's own ``TT|X``; otherwise ``table`` is the
    **parent's** table and this node's is ``table.extend(row_bit)``
    (Lemma 3.3), deferred so a loose-pruned node never pays for it.
    :meth:`resolve` materializes it on demand.

    Attributes:
        table: the node's conditional table (any
            :class:`~repro.core.kernel.CondTableProtocol` engine
            representation) when ``row_bit == 0``, else the parent's.
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
    """

    item_ids: tuple[int, ...]
    item_mask: int
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
    the expansion engine.  Picklable, so worker processes receive one
    copy per task.

    ``observe`` switches the kernel's Pruning-3 bound scan to its
    telemetry-counting variant
    (:meth:`~repro.core.kernel.KernelCache.observed_max_overlap`) so an
    observed run can report how far the early-exiting scans walk.  It
    never changes the mined output, and the disabled cost is one boolean
    check on the minority of nodes that survive the loose bounds.
    """

    constraints: Constraints
    n: int
    m: int
    positive_mask: int
    all_rows_mask: int
    use_p1: bool
    use_p2: bool
    use_p3: bool
    engine: str = "kernel"
    observe: bool = False

    @classmethod
    def for_table(
        cls,
        table: TransposedTable,
        constraints: Constraints,
        prunings: Iterable[str],
        engine: str = "kernel",
        observe: bool = False,
    ) -> "SearchContext":
        """Build the context for one mining run over ``table``.

        Args:
            table: the transposed table being mined.
            constraints: the run's thresholds.
            prunings: enabled pruning strategies (subset of
                ``{"p1", "p2", "p3"}``; ``p2`` degrades to off without
                ``p1``).
            engine: per-node expansion engine (see :data:`ENGINES`).
            observe: enable bound-scan telemetry (kernel engine only).

        Returns:
            The immutable :class:`SearchContext` shared by every node.
        """
        _validate_engine(engine)
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
            engine=engine,
            observe=observe,
        )

    def root_state(self, table: TransposedTable) -> NodeState:
        """The enumeration root: ``X = {}`` over the full table.

        The kernel engine builds the support-sorted, pre-scanned root
        :class:`~repro.core.kernel.CondTable`; the numpy engine builds
        the same table on the packed-uint64 layout
        (:class:`~repro.core.npbitset.NumpyCondTable`, identical item
        order); the reference engine keeps the dataset's item order and
        carries no popcounts, so its bound scans walk every tuple.
        """
        cond: CondTableProtocol
        if self.engine == "reference":
            masks = list(table.item_masks)
            inter, union = scan_items(masks, table.all_rows_mask)
            cond = CondTable(
                list(range(len(masks))),
                masks,
                None,
                inter,
                union,
                table.all_rows_mask,
            )
        elif self.engine == "numpy":
            cond = _load_npbitset().NumpyCondTable.build(
                table.item_masks, table.all_rows_mask
            )
        else:
            cond = CondTable.build(table.item_masks, table.all_rows_mask)
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
#: subtree between 0.2 s samples, while rebuilding the preempted
#: frontier stays out of the obs-overhead gate (4096 cost ~2.5 points
#: of it on the LC sweep).
_PROGRESS_QUANTUM = 16384


class _Uncached:
    """The reference engine's evaluator: :class:`KernelCache`'s surface
    with no memo.

    Every class split, bound and threshold test is recomputed through
    :mod:`repro.core.bounds` and nothing is counted, so a reference run
    reports zero cache telemetry.  Reference tables carry no popcounts,
    so their bound scans walk every tuple; and the walk builds every
    visited node's table before its Step-2 bound (see
    :func:`enumerate_frontier`), the eager pre-kernel cost model.
    """

    def class_split(
        self, row_mask: int, positive_mask: int, counters
    ) -> tuple[int, int]:
        supp = bitset.bit_count(row_mask & positive_mask)
        return supp, bitset.bit_count(row_mask) - supp

    def confidence(self, support_bound: int, negative_lower: int, counters) -> float:
        return confidence_bound(support_bound, negative_lower)

    def chi(self, supp: int, supn: int, n: int, m: int, counters) -> float:
        return chi_bound(supp, supn, n, m)

    def satisfies(
        self, constraints, supp: int, supn: int, n: int, m: int, counters
    ) -> bool:
        return constraints.satisfied_by(supp, supn, n, m)

    def observed_max_overlap(self, table: CondTableProtocol, cand_mask: int) -> int:
        return table.max_overlap(cand_mask)


_UNCACHED = _Uncached()


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


def _advisory_filter(
    emit: Callable[[Candidate], None], advisory, counters: NodeCounters
) -> Callable[[Candidate], None]:
    """``emit`` behind the broadcast dominance prefilter.

    A candidate covered by ``advisory``
    (:class:`repro.core.parallel.AdvisoryBounds`) is provably rejected
    by the final admission replay, so it is counted as rejected and
    dropped instead of being emitted; emitted candidates extend the
    bounds.
    """

    def filtered(candidate: Candidate) -> None:
        size = len(candidate.item_ids)
        confidence = candidate.confidence
        if advisory.covers(candidate.item_mask, size, confidence):
            counters.candidates_rejected += 1
            advisory.drops += 1
            return
        advisory.extend(candidate.item_mask, size, confidence)
        emit(candidate)

    return filtered


def enumerate_frontier(
    ctx: SearchContext,
    units: Sequence[tuple[str, NodeState | Candidate]],
    counters: NodeCounters,
    sink: "list[Candidate] | Callable[[Candidate], None]",
    quantum: int | None,
    advisory=None,
    tick: Callable[[], None] | None = None,
    cache: KernelCache | None = None,
    *,
    observer=None,
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
    antecedent is already known — Lemma 3.4).  Node counts, budget
    ticks, cache lookups and emissions therefore happen in serial
    depth-first order, whatever the engine.

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
            discovery order — a list to append to (shard parts, the
            warm-cache capture), or a callable (the serial miner's
            Step-7 admission).
        quantum: nodes visited before preemption (values below one
            still visit one node, so every call makes progress);
            ``None`` never preempts.  Pending candidates are always
            flushed — a returned frontier never leads with work-free
            units.
        advisory: optional dominance bounds
            (:class:`repro.core.parallel.AdvisoryBounds`) filtering the
            sink; see :func:`_advisory_filter`.
        tick: optional per-node budget hook; may raise
            :class:`~repro.errors.BudgetExceeded`.
        cache: kernel memo cache for this walk; ``None`` creates one
            scoped to the call.  The reference engine ignores it.
        observer: optional node observer with ``enter(state)`` (every
            visited node, before its tick) and ``leave(outcome)`` (one
            of ``"explored"``, ``"pruned:loose"``, ``"pruned:tight"``,
            ``"pruned:identified"``; an explored node leaves after its
            subtree and its candidate).  The tracer records the tree
            through it.

    Returns:
        ``None`` when the frontier was fully enumerated, else the
        ordered remaining frontier to continue from.
    """
    if ctx.engine == "reference":
        cache = _UNCACHED
    elif cache is None:
        cache = KernelCache()
    emit = sink if callable(sink) else sink.append
    if advisory is not None:
        emit = _advisory_filter(emit, advisory, counters)
    confidence = cache.confidence
    constraints = ctx.constraints
    minsup = constraints.minsup
    minconf = constraints.minconf
    minchi = constraints.minchi
    use_p1 = ctx.use_p1
    use_p2 = ctx.use_p2
    use_p3 = ctx.use_p3
    n = ctx.n
    m = ctx.m
    positive_mask = ctx.positive_mask
    observe = ctx.observe
    eager = ctx.engine == "reference"
    # Per-node work only some walks do: an observer, a budget tick, or
    # the reference engine's eager tables.
    slow = observer is not None or tick is not None or eager
    limit = _UNBOUNDED if quantum is None else max(1, quantum)
    pending = list(units)
    pending.reverse()
    # The innermost expanded node lives in locals (the first eight are
    # _child_state's arguments); enclosing ones wait on ``stack`` as
    # tuples of the same eleven fields.
    active = False
    table = None
    x_mask = new_pos = new_neg = p1 = supp = supn = inter = 0
    pos_left = remaining = 0
    candidate = None
    stack: list[tuple] = []
    state = None
    # Node and pruning counts live in locals and reach ``counters``
    # together when the walk returns or yields, so a concurrent reader
    # (the telemetry sampler) never sees more pruned nodes than nodes.
    expanded = 0
    loose = 0
    tight_pruned = 0
    identified = 0
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
                    break
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
                if tick is not None:
                    tick()
                if eager:
                    # The reference cost model: every visited node pays
                    # for its own table, whether or not it survives.
                    node_table = table.extend(row_bit) if row_bit else table

            # Step 2 — Pruning 3, loose bounds, before TT|X exists.
            if use_p3 and (
                bound < minsup
                or (
                    minconf > 0.0
                    and confidence(bound, node_supn, counters) < minconf
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

            total_supp, total_supn = cache.class_split(
                node_inter, positive_mask, counters
            )

            # Step 4 — Pruning 3, tight bounds (after the scan).
            if use_p3:
                if positive and node_pos:
                    if observe:
                        tight = node_supp + cache.observed_max_overlap(
                            node_table, node_pos
                        )
                    else:
                        tight = node_supp + node_table.max_overlap(node_pos)
                else:
                    tight = node_supp
                if (
                    tight < minsup
                    or (
                        minconf > 0.0
                        and confidence(tight, total_supn, counters) < minconf
                    )
                    or (
                        minchi > 0.0
                        and cache.chi(total_supp, total_supn, n, m, counters)
                        < minchi
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
            if cache.satisfies(
                constraints, total_supp, total_supn, n, m, counters
            ):
                node_candidate = Candidate(
                    tuple(node_table.item_ids),
                    node_table.ids_mask,
                    total_supp,
                    total_supn,
                    node_inter,
                )
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
        counters.nodes += expanded
        counters.pruned_loose += loose
        counters.pruned_tight += tight_pruned
        counters.pruned_identified += identified
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
    candidate's have confidence ``>=`` the candidate's?  The store keeps
    its entries sorted by confidence descending so only the prefix with
    qualifying confidence is scanned, and prefilters by antecedent size
    (a strict subset must be strictly smaller) before paying for the
    bitmask subset test.  The paper observes this comparison dominates at
    low supports ("more time will be spent when the number of IRGs ...
    increase"); the index keeps it tolerable without changing semantics.
    """

    # Parallel arrays ordered by confidence descending.
    neg_confidences: list[float] = field(default_factory=list)
    item_masks: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    entries: list[tuple[tuple[int, ...], int, int, int]] = field(default_factory=list)
    seen: set[int] = field(default_factory=set)

    def is_interesting(self, item_mask: int, size: int, confidence: float) -> bool:
        """Whether no stored group with a strictly smaller antecedent has
        confidence >= ``confidence``."""
        boundary = bisect.bisect_right(self.neg_confidences, -confidence)
        masks = self.item_masks
        stored_sizes = self.sizes
        for index in range(boundary):
            if (
                stored_sizes[index] < size
                and masks[index] & item_mask == masks[index]
            ):
                return False
        return True

    def add(
        self,
        item_ids: Sequence[int],
        item_mask: int,
        confidence: float,
        supp: int,
        supn: int,
        row_mask: int,
    ) -> None:
        position = bisect.bisect_right(self.neg_confidences, -confidence)
        self.neg_confidences.insert(position, -confidence)
        self.item_masks.insert(position, item_mask)
        self.sizes.insert(position, len(item_ids))
        self.entries.insert(position, (tuple(item_ids), supp, supn, row_mask))
        self.seen.add(item_mask)

    def offer(self, candidate: Candidate, counters: NodeCounters) -> bool:
        """Step 7's admission for one candidate.

        Shared by the serial miner (called in discovery order as nodes
        unwind) and the sharded miner's reduce (replaying the merged
        candidate sequence in the same order).  The ``seen`` skip is only
        reachable when Pruning 2 is disabled: the same upper bound
        rediscovered at a later node.
        """
        if candidate.item_mask in self.seen:
            return False
        confidence = candidate.confidence
        if self.is_interesting(
            candidate.item_mask, len(candidate.item_ids), confidence
        ):
            self.add(
                candidate.item_ids,
                candidate.item_mask,
                confidence,
                candidate.supp,
                candidate.supn,
                candidate.row_mask,
            )
            return True
        counters.candidates_rejected += 1
        return False


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
        broadcast_bounds: in sharded runs, ship dominance bounds built
            from already-recorded candidates to newly dispatched workers
            so provably-uninteresting candidates are dropped early.
            Advisory only: stale bounds cost buffer memory, never
            correctness, and the mined result is unchanged either way.
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
        checkpoint: file to snapshot sharded-run progress into (see
            :mod:`repro.core.checkpoint`); implies the sharded pipeline
            even when ``n_workers`` is ``None``.
        checkpoint_every: shard completions per checkpoint write.
        resume: checkpoint file to restore progress from before mining;
            a missing file starts fresh.  The resumed run's output is
            byte-identical to an uninterrupted one.
        engine: per-node expansion engine — ``"kernel"`` (the fused lazy
            kernel of :mod:`repro.core.kernel`), ``"numpy"`` (the
            packed-uint64 columnar backend of
            :mod:`repro.core.npbitset`; requires NumPy) or
            ``"reference"`` (the pre-kernel cost model, for differential
            tests and the perf gate).  ``None`` (default) resolves via
            :func:`default_engine` (``$FARMER_ENGINE`` or ``"kernel"``).
            All engines produce byte-identical serialized output.
        warm_cache: directory of persisted frontier entries
            (:mod:`repro.core.frontier`).  When set, a mine first
            consults the cache: an entry whose constraints are no looser
            answers by filtering its recorded evaluation sequence with
            zero enumeration; anything else mines cold (serially) and
            adds an entry.  The mined output is
            byte-identical to a cold mine either way.  Warm answers
            never shard, so ``n_workers``, ``steal`` and
            ``steal_quantum`` are ignored.  Incompatible with
            ``checkpoint``/``resume`` and with ``max_nodes`` budgets.
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
        broadcast_bounds: bool = True,
        retry: "RetryPolicy | None" = None,
        steal: bool = False,
        steal_quantum: int | None = None,
        checkpoint: str | None = None,
        checkpoint_every: int = 1,
        resume: str | None = None,
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
        self.engine = (
            default_engine() if engine is None else _validate_engine(engine)
        )
        self.compute_lower_bounds = compute_lower_bounds
        self.budget = budget if budget is not None else SearchBudget()
        if n_workers is not None and n_workers < 1:
            raise ConstraintError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.broadcast_bounds = broadcast_bounds
        self.retry = retry
        self.steal = steal
        self.steal_quantum = steal_quantum
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.warm_cache = warm_cache
        if warm_cache is not None:
            if checkpoint is not None or resume is not None:
                raise UsageError(
                    "warm_cache cannot be combined with checkpoint/resume: "
                    "a warm re-mine replans its own work from the frontier "
                    "cache, so a shard checkpoint has nothing to describe"
                )
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
        if checkpoint is not None or resume is not None:
            # Checkpoints snapshot the sharded coordinator's state; the
            # serial traversal has no shard boundaries to snapshot at.
            if self.budget.max_nodes is not None:
                raise UsageError(
                    "checkpoint/resume requires the sharded miner, but "
                    "max_nodes budgets force the serial path; use a "
                    "max_seconds budget instead"
                )
            if not self._supports_sharding:
                raise UsageError(
                    f"{type(self).__name__} cannot shard its traversal, "
                    "so it cannot checkpoint or resume"
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
                engine=self.engine,
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
                    broadcast=self.broadcast_bounds,
                    retry=self.retry,
                    steal=self.steal,
                    steal_quantum=self.steal_quantum,
                    checkpoint=self.checkpoint,
                    checkpoint_every=self.checkpoint_every,
                    resume=self.resume,
                    engine=self.engine,
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
            if not sharded and not warm and self.engine != "reference":
                telemetry.add_counters(self._cache.stats())
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
        wants = self.n_workers is not None or self.checkpoint is not None or self.resume is not None
        return (
            wants
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
        self._cache = KernelCache()
        self._truncated = False
        budget = self.budget
        budget.start()

        if table.n == 0 or not table.item_masks:
            return store

        ctx = SearchContext.for_table(
            table,
            self.constraints,
            self.prunings,
            engine=self.engine,
            observe=self.telemetry is not None,
        )

        # Step 7's admission, in discovery order as subtrees complete.
        # Every group with a smaller antecedent is in the store by then
        # (Lemma 3.4) — including for the root, whose I(∅) is a real
        # group exactly when some rows contain every item.
        def offer(candidate: Candidate) -> None:
            store.offer(candidate, counters)

        # With no limits to enforce the per-node tick is pure counting:
        # the walker counts nodes itself and the budget syncs once.
        unlimited = budget.unlimited
        tick = None if unlimited else budget.tick
        units = [(FRONTIER_STATE, ctx.root_state(table))]
        observer = self._node_observer()
        try:
            if self.telemetry is None:
                enumerate_frontier(
                    ctx, units, counters, offer, None, tick=tick,
                    cache=self._cache, observer=observer,
                )
            else:
                self._walk_observed(ctx, units, offer, tick, observer)
        except BudgetExceeded:
            if budget.strict:
                raise
            self._truncated = True
        finally:
            if self.telemetry is not None:
                self.telemetry.stop_sampling()
        if unlimited:
            budget.advance(counters.nodes)
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
        tick: Callable[[], None] | None,
        observer,
    ) -> None:
        """The telemetry-enabled serial walk.

        The same walk, split at the root: a one-node quantum expands the
        root and hands back its children as frontier units, whose
        candidate-row weights (the proxy the sharded decomposition also
        balances on) give the coverage estimate; each child subtree is
        then walked under :data:`_PROGRESS_QUANTUM` and its weight counted
        done once its frontier is exhausted.  The telemetry sampler
        reads the coverage and the shared counters from its own thread;
        the walker adds to the counters whenever a quantum expires, so
        they move every few thousand nodes even inside one large
        subtree.  Quantum preemption replays the serial sequence
        exactly, so the split changes no output.  Nothing below the
        root is instrumented.  A node observer (the tracer) must see
        every node leave after its subtree, so it gets one unsplit walk
        and its counters and coverage stay unknown until it returns.
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
        frontier = enumerate_frontier(
            ctx, units, counters, offer, 1 if observer is None else None,
            tick=tick, cache=self._cache, observer=observer,
        )
        weights = [
            float(payload.estimate()) if tag == FRONTIER_STATE else 0.0
            for tag, payload in frontier or ()
        ]
        coverage["total"] = sum(weights)
        for unit, weight in zip(frontier or (), weights):
            rest: list | None = [unit]
            while rest:
                rest = enumerate_frontier(
                    ctx, rest, counters, offer, _PROGRESS_QUANTUM,
                    tick=tick, cache=self._cache,
                )
            coverage["done"] += weight

    # ------------------------------------------------------------------
    # Result materialization
    # ------------------------------------------------------------------

    def _build_groups(
        self, table: TransposedTable, store: _IRGStore
    ) -> list[RuleGroup]:
        groups: list[RuleGroup] = []
        for item_ids, supp, supn, row_mask in store.entries:
            groups.append(
                RuleGroup(
                    upper=frozenset(item_ids),
                    consequent=table.consequent,
                    rows=table.original_rows(row_mask),
                    support=supp,
                    antecedent_support=supp + supn,
                    n=table.n,
                    m=table.m,
                )
            )
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
    checkpoint: str | None = None,
    checkpoint_every: int = 1,
    resume: str | None = None,
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
        checkpoint: crash-consistent progress snapshot path
            (:mod:`repro.core.checkpoint`).
        checkpoint_every: shard completions per checkpoint write.
        resume: checkpoint path to restore before mining; a resumed
            run's output is byte-identical to an uninterrupted one.
        engine: per-node expansion engine (see :data:`ENGINES`).
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
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
        engine=engine,
        telemetry=telemetry,
        warm_cache=warm_cache,
    )
    return miner.mine(dataset, consequent)
