"""Sharded row enumeration: FARMER across worker processes.

The row-enumeration tree of Figure 5 is embarrassingly shardable — each
subtree conditions an independent transposed table carried entirely in its
:class:`~repro.core.farmer.NodeState` — but the Step 7 interestingness
filter is not: admitting ``I(X) -> C`` requires every rule group with a
strictly smaller antecedent to be known (Lemma 3.4).  The executor here
therefore splits the *search* and keeps the *admission* serial:

1. **Decompose** (coordinator).  Expand the tree from the root, always
   expanding the frontier node with the largest estimated subtree, until
   roughly ``chunk_factor x n_workers`` frontier subtrees exist.  A plain
   first-level split would be badly unbalanced (the subtree of the first
   ORD row covers half the unpruned tree), so large subtrees are split
   again; every frontier node becomes one task in a chunked work queue.

2. **Execute** (workers).  Each worker runs the exact serial walk of
   its subtree (:func:`repro.core.farmer.enumerate_frontier`), collecting
   every threshold-satisfying Step 7 candidate in discovery order.  No
   admission decisions are taken in parallel.

3. **Reduce** (deterministic).  The per-task candidate sequences are
   stitched back together in serial traversal order — children before
   their parent, subtrees in ORD order — and replayed through the serial
   Step 7 store (:meth:`_IRGStore.offer`).  The concatenation equals the
   serial miner's discovery sequence, so the admitted groups, their store
   order, and the merged counters are bit-identical to a serial run,
   independent of worker count and OS scheduling.

**Advisory bound broadcast.**  With every task dispatch the coordinator
ships a snapshot of the dominance bounds accumulated so far — the
``(confidence, row mask)`` table of candidates already recorded by
finished tasks, confidence descending.  A worker drops (and counts as
rejected) any candidate covered by a strictly smaller recorded
antecedent with confidence at least as high; candidates are closed
pairs of the root table, so that antecedent's row mask strictly
contains the candidate's.  Such a candidate is provably rejected by
the final replay, because its dominator — or, chasing rejections, some
admitted dominator of that dominator — is a constraint-satisfying
group with a strictly smaller antecedent, and Lemma 3.4 places every
such group before the candidate in the replay sequence.  The bounds
are purely advisory: a stale snapshot only means a doomed candidate is
buffered and shipped before the replay rejects it.  The prefilter sits
on the part's sink (:func:`_walk_part`), outside the walk, so work done
(nodes, prunings) is the serial walk's; the test suite pins merged
counters to the serial miner's.

**A shard is a row set.**  By Lemma 3.3 ``TT|X`` depends only on ``X``,
so no table crosses the process boundary: each run starts its own pool,
hands every worker the root table once through the pool initializer,
and ships units *detached* (each :class:`~repro.core.farmer.NodeState`
with ``table=None``) both ways; a worker rebuilds the tables from the
root (:func:`_attach`).  The run shuts its pool down when it ends.

**Fault tolerance.**  Because the reduce is a pure replay of recorded
candidate sequences, a shard is free to fail and run again — nothing
about a retry can change the output.  The execute loop leans on that:

* a worker that *dies* (SIGKILL, OOM, segfault) breaks the pool and is
  surfaced immediately — the coordinator collects the child exit codes,
  requeues every in-flight shard, discards the broken pool and carries
  on with a fresh one (no waiting for the global deadline);
* a worker that *stalls* is caught by the per-shard heartbeat timeout
  (:attr:`RetryPolicy.shard_timeout`); the stalled pool is killed and
  its shards requeued;
* a shard whose *task raises* is retried with exponential backoff up to
  :attr:`RetryPolicy.max_attempts`, then run inline in the coordinator
  as a last resort (where a real bug finally propagates);
* repeated pool failures *degrade* the worker count (halving down to
  one, then to inline execution) instead of aborting the run — inline
  execution cannot lose a worker, so every run terminates.

**Work stealing** (``steal=True``).  One executor schedules every
sharded mine as *parts*: a shard starts as one part holding its root,
and a part runs :func:`~repro.core.farmer.enumerate_frontier` for at
most a node ``quantum``.  Without stealing (or with a single worker)
the quantum is unbounded, so each shard runs to completion as one part
— the static schedule.  That schedule leaves a long single-worker tail
on skewed trees: FARMER's interleaved ORD order makes the first rows'
subtrees cover most of the unpruned space, so the largest shard keeps
one worker busy long after the others drain the queue.  Stealing
bounds that tail *cooperatively*: a process-pool worker cannot be
preempted mid-task, so when a part's quantum expires it *donates* —
returns the emitted candidate prefix plus the exact remaining
enumeration frontier (ordered state/pending-candidate units).  The
coordinator re-enqueues the frontier as continuation parts, splitting
it in half whenever the queue is starving (the steal), so idle workers
pick up the donated half of the largest in-flight subtree.  Each
original shard's parts are stitched back in frontier order into one
completed-shard record, which keeps every downstream contract
unchanged:

* the reduce still replays the per-shard candidate sequences in serial
  discovery order, so ``.irgs`` output is byte-identical to the serial
  miner for any worker count, steal schedule, and quantum;
* the fault ladder applies per *part*: parts are deterministic replays
  of their unit lists, so a dead donor or thief is requeued like any
  failed shard (the chaos layer injects ``donor-*``/``steal-*`` faults
  at exactly those points).

Merged counters still equal the serial miner's; only the per-shard
advisory-drop counts become schedule-dependent.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import multiprocessing
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..data.transpose import TransposedTable
from ..errors import BudgetExceeded, ConstraintError
from ..testing.chaos import (
    maybe_fault_donor,
    maybe_fault_thief,
    maybe_fault_worker,
)
from .constraints import Constraints
from .enumeration import NodeCounters, SearchBudget, merge_counters
from .farmer import (
    ALL_PRUNINGS,
    FRONTIER_CAND,
    FRONTIER_STATE,
    Candidate,
    NodeState,
    SearchContext,
    _IRGStore,
    _is_reference,
    enumerate_frontier,
)
from .kernel import CondTable, ScanStats

if TYPE_CHECKING:
    from ..obs.telemetry import Telemetry

__all__ = [
    "AdvisoryBounds",
    "DEFAULT_STEAL_QUANTUM",
    "ParallelReport",
    "RetryPolicy",
    "mine_table_parallel",
    "shutdown_workers",
]

#: Frontier subtrees generated per worker: the chunked work queue keeps
#: this many tasks per process so stragglers rebalance dynamically.
DEFAULT_CHUNK_FACTOR = 4

#: Maximum entries in a broadcast bounds snapshot.  Dominators are kept
#: in confidence-descending order, so the cap drops the weakest bounds
#: first; capping is safe because the bounds are advisory.
DEFAULT_ADVISORY_CAP = 256

#: Nodes a part visits between yield points under ``steal``.  Small
#: enough to bound the straggler tail well below a skewed shard's size,
#: large enough that the donate round trip (a coordinator visit, a new
#: dispatch and the thief's table rebuild) stays a few percent of a
#: quantum's work.
DEFAULT_STEAL_QUANTUM = 4096

#: Start method of each run's pool: ``fork`` (the cheapest) where the
#: platform has it.  Nothing relies on what a fork inherits.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

#: Longest the coordinator waits on shard parts before it polls the
#: run's budget (:meth:`~repro.core.enumeration.SearchBudget.poll`).
_BUDGET_POLL_SECONDS = 0.1


class AdvisoryBounds:
    """Cross-subtree dominance bounds (the broadcast Step 7 prefilter).

    Parallel arrays kept confidence descending by sorted inserts and
    scanned by prefix, holding *recorded candidates* rather than the
    admitted groups of :class:`~repro.core.farmer._IRGStore` — that is
    sufficient: see the module docstring for why a covered candidate is
    provably rejected by the admission replay.

    Precondition: every mask recorded or tested is the row mask of a
    closed pair of one table (:class:`~repro.core.farmer.Candidate`).
    """

    __slots__ = ("neg_confidences", "row_masks", "cap", "drops", "_members")

    def __init__(
        self,
        entries: Iterable[tuple[float, int]] = (),
        cap: int = DEFAULT_ADVISORY_CAP,
    ) -> None:
        """``entries`` are ``(neg_confidence, row_mask)`` pairs already
        sorted by ``neg_confidence`` (a snapshot)."""
        self.neg_confidences: list[float] = []
        self.row_masks: list[int] = []
        self.cap = cap
        #: Candidates dropped against these bounds (diagnostics).
        self.drops = 0
        self._members: set[int] = set()
        for neg_confidence, row_mask in entries:
            self.neg_confidences.append(neg_confidence)
            self.row_masks.append(row_mask)
            self._members.add(row_mask)

    def __len__(self) -> int:
        return len(self.neg_confidences)

    def covers(self, row_mask: int, confidence: float) -> bool:
        """Whether some recorded strictly-smaller antecedent dominates."""
        boundary = bisect.bisect_right(self.neg_confidences, -confidence)
        for stored in self.row_masks[:boundary]:
            if stored & row_mask == row_mask and stored != row_mask:
                return True
        return False

    def extend(self, row_mask: int, confidence: float) -> None:
        """Record one candidate as a future dominator (capped)."""
        if row_mask in self._members:
            return
        neg_confidence = -confidence
        if len(self.neg_confidences) >= self.cap:
            # Full: only displace the weakest bound for a stronger one.
            if neg_confidence >= self.neg_confidences[-1]:
                return
            self._members.discard(self.row_masks[-1])
            del self.neg_confidences[-1], self.row_masks[-1]
        position = bisect.bisect_right(self.neg_confidences, neg_confidence)
        self.neg_confidences.insert(position, neg_confidence)
        self.row_masks.insert(position, row_mask)
        self._members.add(row_mask)

    def snapshot(self) -> list[tuple[float, int]]:
        """A picklable copy for shipping with a task dispatch."""
        return list(zip(self.neg_confidences, self.row_masks))


@dataclass(frozen=True)
class RetryPolicy:
    """How the coordinator responds to worker faults.

    Attributes:
        max_attempts: worker-pool attempts per shard before the shard is
            run inline in the coordinator as a last resort (where a
            deterministic task bug finally propagates instead of being
            retried forever).
        backoff_base: first retry delay in seconds, doubled per
            consecutive failure (deterministic — no jitter, because core
            code may not draw randomness; see farmer-lint FRM002).
            ``0`` disables sleeping, which the fault-injection tests use
            to stay wall-clock-free.
        backoff_cap: upper bound on one backoff sleep.
        shard_timeout: per-attempt heartbeat deadline in seconds.  A
            shard attempt exceeding it is presumed stalled: the pool is
            killed, its in-flight shards are requeued.  ``None`` (the
            default) disables stall detection — worker *death* is still
            surfaced immediately via the broken pool.
        degrade_after: consecutive pool failures tolerated before the
            worker count is halved; at one worker a further failure
            switches to inline execution, which cannot lose a worker.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    shard_timeout: float | None = None
    degrade_after: int = 2


@dataclass
class ParallelReport:
    """Diagnostics of one sharded mining run.

    Attributes:
        n_workers: worker processes requested (1 = inline execution).
        coordinator: counters for the nodes the coordinator expanded
            while decomposing the tree into tasks.
        n_tasks: frontier subtrees placed on the work queue.
        workers: per-task counters, in dispatch (largest-first) order.
        advisory_drops: candidates dropped against broadcast bounds
            instead of being buffered for the reduce.
        retries: shard attempts requeued after a worker fault (crash,
            stall or task exception).
        pool_failures: worker pools torn down after a crash or stall.
        worker_exit_codes: non-zero exit codes collected from dead pool
            processes (e.g. ``-9`` for a SIGKILLed worker), in teardown
            order.
        inline_tasks: parts executed inline in the coordinator as a
            fallback (retry exhaustion or degradation); a one-worker run
            executes inline by design and does not count here.
        stealing: whether parts ran under a node quantum (``steal=``
            requested and more than one worker); otherwise every part
            was a whole shard.
        donations: frontiers yielded by quantum-expired parts.
        steals: donated frontier halves re-enqueued for idle workers
            beyond the donor's own continuation.
        parts: parts scheduled in total (equals ``n_tasks`` when
            nothing was preempted).
        task_seconds: wall-clock seconds of every *successful* part in
            completion order, timed where it ran (so a pool's start is
            not charged to its first parts).  ``max(task_seconds)`` is
            the scheduler's tail latency: the longest interval any
            single dispatch held a worker, which stealing bounds by the
            quantum while an unbounded quantum is stuck with the
            largest shard.
    """

    n_workers: int
    coordinator: NodeCounters
    n_tasks: int = 0
    workers: list[NodeCounters] = field(default_factory=list)
    advisory_drops: int = 0
    retries: int = 0
    pool_failures: int = 0
    worker_exit_codes: list[int] = field(default_factory=list)
    inline_tasks: int = 0
    stealing: bool = False
    donations: int = 0
    steals: int = 0
    parts: int = 0
    task_seconds: list[float] = field(default_factory=list)


class _Leaf:
    """A frontier subtree: one work-queue task, result attached in place."""

    __slots__ = ("state", "candidates", "counters", "drops", "steals")

    def __init__(self, state: NodeState) -> None:
        self.state = state
        self.candidates: list[Candidate] = []
        self.counters = NodeCounters()
        self.drops = 0
        self.steals = 0


class _Branch:
    """A coordinator-expanded node: its own candidate plus ordered children."""

    __slots__ = ("candidate", "children")

    def __init__(self, candidate: Candidate | None) -> None:
        self.candidate = candidate
        self.children: list[object] = []


#: Nodes a part walks between reads of the shared deadline.
_DEADLINE_STRIDE = 256


def _walk_part(
    ctx: SearchContext,
    units: list,
    counters: NodeCounters,
    sink: list[Candidate],
    quantum: int | None,
    advisory: AdvisoryBounds,
    deadline: float | None,
    poll: Callable[[], None] | None = None,
) -> list | None:
    """:func:`enumerate_frontier` into ``sink`` behind the broadcast
    dominance prefilter, under the shared monotonic ``deadline``
    (``None``: no deadline) and ``poll`` (an inline part's
    :meth:`~repro.core.enumeration.SearchBudget.poll`; ``None`` in a
    worker), both checked before the first node and every
    :data:`_DEADLINE_STRIDE` nodes after it.  The walk still hands back
    its frontier after ``quantum`` nodes (``None``: never).

    A candidate covered by ``advisory`` is provably rejected by the
    final admission replay (see the module docstring), so it is counted
    as rejected and dropped instead of being buffered; every other
    candidate extends the bounds.
    """

    def emit(candidate: Candidate) -> None:
        confidence = candidate.confidence
        if advisory.covers(candidate.row_mask, confidence):
            counters.candidates_rejected += 1
            advisory.drops += 1
            return
        advisory.extend(candidate.row_mask, confidence)
        sink.append(candidate)

    if deadline is None and poll is None:
        return enumerate_frontier(ctx, units, counters, emit, quantum)
    left = None if quantum is None else max(1, quantum)
    step = 0

    def progress(children_left: int = 0) -> int:
        nonlocal left, step
        if left is not None:
            left -= step
            if left <= 0:
                return 0
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                "time budget exceeded while mining a shard",
                nodes_expanded=counters.nodes,
            )
        if poll is not None:
            poll()
        step = _DEADLINE_STRIDE if left is None else min(_DEADLINE_STRIDE, left)
        return step

    return enumerate_frontier(
        ctx, units, counters, emit, progress(), progress=progress
    )


def _detach(units: Sequence[tuple]) -> list:
    """``units`` as they cross the process boundary: every state unit
    with ``table=None`` (:func:`_attach` rebuilds it), pending
    candidates as they are."""
    detached = []
    for tag, payload in units:
        if tag == FRONTIER_STATE:
            payload = NodeState(None, *payload[1:])
        detached.append((tag, payload))
    return detached


def _attach(root: CondTable, units: Sequence[tuple]) -> list:
    """Detached ``units`` with their lazy tables, each the parent's
    ``TT|(x_mask ^ row_bit)``, rebuilt by chaining ``extend`` from
    ``root`` over those rows in ascending order, as the walker added
    them (Lemma 3.3: same items and order).  The chain does not apply
    the walk's per-node class-support filter, whose regions it cannot
    see, so a rebuilt parent may keep items the walker's dropped; the
    walk filters each unit's own table by the unit's own region
    (``farmer._node_table``, never skipped), which lies inside every
    ancestor's, so the unit resolves to the walker's table exactly
    (items, order and scan).  Every
    prefix of a chain is kept, so each distinct table is built once and
    the root's own children rebuild nothing."""
    tables = {0: root}
    attached = []
    for tag, payload in units:
        if tag == FRONTIER_STATE:
            rows = payload.x_mask ^ payload.row_bit
            if rows not in tables:
                table, prefix, rest = root, 0, rows
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    prefix |= bit
                    if prefix not in tables:
                        tables[prefix] = table.extend(bit)
                    table = tables[prefix]
            payload = NodeState(tables[rows], *payload[1:])
        attached.append((tag, payload))
    return attached


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The run's root table inside a pool worker (set by :func:`_init_worker`).
_ROOT: CondTable | None = None


def _init_worker(root: CondTable) -> None:
    """Pool initializer: receive the run's root table, once per worker.

    Also moves everything the worker inherited into the collector's
    permanent generation: a forked worker's first full collection would
    otherwise walk (and copy) the coordinator's whole heap.
    """
    global _ROOT
    _ROOT = root
    gc.freeze()


def _run_frontier_task(
    ctx: SearchContext,
    units: list,
    snapshot: list[tuple[float, int]],
    advisory_cap: int,
    deadline: float | None,
    strict: bool,
    quantum: int | None,
    shard: int = 0,
    stolen: bool = False,
    attempt: int = 0,
) -> tuple[list[Candidate], NodeCounters, int, bool, list | None, float]:
    """Executed in a worker process: one part of a shard.

    Args:
        ctx: the immutable search parameters.
        units: the ordered, detached frontier to enumerate — a shard
            root, or (part of) a previously donated continuation.
        snapshot: advisory-bounds snapshot to filter candidates
            against.
        advisory_cap: maximum advisory bounds kept.
        deadline: shared monotonic deadline, or ``None``.
        strict: whether a tripped budget raises instead of truncating.
        quantum: nodes visited before the part yields (``None``
            runs the units to the end).
        shard: original shard index (fault scoping, diagnostics).
        stolen: whether this part continues a donated frontier (arms the
            thief-side chaos hook instead of the worker one).
        attempt: retry ordinal of this part.

    Returns:
        ``(sink, counters, drops, truncated, frontier, seconds)`` where
        ``frontier`` is the ordered, detached remaining work (``None``
        when the part finished its units) and ``seconds`` the part's
        wall time in this worker.
    """
    started = time.monotonic()
    if stolen:
        maybe_fault_thief(shard, attempt)
    else:
        maybe_fault_worker(shard, attempt)
    counters = NodeCounters()
    sink: list[Candidate] = []
    advisory = AdvisoryBounds(snapshot, cap=advisory_cap)
    truncated = False
    frontier: list | None = None
    try:
        frontier = _walk_part(
            ctx, _attach(_ROOT, units), counters, sink, quantum, advisory,
            deadline,
        )
    except BudgetExceeded:
        if strict:
            raise
        truncated = True
    if frontier is not None:
        # The donation point: the frontier exists only in this process
        # until the return value lands, which is exactly where a dying
        # donor loses the donated half.
        maybe_fault_donor(shard, attempt)
        frontier = _detach(frontier)
    return (
        sink, counters, advisory.drops, truncated, frontier,
        time.monotonic() - started,
    )


def shutdown_workers() -> None:
    """Do nothing: every sharded run shuts its own pool down as it ends
    (kept for callers that still call it)."""


def _discard_executor(
    executor: ProcessPoolExecutor, report: ParallelReport, settle: float = 0.0
) -> None:
    """Tear down a (presumed broken or stalled) pool.

    Collects the exit codes of processes that died on their own — before
    any cleanup of ours can obscure them — so a SIGKILLed worker
    surfaces as ``-9`` in :attr:`ParallelReport.worker_exit_codes`, then
    kills the survivors (a stalled worker never exits by itself).

    ``settle`` bounds a wait for those exit codes: when a pool *breaks*,
    every worker dies (the executor terminates the siblings) but the
    futures fail a beat before the children are reaped, so the caller
    grants a short settle window.  Stall teardowns pass ``0`` — a
    stalled worker has no exit code to wait for.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    if settle > 0:
        deadline = time.monotonic() + settle
        while any(process.exitcode is None for process in processes):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
    for process in processes:
        code = process.exitcode
        if code is not None and code != 0:
            report.worker_exit_codes.append(code)
    for process in processes:
        if process.is_alive():
            process.kill()
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


def _decompose(
    ctx: SearchContext,
    root_state: NodeState,
    coordinator: NodeCounters,
    target: int,
    expansion_cap: int,
    deadline: float | None,
    strict: bool,
    stats: ScanStats | None = None,
    budget: SearchBudget | None = None,
) -> tuple[object, list[_Leaf], bool]:
    """Expand the tree until ``target`` frontier subtrees exist.

    Always expands the frontier node with the largest estimated subtree
    (deterministic; ties broken by creation order), performing the full
    per-node work — prunings, candidate emission — for expanded nodes.
    The decomposition does not affect the mined output: any frontier
    reassembles to the serial candidate sequence in the reduce.

    ``stats`` receives the bound-scan telemetry of an observed ``ctx``
    (the caller reads it afterwards); ``budget``, if given, is polled
    before every expansion.

    Returns ``(plan_root, tasks, truncated)`` with tasks in dispatch
    (largest-first) order.
    """
    root: object = _Leaf(root_state)
    heap: list[tuple[int, int, _Leaf, list[object] | None, int]] = [
        (-root_state.estimate(), 0, root, None, 0)
    ]
    sequence = 1
    n_leaves = 1
    expanded = 0
    truncated = False
    while heap and n_leaves < target and expanded < expansion_cap:
        if budget is not None:
            budget.poll()
        if deadline is not None and time.monotonic() > deadline:
            if strict:
                raise BudgetExceeded(
                    "time budget exceeded while sharding the search",
                    nodes_expanded=expanded,
                )
            truncated = True
            break
        _, _, leaf, parent_children, index = heapq.heappop(heap)
        expanded += 1
        # A one-node quantum expands the leaf and hands back its
        # children ahead of its pending candidate (a childless node has
        # emitted its candidate already).
        emitted: list[Candidate] = []
        children = enumerate_frontier(
            ctx, [(FRONTIER_STATE, leaf.state)], coordinator, emitted, 1,
            stats=stats,
        ) or []
        if children and children[-1][0] == FRONTIER_CAND:
            emitted.append(children.pop()[1])
        branch = _Branch(emitted[0] if emitted else None)
        if parent_children is None:
            root = branch
        else:
            parent_children[index] = branch
        n_leaves -= 1
        for _tag, child_state in children:
            child = _Leaf(child_state)
            branch.children.append(child)
            heapq.heappush(
                heap,
                (
                    -child_state.estimate(),
                    sequence,
                    child,
                    branch.children,
                    len(branch.children) - 1,
                ),
            )
            sequence += 1
            n_leaves += 1
    tasks = [entry[2] for entry in sorted(heap)]
    return root, tasks, truncated


def _sleep_backoff(retry: RetryPolicy, failures: int) -> None:
    """Deterministic exponential backoff (no jitter: see FRM002)."""
    if retry.backoff_base <= 0 or failures < 1:
        return
    time.sleep(min(retry.backoff_cap, retry.backoff_base * 2 ** (failures - 1)))


def _poll_timeout(retry: RetryPolicy, deadline: float | None) -> float:
    """How long one ``wait()`` may block before the budget and the
    heartbeats are checked."""
    waits = [_BUDGET_POLL_SECONDS]
    if retry.shard_timeout is not None:
        waits.append(max(0.01, retry.shard_timeout / 4))
    if deadline is not None:
        waits.append(max(0.01, deadline - time.monotonic()))
    return min(waits)


class _Part:
    """One scheduled slice of a shard's subtree under work stealing.

    A shard starts as a single root part holding ``[("state", root)]``;
    every donation replaces the donor's remaining work with ordered
    child parts.  Units are held detached (:func:`_detach`) and attached
    just before a part walks.  The per-part results are stitched back —
    own prefix first, children in frontier order — into the shard's
    serial candidate sequence.
    """

    __slots__ = (
        "shard",
        "seq",
        "units",
        "stolen",
        "attempts",
        "candidates",
        "counters",
        "drops",
        "children",
        "truncated",
    )

    def __init__(self, shard: int, seq: int, units: list, stolen: bool) -> None:
        self.shard = shard
        self.seq = seq
        self.units = units
        self.stolen = stolen
        self.attempts = 0
        self.candidates: list[Candidate] = []
        self.counters = NodeCounters()
        self.drops = 0
        self.children: list[_Part] = []
        self.truncated = False

    def flatten(self, out: list[Candidate]) -> None:
        """Stitch this part's subtree results in frontier order."""
        out.extend(self.candidates)
        for child in self.children:
            child.flatten(out)


def _execute_parts(
    tasks: Sequence[_Leaf],
    ctx: SearchContext,
    root: CondTable,
    n_workers: int,
    advisory_cap: int,
    deadline: float | None,
    strict: bool,
    quantum: int | None,
    *,
    budget: SearchBudget,
    retry: RetryPolicy,
    report: ParallelReport,
    telemetry: "Telemetry | None" = None,
    coverage: dict[str, float] | None = None,
) -> bool:
    """Run every task as parts, with cooperative work stealing.

    The one shard executor: work is scheduled as :class:`_Part` slices
    that yield their enumeration frontier every ``quantum`` nodes, and
    the coordinator splits a returned frontier in half whenever the
    queue is starving, so idle workers steal the donated half.  With
    ``quantum=None`` no part ever yields, so each shard is exactly one
    part (the static schedule).  Results are stitched per original
    shard and attached to the leaves; the retry/requeue/degradation
    ladder applies per part (parts are deterministic replays of their
    unit lists).  A single worker runs every part inline in the
    coordinator.  The run's pool starts on the first dispatch and is
    replaced after a failure.  Returns whether the run was truncated by
    a non-strict budget.

    Args:
        tasks: the decomposition's frontier leaves.
        ctx: the immutable search parameters.
        root: the run's root table, which every part attaches to.
        n_workers: worker-process count (1 = inline execution).
        advisory_cap: maximum advisory bounds kept per broadcast.
        deadline: shared monotonic deadline, or ``None``.
        strict: whether a tripped budget raises instead of truncating.
        quantum: nodes per part between yield points; ``None`` never
            yields.
        budget: polled before every inline part, every
            :data:`_DEADLINE_STRIDE` nodes inside one, and whenever
            ``wait()`` returns; what it raises tears the pool down and
            propagates.
        retry: the fault-tolerance ladder.
        report: mutated in place with scheduling diagnostics.
        telemetry: observes scheduling at part/shard granularity.
        coverage: the progress sampler's shared accumulator dict.
    """
    advisory = AdvisoryBounds(cap=advisory_cap)
    truncated = False
    remaining = len(tasks)
    report.stealing = quantum is not None

    pending: deque[_Part] = deque()
    sequence = 0
    shard_parts: dict[int, list[_Part]] = {}
    shard_open: dict[int, int] = {}
    shard_donations: dict[int, int] = {}
    for index in range(len(tasks)):
        part = _Part(
            index, sequence, _detach([(FRONTIER_STATE, tasks[index].state)]), False
        )
        sequence += 1
        pending.append(part)
        shard_parts[index] = [part]
        shard_open[index] = 1
        shard_donations[index] = 0
    report.parts = len(pending)
    inflight: dict[Future, tuple[_Part, float]] = {}
    executor: ProcessPoolExecutor | None = None
    error: BudgetExceeded | None = None
    consecutive_failures = 0
    workers = n_workers
    inline_only = n_workers == 1

    def stitch(shard: int) -> _Leaf:
        """Stitch the shard's parts in frontier order onto its leaf."""
        parts = shard_parts[shard]
        leaf = tasks[shard]
        leaf.candidates = []
        parts[0].flatten(leaf.candidates)
        leaf.counters = merge_counters([part.counters for part in parts])
        leaf.drops = sum(part.drops for part in parts)
        leaf.steals = shard_donations[shard]
        return leaf

    def finish_shard(shard: int) -> None:
        """All parts done: stitch the shard onto its leaf."""
        nonlocal remaining
        leaf = stitch(shard)
        sink, counters = leaf.candidates, leaf.counters
        remaining -= 1
        if coverage is not None:
            coverage["done"] += float(leaf.state.estimate())
            coverage["nodes"] += float(counters.nodes)
            coverage["candidates"] += float(len(sink))
            coverage["pruned"] += float(
                counters.pruned_loose
                + counters.pruned_tight
                + counters.pruned_identified
            )
        if telemetry is not None:
            telemetry.registry.inc("parallel.tasks_completed")
            telemetry.registry.set_gauge("parallel.queue_depth", remaining)
            telemetry.event(
                "task_done",
                shard=shard,
                nodes=counters.nodes,
                candidates=len(sink),
                drops=leaf.drops,
                truncated=any(part.truncated for part in shard_parts[shard]),
                steals=leaf.steals,
            )

    def finish_part(
        part: _Part,
        sink: list[Candidate],
        counters: NodeCounters,
        task_drops: int,
        task_truncated: bool,
        frontier: list | None,
    ) -> None:
        nonlocal truncated, sequence
        part.candidates = sink
        part.counters = counters
        part.drops = task_drops
        part.truncated = task_truncated
        truncated = truncated or task_truncated
        for candidate in sink:
            advisory.extend(candidate.row_mask, candidate.confidence)
        if frontier is not None and not truncated and error is None:
            shard_donations[part.shard] += 1
            report.donations += 1
            # Steal decision: split the donated frontier in half when
            # the queue is starving (fewer than two parts per worker
            # queued, so idle capacity exists or soon will) and there is
            # anything to split.  The donor's continuation goes to the
            # queue front — depth-first locality — and the donated half
            # to the back, where an idle worker takes it.  A dominant
            # subtree therefore keeps fissioning while the queue drains
            # until every worker holds a piece of it.
            middle = (len(frontier) + 1) // 2
            if middle < len(frontier) and len(pending) < 2 * workers:
                chunks = [frontier[:middle], frontier[middle:]]
                report.steals += 1
            else:
                chunks = [frontier]
            children = []
            for chunk in chunks:
                child = _Part(part.shard, sequence, chunk, True)
                sequence += 1
                children.append(child)
                shard_parts[part.shard].append(child)
            part.children.extend(children)
            shard_open[part.shard] += len(children)
            report.parts += len(children)
            pending.appendleft(children[0])
            for child in children[1:]:
                pending.append(child)
            if telemetry is not None:
                telemetry.registry.inc("parallel.donations")
                telemetry.event(
                    "donate",
                    shard=part.shard,
                    units=len(frontier),
                    parts=len(children),
                    queue=len(pending),
                )
                if len(children) > 1:
                    telemetry.registry.inc("parallel.steals")
                    telemetry.event(
                        "steal",
                        shard=part.shard,
                        donated=len(chunks[-1]),
                        queue=len(pending),
                    )
        if telemetry is not None:
            telemetry.registry.inc("parallel.parts_completed")
            telemetry.registry.set_gauge(
                "parallel.part_queue_depth", len(pending) + len(inflight)
            )
        shard_open[part.shard] -= 1
        if shard_open[part.shard] == 0:
            finish_shard(part.shard)

    def run_inline(part: _Part) -> None:
        """Run the part's units to the end in the coordinator (the
        one-worker schedule, or the fallback that cannot lose a worker)."""
        nonlocal error, truncated
        before = advisory.drops
        sink: list[Candidate] = []
        counters = NodeCounters()
        started = time.monotonic()
        try:
            _walk_part(
                ctx, _attach(root, part.units), counters, sink, None, advisory,
                deadline, budget.poll,
            )
        except BudgetExceeded as exc:
            if strict:
                error = exc
            else:
                truncated = True
            return
        report.task_seconds.append(time.monotonic() - started)
        if n_workers > 1:
            report.inline_tasks += 1
        finish_part(part, sink, counters, advisory.drops - before, False, None)

    def submit(part: _Part) -> bool:
        """Dispatch one part (starting the pool if there is none);
        ``False`` if the pool is dead."""
        nonlocal executor
        try:
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context(_START_METHOD),
                    initializer=_init_worker,
                    initargs=(root,),
                )
            future = executor.submit(
                _run_frontier_task,
                ctx,
                part.units,
                advisory.snapshot(),
                advisory_cap,
                deadline,
                strict,
                quantum,
                part.shard,
                part.stolen,
                part.attempts,
            )
        except (BrokenExecutor, RuntimeError):
            return False
        inflight[future] = (part, time.monotonic())
        return True

    def fail_pool(settle: float = 0.0) -> None:
        """Broken/stalled pool: requeue its parts, degrade if repeated."""
        nonlocal consecutive_failures, workers, inline_only, executor
        report.pool_failures += 1
        consecutive_failures += 1
        parts = sorted(
            (part for part, _ in inflight.values()), key=lambda part: part.seq
        )
        inflight.clear()
        for part in reversed(parts):
            part.attempts += 1
            pending.appendleft(part)
        report.retries += len(parts)
        exit_codes_before = len(report.worker_exit_codes)
        _discard_executor(executor, report, settle)
        executor = None
        if telemetry is not None:
            telemetry.registry.inc("parallel.pool_failures")
            telemetry.registry.inc("parallel.requeued", len(parts))
            telemetry.event(
                "worker_death",
                requeued=[part.shard for part in parts],
                exit_codes=report.worker_exit_codes[exit_codes_before:],
                workers=workers,
            )
        if consecutive_failures >= retry.degrade_after:
            if workers > 1:
                workers = max(1, workers // 2)
            else:
                inline_only = True
            consecutive_failures = 0
        _sleep_backoff(retry, report.pool_failures)

    try:
        while pending or inflight:
            if error is not None or truncated:
                pending.clear()
                if not inflight:
                    break
            if inline_only:
                while pending and error is None and not truncated:
                    budget.poll()
                    run_inline(pending.popleft())
                continue
            while (
                pending
                and len(inflight) < workers
                and error is None
                and not truncated
                and not inline_only
            ):
                part = pending.popleft()
                if part.attempts >= retry.max_attempts:
                    # Retries exhausted: run in the coordinator, where a
                    # deterministic task bug finally propagates.
                    run_inline(part)
                    continue
                if not submit(part):
                    pending.appendleft(part)
                    fail_pool(settle=2.0)
                    break
            if not inflight:
                continue
            done, _ = wait(
                list(inflight),
                timeout=_poll_timeout(retry, deadline),
                return_when=FIRST_COMPLETED,
            )
            budget.poll()
            if not done:
                if retry.shard_timeout is not None:
                    now = time.monotonic()
                    if any(
                        now - started > retry.shard_timeout
                        for _, started in inflight.values()
                    ):
                        fail_pool()
                continue
            pool_broken = False
            for future in done:
                part, started = inflight.pop(future)
                try:
                    sink, counters, task_drops, task_truncated, frontier, seconds = (
                        future.result()
                    )
                except BudgetExceeded as exc:
                    if strict:
                        error = exc
                        pending.clear()
                    else:
                        truncated = True
                    continue
                except BrokenExecutor:
                    inflight[future] = (part, started)
                    pool_broken = True
                    continue
                except Exception:
                    part.attempts += 1
                    report.retries += 1
                    pending.append(part)
                    if telemetry is not None:
                        telemetry.registry.inc("parallel.retries")
                        telemetry.event(
                            "retry", shard=part.shard, attempt=part.attempts
                        )
                    _sleep_backoff(retry, part.attempts)
                    continue
                consecutive_failures = 0
                report.task_seconds.append(seconds)
                finish_part(part, sink, counters, task_drops, task_truncated, frontier)
            if pool_broken:
                fail_pool(settle=2.0)
    finally:
        # An aborting run kills what is still in flight.
        if executor is not None:
            if inflight:
                _discard_executor(executor, report)
            else:
                executor.shutdown(wait=True)
    # A truncated or aborting run still attaches the best-effort prefix
    # of every shard that produced one.
    for shard, count in shard_open.items():
        if count > 0:
            stitch(shard)
    if error is not None:
        raise error
    return truncated


def _assemble(plan: object, out: list[Candidate]) -> None:
    """In-order reassembly: children first, own candidate last.

    Restores exactly the serial miner's candidate discovery sequence
    (post-order over the enumeration tree, subtrees in ORD order).
    """
    if isinstance(plan, _Leaf):
        out.extend(plan.candidates)
        return
    for child in plan.children:  # type: ignore[attr-defined]
        _assemble(child, out)
    if plan.candidate is not None:  # type: ignore[attr-defined]
        out.append(plan.candidate)


def mine_table_parallel(
    table: TransposedTable,
    *,
    constraints: Constraints,
    prunings: Iterable[str] = ALL_PRUNINGS,
    n_workers: int = 2,
    budget: SearchBudget | None = None,
    chunk_factor: int = DEFAULT_CHUNK_FACTOR,
    advisory_cap: int = DEFAULT_ADVISORY_CAP,
    expansion_cap: int | None = None,
    retry: RetryPolicy | None = None,
    steal: bool = False,
    steal_quantum: int | None = None,
    engine: str | None = None,
    telemetry: "Telemetry | None" = None,
) -> tuple[_IRGStore, NodeCounters, bool, ParallelReport]:
    """Mine ``table`` with the sharded decompose/execute/reduce pipeline.

    Every merged counter matches the serial miner's, whatever the
    scheduling and retries.

    Args:
        table: the transposed table to mine.
        constraints: the admission thresholds of the run.
        prunings: enabled pruning strategies.
        n_workers: worker-process count (>= 1; 1 still shards).
        budget: wall-clock limits only — ``max_seconds`` becomes a
            shared deadline (strict budgets raise
            :class:`~repro.errors.BudgetExceeded`; non-strict ones
            truncate), while ``max_nodes`` raises
            :class:`~repro.errors.ConstraintError` because deterministic
            node accounting needs the serial traversal, and
            :class:`~repro.core.farmer.Farmer` routes such budgets there
            automatically.
        chunk_factor: target tasks per worker for the decomposition.
        advisory_cap: maximum advisory bounds kept per broadcast.
        expansion_cap: decomposition expansion cap (``None`` = derived).
        retry: the fault-tolerance ladder (defaults:
            :class:`RetryPolicy`).
        steal: give parts a node quantum so they donate their frontier
            for idle workers to steal (see the module docstring); off,
            the quantum is unbounded and every shard is one part.
            Needs at least two workers to mean anything — a single
            worker always runs whole shards inline.  Never changes the
            mined output: the reduce replays the stitched per-shard
            sequences in serial discovery order regardless of the
            schedule.
        steal_quantum: nodes a part visits between yield points under
            ``steal`` (``None`` uses :data:`DEFAULT_STEAL_QUANTUM`; must
            be >= 1).
        engine: ``None`` (production) or ``"reference"`` (see
            :class:`~repro.core.farmer.Farmer`).
        telemetry: observes the run (phase events and timers, task/fault
            events, the progress sampler) without touching any result:
            mined output and ``.irgs`` files are byte-identical with and
            without it.
            Workers are never instrumented — all taps are at
            coordinator/task granularity.

    Returns:
        ``(store, merged_counters, truncated, report)``; the store's
        entries (and therefore the built rule groups, their order, and
        the merged counters of a completed run) are bit-identical to the
        serial :class:`~repro.core.farmer.Farmer` on the same input, for
        every ``n_workers`` and any scheduling.
    """
    if n_workers < 1:
        raise ConstraintError(f"n_workers must be >= 1, got {n_workers}")
    if steal_quantum is None:
        steal_quantum = DEFAULT_STEAL_QUANTUM
    elif steal_quantum < 1:
        raise ConstraintError(
            f"steal_quantum must be >= 1, got {steal_quantum}"
        )
    if retry is None:
        retry = RetryPolicy()
    deadline = None
    if budget is None:
        budget = SearchBudget()
    else:
        if budget.max_nodes is not None:
            raise ConstraintError(
                "node budgets require the serial miner "
                "(deterministic node accounting)"
            )
        budget.start()
        if budget.max_seconds is not None:
            deadline = time.monotonic() + budget.max_seconds
    strict = budget.strict

    ctx = SearchContext.for_table(
        table, constraints, prunings, reference=_is_reference(engine)
    )
    # The coordinator's own expansions run observed (its scan stats are
    # in hand to read from); the context shipped to workers stays
    # unobserved — worker-side stats would be discarded.
    coordinator_ctx = (
        replace(ctx, observe=True)
        if telemetry is not None and not ctx.reference
        else ctx
    )
    coordinator = NodeCounters()
    store = _IRGStore()
    report = ParallelReport(n_workers=n_workers, coordinator=coordinator)
    root_state = coordinator_ctx.root_state(table)
    if root_state is None:
        return store, merge_counters([coordinator]), False, report

    def phase(name: str):
        return telemetry.phase(name) if telemetry is not None else nullcontext()

    target = max(2, chunk_factor * n_workers)
    cap = expansion_cap if expansion_cap is not None else max(4 * target, 64)

    coordinator_stats = ScanStats()
    with phase("decompose"):
        plan, tasks, truncated = _decompose(
            coordinator_ctx,
            root_state,
            coordinator,
            target,
            cap,
            deadline,
            strict,
            stats=coordinator_stats,
            budget=budget,
        )

    coverage: dict[str, float] | None = None
    if telemetry is not None:
        coverage = {
            "done": 0.0,
            "total": sum(float(leaf.state.estimate()) for leaf in tasks),
            "nodes": float(coordinator.nodes),
            "pruned": float(
                coordinator.pruned_loose
                + coordinator.pruned_tight
                + coordinator.pruned_identified
            ),
            "candidates": 0.0,
        }

        def sample() -> dict:
            return {
                "phase": "execute",
                "nodes": int(coverage["nodes"]),
                "pruned": int(coverage["pruned"]),
                "groups": int(coverage["candidates"]),
                "done_weight": coverage["done"],
                "total_weight": coverage["total"],
            }

        telemetry.registry.inc("parallel.tasks", len(tasks))

    if tasks and not truncated:
        if telemetry is not None:
            telemetry.start_sampling(sample)
        try:
            with phase("execute"):
                task_truncated = _execute_parts(
                    tasks, ctx, root_state.table, n_workers,
                    advisory_cap, deadline, strict,
                    steal_quantum if steal and n_workers > 1 else None,
                    budget=budget,
                    retry=retry,
                    report=report,
                    telemetry=telemetry,
                    coverage=coverage,
                )
        finally:
            if telemetry is not None:
                telemetry.stop_sampling()
        truncated = truncated or task_truncated
    with phase("reduce"):
        replay = NodeCounters()
        sequence: list[Candidate] = []
        _assemble(plan, sequence)
        for candidate in sequence:
            store.offer(candidate, replay)

    report.n_tasks = len(tasks)
    report.workers = [leaf.counters for leaf in tasks]
    report.advisory_drops = sum(leaf.drops for leaf in tasks)
    merged = merge_counters([coordinator, replay, *report.workers])
    if telemetry is not None:
        telemetry.add_counters(coordinator_stats.stats())
        telemetry.add_counters(
            {
                "parallel.inline_tasks": report.inline_tasks,
                "parallel.advisory_drops": report.advisory_drops,
            }
        )
    return store, merged, truncated, report
