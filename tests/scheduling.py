"""Virtual work-stealing scheduler: a deterministic replay harness.

The production shard executor
(:func:`repro.core.parallel._execute_parts`) schedules *parts*
— slices of a shard's enumeration frontier — on a process pool, so the
interleaving of donations, steals and worker deaths depends on OS
scheduling.  Its correctness argument, however, is purely structural:
whatever the schedule, the per-part results stitch back into each
shard's serial candidate sequence, and the Step-7 admission replay then
reproduces the serial miner byte-for-byte.

This module tests that argument directly.  :func:`run_schedule` runs
the same decompose → part-enumeration → stitch → replay pipeline fully
in-process, with every scheduling decision — which pending part runs
next, how many nodes it may expand, whether its donated frontier is
split (and where), whether the attempt is killed before its results
land — drawn from an explicit :class:`Schedule`.  Hypothesis generates
adversarial schedules; shrinking then reports a *minimal* interleaving
for any violation, which no amount of re-running the real pool can do.
Parts hold their units in the executor's detached wire form and attach
them to the run's root before walking, so every split point a schedule
draws also exercises the table rebuild.

Schedules are plain decision streams, so a failing example can be
persisted with :func:`save_trace` (the same checksummed envelope
frontier-cache entries use, under its own version tag) and replayed
bit-for-bit later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import Constraints
from repro.core.enumeration import NodeCounters, merge_counters
from repro.core.farmer import (
    ALL_PRUNINGS,
    FRONTIER_STATE,
    Farmer,
    SearchContext,
    _IRGStore,
    enumerate_frontier,
)
from repro.core.parallel import (
    DEFAULT_ADVISORY_CAP,
    AdvisoryBounds,
    _assemble,
    _attach,
    _decompose,
    _detach,
    _walk_part,
)
from repro.core.serialize import load_checkpoint, save_checkpoint
from repro.data.transpose import TransposedTable

__all__ = [
    "MAX_ATTEMPTS",
    "Schedule",
    "VirtualRun",
    "load_trace",
    "run_schedule",
    "save_trace",
    "serialized_store",
]

#: Attempts per part before kill decisions are ignored (mirrors the
#: production retry ladder's "retries exhausted -> run inline" exit, and
#: guarantees the virtual run terminates under all-kill schedules).
MAX_ATTEMPTS = 3

#: Envelope tag for persisted traces.
TRACE_FORMAT = "repro-sched-trace/1"


@dataclass(frozen=True)
class Schedule:
    """Decision streams for one virtual run, each consumed cyclically.

    An empty stream means "always the default": FIFO dispatch, a large
    quantum (no donations), no splits, no kills, advisory bounds on.
    Streams of different lengths are fine — each advances at its own
    rate, which is exactly what makes short random lists explore long
    adversarial interleavings.

    Attributes:
        picks: selects which pending part runs next (modulo the queue
            length at that moment).
        quanta: node expansions the dispatched part may perform before
            donating its remaining frontier (clamped to >= 1).
        splits: donation split selector — 0 keeps the frontier whole,
            any other value picks the split point (modulo the legal
            positions), exercising *arbitrary* splits rather than the
            production half-split only.
        kills: truthy kills the dispatched attempt after it ran —
            results and donated frontier are discarded and the part is
            requeued, modelling a donor dying mid-donation.
        advisories: falsy runs the dispatched attempt without the
            shared advisory snapshot (a worker that raced ahead of a
            broadcast), which must not change the mined bytes.
    """

    picks: tuple[int, ...] = ()
    quanta: tuple[int, ...] = ()
    splits: tuple[int, ...] = ()
    kills: tuple[int, ...] = ()
    advisories: tuple[int, ...] = ()

    def to_payload(self) -> dict:
        """JSON-able form for the checksummed trace envelope."""
        return {
            "format": TRACE_FORMAT,
            "picks": list(self.picks),
            "quanta": list(self.quanta),
            "splits": list(self.splits),
            "kills": list(self.kills),
            "advisories": list(self.advisories),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Schedule":
        """Inverse of :meth:`to_payload`."""
        if payload.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a scheduling trace: {payload.get('format')!r}"
            )
        return cls(
            picks=tuple(payload["picks"]),
            quanta=tuple(payload["quanta"]),
            splits=tuple(payload["splits"]),
            kills=tuple(payload["kills"]),
            advisories=tuple(payload["advisories"]),
        )


class _Stream:
    """Cyclic reader over one decision list (default when empty)."""

    def __init__(self, values, default):
        self._values = tuple(values)
        self._default = default
        self._cursor = 0

    def next(self):
        if not self._values:
            return self._default
        value = self._values[self._cursor % len(self._values)]
        self._cursor += 1
        return value


class _VirtualPart:
    """The in-process mirror of :class:`repro.core.parallel._Part`."""

    __slots__ = (
        "shard",
        "seq",
        "units",
        "attempts",
        "candidates",
        "counters",
        "drops",
        "children",
    )

    def __init__(self, shard, seq, units):
        self.shard = shard
        self.seq = seq
        self.units = units
        self.attempts = 0
        self.candidates = []
        self.counters = NodeCounters()
        self.drops = 0
        self.children = []

    def flatten(self, out):
        out.extend(self.candidates)
        for child in self.children:
            child.flatten(out)


@dataclass
class VirtualRun:
    """Everything a differential assertion needs from one virtual run."""

    store: _IRGStore
    counters: NodeCounters
    dispatches: int = 0
    donations: int = 0
    splits: int = 0
    kills: int = 0
    trace: list = field(default_factory=list)


def run_schedule(
    data,
    consequent,
    constraints: Constraints,
    schedule: Schedule,
    *,
    target: int = 6,
    advisory_cap: int = DEFAULT_ADVISORY_CAP,
) -> VirtualRun:
    """Mine ``data`` under an explicit steal schedule, fully in-process.

    Runs the decompose → part-enumeration → stitch → Step-7 replay
    pipeline of the stealing executor with every scheduling decision
    taken from ``schedule`` instead of a process pool, and records the
    decision trace actually consumed.

    Args:
        data: the itemized dataset to mine.
        consequent: the class label on the rule RHS.
        constraints: admission thresholds.
        schedule: the decision streams driving the virtual scheduler.
        target: decomposition target (small keeps shard counts small so
            ``picks`` values cover the queue densely).
        advisory_cap: maximum advisory bounds kept per snapshot.

    Returns:
        The :class:`VirtualRun` — offer-ordered store, merged counters
        (coordinator + replay + every shard), and scheduling tallies.
    """
    table = TransposedTable.build(data, consequent)
    ctx = SearchContext.for_table(table, constraints, ALL_PRUNINGS)
    coordinator = NodeCounters()
    run = VirtualRun(store=_IRGStore(), counters=NodeCounters())
    store = run.store
    root_state = ctx.root_state(table)
    if root_state is None:
        run.counters = merge_counters([coordinator])
        return run
    plan, tasks, _ = _decompose(
        ctx, root_state, coordinator, target, 4 * target, None, True
    )

    picks = _Stream(schedule.picks, 0)
    quanta = _Stream(schedule.quanta, 2**62)
    splits = _Stream(schedule.splits, 0)
    kills = _Stream(schedule.kills, 0)
    advisories = _Stream(schedule.advisories, 1)

    shared = AdvisoryBounds(cap=advisory_cap)
    pending: list[_VirtualPart] = []
    shard_parts: dict[int, list[_VirtualPart]] = {}
    shard_open: dict[int, int] = {}
    sequence = 0
    for index, leaf in enumerate(tasks):
        part = _VirtualPart(
            index, sequence, _detach([(FRONTIER_STATE, leaf.state)])
        )
        sequence += 1
        pending.append(part)
        shard_parts[index] = [part]
        shard_open[index] = 1

    while pending:
        index = picks.next() % len(pending)
        part = pending.pop(index)
        quantum = max(1, quanta.next())
        use_advisory = bool(advisories.next())
        advisory = (
            AdvisoryBounds(shared.snapshot(), cap=advisory_cap)
            if use_advisory
            else None
        )
        sink: list = []
        counters = NodeCounters()
        units = _attach(root_state.table, part.units)
        if advisory is None:
            frontier = enumerate_frontier(ctx, units, counters, sink, quantum)
        else:
            frontier = _walk_part(
                ctx, units, counters, sink, quantum, advisory, None
            )
        if frontier is not None:
            frontier = _detach(frontier)
        run.dispatches += 1
        kill = bool(kills.next()) and part.attempts < MAX_ATTEMPTS - 1
        event = {
            "part": part.seq,
            "shard": part.shard,
            "quantum": quantum,
            "advisory": int(use_advisory),
            "killed": int(kill),
            "donated": 0 if frontier is None else len(frontier),
            "split_at": 0,
        }
        if kill:
            # The attempt dies with its results and its donated half —
            # the part itself survives on the queue, like the
            # production requeue after a donor death.
            part.attempts += 1
            run.kills += 1
            run.trace.append(event)
            pending.append(part)
            continue
        part.candidates = sink
        part.counters = counters
        part.drops = advisory.drops if advisory is not None else 0
        for candidate in sink:
            shared.extend(candidate.row_mask, candidate.confidence)
        if frontier is not None:
            run.donations += 1
            selector = splits.next()
            if selector and len(frontier) >= 2:
                point = selector % (len(frontier) - 1) + 1
                chunks = [frontier[:point], frontier[point:]]
                event["split_at"] = point
                run.splits += 1
            else:
                chunks = [frontier]
            for chunk in chunks:
                child = _VirtualPart(part.shard, sequence, chunk)
                sequence += 1
                part.children.append(child)
                shard_parts[part.shard].append(child)
                shard_open[part.shard] += 1
                pending.append(child)
        run.trace.append(event)
        shard_open[part.shard] -= 1
        if shard_open[part.shard] == 0:
            parts = shard_parts[part.shard]
            leaf = tasks[part.shard]
            stitched: list = []
            parts[0].flatten(stitched)
            leaf.candidates = stitched
            leaf.counters = merge_counters([p.counters for p in parts])
            leaf.drops = sum(p.drops for p in parts)

    replay = NodeCounters()
    candidates: list = []
    _assemble(plan, candidates)
    for candidate in candidates:
        store.offer(candidate, replay)
    run.counters = merge_counters(
        [coordinator, replay, *(leaf.counters for leaf in tasks)]
    )
    return run


def serialized_store(data, consequent, constraints, store, path) -> bytes:
    """The exact ``.irgs`` bytes ``core.serialize`` writes for ``store``.

    Routes through the same group-building path the serial miner uses
    (:class:`~repro.core.farmer.Farmer`), so comparing these bytes
    against a serial run compares the full user-visible artifact.
    """
    from repro.core.serialize import save_rule_groups

    groups = Farmer(constraints=constraints)._finish_groups(
        TransposedTable.build(data, consequent), store
    )
    save_rule_groups(path, groups, constraints=constraints)
    return path.read_bytes()


#: Envelope version tag of a persisted schedule.
TRACE_ENVELOPE = "repro-schedule-trace/1"


def save_trace(path, schedule: Schedule) -> None:
    """Persist a schedule in the checksummed envelope."""
    save_checkpoint(path, schedule.to_payload(), TRACE_ENVELOPE)


def load_trace(path) -> Schedule:
    """Load a schedule persisted by :func:`save_trace` (verified)."""
    return Schedule.from_payload(load_checkpoint(path, TRACE_ENVELOPE))
