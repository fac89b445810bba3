"""Crash-consistent progress snapshots for the sharded miner.

The sharded pipeline (:mod:`repro.core.parallel`) has exactly one piece
of hard-won state: the per-shard candidate sequences already collected.
Everything else — the task decomposition, the admission replay, the
merged counters — is a deterministic function of the input, so a
checkpoint only needs to record *which shards finished and what they
returned*.  On resume the coordinator re-runs the (cheap, deterministic)
decomposition, verifies it produced the same shards via a content
fingerprint, restores the finished shard results, and executes only the
remainder; the final Step-7 replay then yields output byte-identical to
an uninterrupted run.  That is the invariant the differential resume
suite (``tests/test_checkpoint.py``) pins at every checkpoint boundary.

What a checkpoint holds:

* the **run fingerprint** — a SHA-256 over the transposed table, the
  constraints/prunings, and the shard structure, so a checkpoint can
  never be replayed against the wrong dataset or settings;
* the **decomposition shape** (``target``/``expansion_cap``) — stored so
  a resume re-decomposes identically even when ``n_workers`` changes;
* one **task record** per completed shard — its candidate sequence (in
  subtree discovery order), its node counters, and its advisory drops;
* the coordinator's **advisory-bounds snapshot** — the broadcast
  dominance table at checkpoint time (advisory only: restoring a stale
  table never changes the mined output, see
  :class:`~repro.core.parallel.AdvisoryBounds`).

Nothing here touches the filesystem directly: bytes, checksums, fsync
and version tags are :mod:`repro.core.serialize`'s job (enforced by
farmer-lint rule FRM007), and everything stored is a counter or a pure
function of the input — no RNG state, no wall-clock, no process ids —
so checkpoint bytes are deterministic too.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..errors import DataError
from ..testing.chaos import maybe_fault_checkpoint
from .constraints import Constraints
from .enumeration import NodeCounters
from .farmer import Candidate
from .frontier import candidate_from_row, candidate_row
from .serialize import (
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    save_checkpoint_body,
)

__all__ = [
    "TaskRecord",
    "CheckpointState",
    "Checkpointer",
    "run_fingerprint",
]


def run_fingerprint(
    n: int,
    m: int,
    consequent: object,
    item_masks: Sequence[int],
    positive_mask: int,
    constraints: Constraints,
    prunings: Iterable[str],
    target: int,
    expansion_cap: int,
    task_masks: Sequence[int],
) -> str:
    """Content hash binding a checkpoint to one exact mining run.

    Covers the transposed table (dimensions, item supports, class mask),
    the thresholds and prunings (they steer which candidates exist), and
    the decomposition result (the ``x_mask`` of every frontier shard, in
    dispatch order).  Two runs share a fingerprint iff their shard
    results are interchangeable.

    Args:
        n: total row count of the dataset.
        m: rows carrying the consequent class.
        consequent: the class label mined against.
        item_masks: per-item row bitsets of the transposed table.
        positive_mask: row bitset of the consequent class.
        constraints: the admission thresholds of the run.
        prunings: enabled pruning strategy names.
        target: Step-7 admission target (top-``k``).
        expansion_cap: decomposition expansion cap.
        task_masks: ``x_mask`` of every frontier shard in dispatch order.

    Returns:
        A hex SHA-256 digest of the canonical run description.
    """
    payload = {
        "n": n,
        "m": m,
        "consequent": str(consequent),
        "item_masks": list(item_masks),
        "positive_mask": positive_mask,
        "constraints": [
            constraints.minsup,
            constraints.minconf,
            constraints.minchi,
        ],
        "prunings": sorted(prunings),
        "target": target,
        "expansion_cap": expansion_cap,
        "tasks": list(task_masks),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class TaskRecord:
    """The complete result of one finished shard.

    Attributes:
        index: the shard's position in the dispatch (largest-first)
            order — stable across runs because the decomposition is
            deterministic.
        candidates: the shard subtree's threshold-satisfying Step-7
            candidates, in discovery order.
        counters: the node/pruning counters of the shard traversal.
        drops: candidates dropped against broadcast advisory bounds
            (already accounted in ``counters.candidates_rejected``).
        steals: steal events the shard went through before completing —
            how many times its enumeration frontier was donated and
            re-enqueued by the work-stealing scheduler.  Diagnostics
            only: the stitched candidate sequence is byte-identical for
            any steal count, and records written by static-schedule runs
            simply carry ``0``.
    """

    index: int
    candidates: list[Candidate]
    counters: NodeCounters
    drops: int = 0
    steals: int = 0

    def to_payload(self) -> dict:
        """This record as a JSON-able dict (canonical field order)."""
        return {
            "task": self.index,
            "candidates": [candidate_row(c) for c in self.candidates],
            "counters": {
                spec.name: getattr(self.counters, spec.name)
                for spec in fields(NodeCounters)
            },
            "drops": self.drops,
            "steals": self.steals,
        }

    @classmethod
    def from_payload(cls, payload: object) -> "TaskRecord":
        """Rebuild a record; :class:`DataError` on any malformed field."""
        if not isinstance(payload, dict):
            raise DataError("checkpoint task record is not an object")
        try:
            index = payload["task"]
            raw_candidates = payload["candidates"]
            raw_counters = payload["counters"]
            drops = payload.get("drops", 0)
            steals = payload.get("steals", 0)
        except KeyError as exc:
            raise DataError(f"checkpoint task record missing {exc}") from exc
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise DataError(f"checkpoint task index {index!r} is not valid")
        if (
            not isinstance(raw_candidates, list)
            or not isinstance(drops, int)
            or not isinstance(steals, int)
            or isinstance(steals, bool)
            or steals < 0
        ):
            raise DataError(f"checkpoint task {index}: malformed record")
        candidates = [
            candidate_from_row(entry, f"checkpoint task {index}")
            for entry in raw_candidates
        ]
        if not isinstance(raw_counters, dict):
            raise DataError(f"checkpoint task {index}: malformed counters")
        counters = NodeCounters()
        for spec in fields(NodeCounters):
            value = raw_counters.get(spec.name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DataError(
                    f"checkpoint task {index}: counter {spec.name!r} "
                    "is not an integer"
                )
            setattr(counters, spec.name, value)
        return cls(
            index=index,
            candidates=candidates,
            counters=counters,
            drops=drops,
            steals=steals,
        )


@dataclass
class CheckpointState:
    """Everything the coordinator needs to resume a sharded run.

    Attributes:
        fingerprint: :func:`run_fingerprint` of the owning run.
        n_tasks: total shards in the decomposition.
        target: frontier-size target the decomposition used (stored so
            resume reproduces it independently of ``n_workers``).
        expansion_cap: decomposition expansion cap, likewise.
        completed: finished shard records keyed by shard index.
        advisory: broadcast-bounds snapshot at checkpoint time
            (``None`` when the run had broadcasting off).
    """

    fingerprint: str
    n_tasks: int
    target: int
    expansion_cap: int
    completed: dict[int, TaskRecord] = field(default_factory=dict)
    advisory: list[tuple[float, int]] | None = None

    def to_payload(self) -> dict:
        """The JSON-able payload handed to ``core.serialize``."""
        return {
            "fingerprint": self.fingerprint,
            "n_tasks": self.n_tasks,
            "target": self.target,
            "expansion_cap": self.expansion_cap,
            "completed": [
                self.completed[index].to_payload()
                for index in sorted(self.completed)
            ],
            "advisory": self.advisory,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CheckpointState":
        """Validate and rebuild; :class:`DataError` on malformed state."""
        try:
            fingerprint = payload["fingerprint"]
            n_tasks = payload["n_tasks"]
            target = payload["target"]
            expansion_cap = payload["expansion_cap"]
            raw_completed = payload["completed"]
            raw_advisory = payload["advisory"]
        except KeyError as exc:
            raise DataError(f"checkpoint payload missing {exc}") from exc
        if not isinstance(fingerprint, str):
            raise DataError("checkpoint fingerprint is not a string")
        for name, value in (
            ("n_tasks", n_tasks),
            ("target", target),
            ("expansion_cap", expansion_cap),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise DataError(f"checkpoint {name} {value!r} is not valid")
        if not isinstance(raw_completed, list):
            raise DataError("checkpoint completed-task list is malformed")
        completed: dict[int, TaskRecord] = {}
        for entry in raw_completed:
            record = TaskRecord.from_payload(entry)
            if record.index >= n_tasks:
                raise DataError(
                    f"checkpoint task index {record.index} out of range "
                    f"(run has {n_tasks} shards)"
                )
            if record.index in completed:
                raise DataError(
                    f"checkpoint repeats task index {record.index}"
                )
            completed[record.index] = record
        advisory: list[tuple[float, int]] | None = None
        if raw_advisory is not None:
            if not isinstance(raw_advisory, list):
                raise DataError("checkpoint advisory table is malformed")
            advisory = []
            for entry in raw_advisory:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not isinstance(entry[0], (int, float))
                    or not isinstance(entry[1], int)
                ):
                    raise DataError(
                        f"checkpoint advisory entry {entry!r} is malformed"
                    )
                advisory.append((float(entry[0]), entry[1]))
        return cls(
            fingerprint=fingerprint,
            n_tasks=n_tasks,
            target=target,
            expansion_cap=expansion_cap,
            completed=completed,
            advisory=advisory,
        )

    def save(self, path: str | Path) -> None:
        """Persist via the versioned, fsync'd envelope in ``serialize``."""
        save_checkpoint(path, self.to_payload())

    @classmethod
    def load(cls, path: str | Path) -> "CheckpointState":
        """Load and validate a checkpoint file end to end."""
        return cls.from_payload(load_checkpoint(path))


class Checkpointer:
    """Batches shard completions into periodic durable checkpoint writes.

    The coordinator calls :meth:`record` once per finished shard; every
    ``every`` completions a write is issued.  :meth:`flush` forces the
    pending state out and blocks until every issued write is durable;
    :meth:`close` additionally retires the writer.  The coordinator calls
    :meth:`close` on the way out of the execute loop, so an aborting run
    (strict budget, fatal worker fault) still leaves its latest progress
    on disk before the exception escapes.

    Writes are kept off the mining critical path twice over:

    * **a background writer thread** — :meth:`record` only appends the
      (immutable) shard record to a pending delta; encoding, payload
      assembly, checksumming, the atomic replace and the fsync all
      happen on the writer thread, overlapped with worker compute.  The
      queue is bounded, so a slow disk applies backpressure instead of
      accumulating snapshots.
    * **incremental encoding** — the writer renders each shard to its
      canonical-JSON fragment exactly once (cached per shard index) and
      assembles a snapshot by joining cached fragments
      (:func:`_assemble_body`), so total encode work is linear in the
      state, not quadratic in the write count.

    Writes are issued, and land, in order — one durable file per issued
    write, never coalesced — so the write count for a given run is as
    deterministic as the synchronous design, which is what the
    fault-injection harness keys ``ckpt-*`` faults on.  A fault or I/O
    error on the writer thread parks the error and stops writing (later
    snapshots must not land after a failed one); the next coordinator
    call into :meth:`record`, :meth:`flush` or :meth:`close` re-raises it
    exactly once.

    ``on_write`` is an optional observation hook called as
    ``on_write(write_index, seconds)`` on the writer thread after each
    durable write lands, with the monotonic-clock duration of the write
    (encode + replace + fsync).  It exists for telemetry
    (:meth:`repro.obs.telemetry.Telemetry.checkpoint_hook`); exceptions
    it raises are swallowed — observation must never fail a run — and it
    must not touch the checkpoint state.

    Attributes:
        writes: checkpoint writes issued so far, counted synchronously on
            the coordinator.  After a clean :meth:`flush`/:meth:`close`,
            equals the durable files written.
    """

    def __init__(
        self,
        path: str | Path,
        state: CheckpointState,
        every: int = 1,
        on_write: Callable[[int, float], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.state = state
        self.every = every
        self.on_write = on_write
        self.writes = 0
        self._unsaved = 0
        self._delta: list[TaskRecord] = []
        self._initial_records = dict(state.completed)
        self._queue: queue.Queue[
            tuple[int, list[TaskRecord], list[tuple[float, int]] | None]
            | None
        ] = queue.Queue(maxsize=32)
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def record(
        self,
        record: TaskRecord,
        advisory: list[tuple[float, int]] | None,
    ) -> None:
        """Fold one finished shard into the state; issue a write when due."""
        self._raise_pending()
        self.state.completed[record.index] = record
        self.state.advisory = advisory
        self._delta.append(record)
        self._unsaved += 1
        if self._unsaved >= self.every:
            self._issue()

    def flush(self) -> None:
        """Issue any pending write and block until all writes are durable."""
        self._issue()
        if self._thread is not None:
            self._queue.join()
        self._raise_pending()

    def close(self) -> None:
        """Flush, then retire the writer thread (idempotent)."""
        self._issue()
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None
        self._raise_pending()

    def _issue(self) -> None:
        if self._unsaved == 0:
            return
        self._unsaved = 0
        self.writes += 1
        delta, self._delta = self._delta, []
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._writer_loop,
                name="farmer-checkpoint-writer",
                daemon=True,
            )
            self._thread.start()
        self._queue.put((self.writes, delta, self.state.advisory))

    def _writer_loop(self) -> None:
        # The writer owns its own fragment caches, fed only by queued
        # deltas, so a snapshot's bytes depend on the records issued up
        # to that write — never on what the coordinator did since.
        # TaskRecords are never mutated after completion, so encoding
        # them here is race-free.
        fragments = {
            index: canonical_json(record.to_payload())
            for index, record in self._initial_records.items()
        }
        advisory_cache: dict[tuple[float, int], str] = {}
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                if self._error is not None:
                    continue  # drain without writing past a failure
                write_index, delta, advisory = job
                try:
                    for record in delta:
                        fragments[record.index] = canonical_json(
                            record.to_payload()
                        )
                    body = _assemble_body(
                        fragments,
                        advisory,
                        advisory_cache,
                        fingerprint=self.state.fingerprint,
                        n_tasks=self.state.n_tasks,
                        target=self.state.target,
                        expansion_cap=self.state.expansion_cap,
                    )
                    write_started = time.perf_counter()
                    save_checkpoint_body(self.path, body)
                    write_seconds = time.perf_counter() - write_started
                    maybe_fault_checkpoint(write_index)
                    if self.on_write is not None:
                        try:
                            self.on_write(write_index, write_seconds)
                        except Exception:
                            pass  # observation must never fail the run
                except BaseException as exc:  # parked for the coordinator
                    self._error = exc
            finally:
                self._queue.task_done()

    def _raise_pending(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error


def _assemble_body(
    fragments: dict[int, str],
    advisory: list[tuple[float, int]] | None,
    advisory_cache: dict[tuple[float, int], str],
    *,
    fingerprint: str,
    n_tasks: int,
    target: int,
    expansion_cap: int,
) -> str:
    """A checkpoint payload text joined from per-record fragments.

    Byte-identical to ``canonical_json(state.to_payload())`` for the
    equivalent :class:`CheckpointState` — pinned by the round-trip tests
    — without re-encoding previously recorded shards.  Advisory entries
    survive many snapshots (sorted inserts, rare evictions), so each
    distinct entry's rendering is memoised in ``advisory_cache``.
    """
    if advisory is None:
        advisory_text = "null"
    else:
        parts = []
        for entry in advisory:
            text = advisory_cache.get(entry)
            if text is None:
                text = advisory_cache[entry] = canonical_json(list(entry))
            parts.append(text)
        advisory_text = "[" + ",".join(parts) + "]"
    return (
        '{"advisory":'
        + advisory_text
        + ',"completed":['
        + ",".join(fragments[index] for index in sorted(fragments))
        + '],"expansion_cap":'
        + canonical_json(expansion_cap)
        + ',"fingerprint":'
        + canonical_json(fingerprint)
        + ',"n_tasks":'
        + canonical_json(n_tasks)
        + ',"target":'
        + canonical_json(target)
        + "}"
    )
