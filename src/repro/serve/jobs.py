"""The daemon's job queue: bounded workers, budgets, cancellation.

One :class:`Job` is one mining run requested over HTTP: a validated
:class:`~repro.serve.schemas.JobSpec`, an
:class:`~repro.obs.tap.EventTap` collecting the run's full telemetry
stream (the job-status and job-events endpoints read it live), and —
once terminal — either a persisted ``.irgs`` artifact or an error.

:class:`JobQueue` owns a bounded pool of **threads**, each running one
mine at a time through the exact :class:`~repro.core.farmer.Farmer`
path the CLI uses.  Threads (not processes) are the right pool here:
a serial mine holds the GIL, but jobs that ask for ``workers`` shard
across *processes* via :mod:`repro.core.parallel` exactly as the CLI
does, and the packed-word tables release the GIL in their vectorized
kernels — the pool bounds concurrent *mines*, not concurrent CPUs.

Resource-limit semantics (``docs/serve.md`` documents each):

* **queue depth** — :meth:`JobQueue.submit` refuses new work with
  ``429 queue_full`` once the backlog reaches the cap; the daemon
  never buffers unboundedly.
* **wall-clock timeout** — every job runs under a strict
  :class:`~repro.core.enumeration.SearchBudget` deadline (the job's
  ``timeout_seconds`` or the server default); exceeding it ends the
  job in state ``timeout``, not ``failed``.
* **node budget** — a job's ``max_nodes`` runs the serial miner under
  a strict node budget; exceeding it is also a ``timeout`` (the
  resource-limit family shares one terminal state).
* **cancellation** — ``DELETE /v1/jobs/{id}`` dequeues a queued job
  immediately; a running job is cancelled cooperatively via
  :class:`CancellableBudget` (a serial mine within 128 nodes, a
  sharded one within about a tenth of a second, or between shards when
  one worker runs them in the coordinator) and ends in state
  ``cancelled``.

Byte identity is load-bearing: a job's ``.irgs`` artifact is written by
the same :func:`~repro.core.serialize.save_rule_groups` call the CLI
uses, from the same miner, so fetching a job result is byte-identical
to mining locally — warm-cache answers included
(``tests/test_serve.py`` pins this across hand-off cutoffs).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.constraints import Constraints
from ..core.enumeration import SearchBudget
from ..core.farmer import Farmer
from ..core.serialize import save_rule_groups
from ..errors import BudgetExceeded, ReproError
from ..obs import EventTap, Telemetry
from .registry import DatasetRegistry
from .schemas import ACTIVE_STATES, ApiError, JobSpec, TERMINAL_STATES

__all__ = [
    "CancellableBudget",
    "DEFAULT_JOB_TIMEOUT",
    "Job",
    "JobCancelled",
    "JobQueue",
]

#: Wall-clock budget (seconds) for jobs that do not set their own —
#: the same default as ``farmer mine --timeout``.
DEFAULT_JOB_TIMEOUT = 300.0

#: Nodes between cancellation-event polls; an ``Event.is_set`` per
#: node would tax the enumeration hot path for nothing.
_CANCEL_POLL_NODES = 128


class JobCancelled(ReproError):
    """Raised inside a mine when its job's cancel event is set."""


@dataclass
class CancellableBudget(SearchBudget):
    """A :class:`~repro.core.enumeration.SearchBudget` with a kill switch.

    The budget is the one hook guaranteed to run throughout a serial
    enumeration, so cooperative cancellation rides on it: the ticks of
    the first node and of every :data:`_CANCEL_POLL_NODES`-th node after
    it (the 129th, the 257th, ...) poll the job's cancel event and raise
    :class:`JobCancelled` when it is set, and :meth:`until_check` ends
    the walk's chunks of nodes there.
    Sharded mines poll through :meth:`poll` on the coordinator, while it
    decomposes and about every tenth of a second while shard parts run
    in worker processes (which a cancel kills), or every 256 nodes of a
    shard part when one worker runs them in the coordinator.

    Attributes:
        cancel: the job's cancel event (``None`` disables the switch —
            the budget then behaves exactly like its base class).
    """

    cancel: "threading.Event | None" = None

    def until_check(self) -> int:
        """As the base class, but no later than the next cancel poll."""
        span = super().until_check()
        if self.cancel is not None:
            poll = -self._nodes % _CANCEL_POLL_NODES
            if poll < span:
                span = poll
        return span

    def poll(self) -> None:
        """Raise :class:`JobCancelled` if the job's cancel event is set."""
        if self.cancel is not None and self.cancel.is_set():
            raise JobCancelled("job cancelled")

    def tick(self) -> None:
        """Account one node; raise on budget or cancellation."""
        if (
            self.cancel is not None
            and self._nodes % _CANCEL_POLL_NODES == 0
            and self.cancel.is_set()
        ):
            raise JobCancelled("job cancelled")
        super().tick()


class Job:
    """One submitted mining job and everything the API reports about it.

    State transitions are owned by :class:`JobQueue` and serialized by
    the job's lock; HTTP handler threads only ever read (via
    :meth:`to_payload`) or request cancellation.

    Args:
        job_id: the queue-assigned id (``job-000001``, ...).
        spec: the validated job spec.
    """

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.tap = EventTap()
        self.error: "str | None" = None
        self.result_path: "Path | None" = None
        self.summary: "dict | None" = None
        self.cancel_event = threading.Event()
        self.telemetry: "Telemetry | None" = None
        self.submitted_at = time.time()
        self.finished_at: "float | None" = None
        self._lock = threading.Lock()

    def transition(self, state: str) -> bool:
        """Move to ``state`` unless already terminal.

        Args:
            state: the target job state.

        Returns:
            ``True`` when the transition happened; ``False`` when the
            job had already reached a terminal state (terminal states
            never change — a cancel racing a finish loses cleanly).
        """
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.state = state
            if state in TERMINAL_STATES:
                self.finished_at = time.time()
            return True

    def to_payload(self) -> dict:
        """The job as ``GET /v1/jobs/{id}`` reports it.

        Returns:
            A JSON-able dict: id, state, echoed spec, event count,
            live ``progress`` (phase and node count sampled from the
            run's telemetry) while running, and the terminal ``error``
            or result ``summary`` once finished.
        """
        with self._lock:
            state = self.state
            error = self.error
            summary = self.summary
        payload: dict = {
            "id": self.id,
            "state": state,
            "spec": self.spec.to_payload(),
            "events": self.tap.events,
            "cancel_requested": self.cancel_event.is_set(),
            "submitted_at": round(self.submitted_at, 3),
            "finished_at": (
                round(self.finished_at, 3)
                if self.finished_at is not None
                else None
            ),
        }
        telemetry = self.telemetry
        if state == "running" and telemetry is not None:
            sample = telemetry.sample()
            phase_event = self.tap.last("phase_start")
            progress: dict = {}
            if phase_event is not None:
                progress["phase"] = phase_event.get("phase")
            if sample is not None:
                progress["nodes"] = sample.get("nodes")
            payload["progress"] = progress
        if error is not None:
            payload["error"] = error
        if summary is not None:
            payload["summary"] = summary
        return payload


class JobQueue:
    """The bounded asynchronous mining pool behind ``POST /v1/jobs``.

    Args:
        registry: the daemon's dataset registry (tables and the shared
            warm-frontier directory come from it).
        results_dir: where job artifacts (``<job>.irgs``) are written.
        workers: concurrent mining threads (positive).
        queue_depth: maximum backlog of queued jobs before
            :meth:`submit` answers ``429 queue_full``.
        job_timeout: default wall-clock budget per job in seconds.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        results_dir: "str | Path",
        workers: int = 2,
        queue_depth: int = 16,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
    ) -> None:
        self.registry = registry
        self.results_dir = Path(results_dir)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.queue_depth = queue_depth
        self.job_timeout = job_timeout
        self._jobs: "dict[str, Job]" = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._pending: "queue.Queue[Job | None]" = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"farmer-serve-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue one job (the ``POST /v1/jobs`` entry point).

        The dataset id is validated against the live registry *before*
        queueing, so a job that cannot run is never accepted.

        Args:
            spec: the validated job spec.

        Returns:
            The queued :class:`Job` (state ``queued``).

        Raises:
            ApiError: ``404 not_found`` for an unknown dataset,
                ``429 queue_full`` when the backlog is at capacity.
        """
        if spec.dataset not in self.registry.dataset_ids():
            raise ApiError(
                404, "not_found", f"unknown dataset {spec.dataset!r}"
            )
        with self._lock:
            backlog = sum(
                1
                for job_id in self._order
                if self._jobs[job_id].state == "queued"
            )
            if backlog >= self.queue_depth:
                raise ApiError(
                    429,
                    "queue_full",
                    f"job queue is full ({backlog} queued, cap "
                    f"{self.queue_depth}); retry later",
                )
            job = Job(f"job-{len(self._order) + 1:06d}", spec)
            self._jobs[job.id] = job
            self._order.append(job.id)
        job.tap.emit("job_queued", job=job.id, dataset=spec.dataset)
        self._pending.put(job)
        return job

    def get(self, job_id: str) -> Job:
        """The job for ``job_id``.

        Args:
            job_id: a queue-assigned job id.

        Returns:
            The :class:`Job`.

        Raises:
            ApiError: ``404 not_found`` for an unknown id.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, "not_found", f"unknown job {job_id!r}")
        return job

    def list_jobs(self) -> list[dict]:
        """Every job's payload, submission order (``GET /v1/jobs``)."""
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        return [job.to_payload() for job in jobs]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job (``DELETE /v1/jobs/{id}``).

        A queued job goes terminal immediately; a running one gets its
        cancel event set and goes terminal at the miner's next poll.
        Cancelling a terminal job is a ``409 conflict`` — its outcome
        is already fixed.

        Args:
            job_id: a queue-assigned job id.

        Returns:
            The (possibly still ``running``) job.

        Raises:
            ApiError: ``404 not_found`` / ``409 conflict``.
        """
        job = self.get(job_id)
        if job.state in TERMINAL_STATES:
            raise ApiError(
                409,
                "conflict",
                f"job {job_id} already finished ({job.state})",
            )
        job.cancel_event.set()
        if job.state == "queued" and job.transition("cancelled"):
            job.tap.emit("job_end", job=job.id, state="cancelled")
            job.tap.close()
        return job

    def counts(self) -> dict:
        """Jobs per state (the health endpoint's queue gauge)."""
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        tally = {state: 0 for state in ACTIVE_STATES + TERMINAL_STATES}
        for job in jobs:
            tally[job.state] = tally.get(job.state, 0) + 1
        return tally

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the pool: cancel active jobs, wake and join workers.

        Args:
            timeout: per-thread join timeout in seconds (a worker stuck
                in a shard outlives it as a daemon thread).
        """
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        for job in jobs:
            if job.state in ACTIVE_STATES:
                job.cancel_event.set()
        for _ in self._workers:
            self._pending.put(None)
        for thread in self._workers:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        """One pool thread: run queued jobs until the shutdown sentinel."""
        while True:
            job = self._pending.get()
            if job is None:
                return
            if not job.transition("running"):
                continue  # cancelled while queued
            try:
                self._execute(job)
            except BaseException as exc:  # the pool must survive anything
                self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")

    def _execute(self, job: Job) -> None:
        """Run one job through the standard miner path."""
        spec = job.spec
        job.tap.emit("job_start", job=job.id)
        data, table, table_hit = self.registry.table(
            spec.dataset, spec.scale, spec.seed, spec.buckets, spec.consequent
        )
        job.tap.emit(
            "dataset_cache",
            job=job.id,
            dataset=spec.dataset,
            table="hit" if table_hit else "miss",
        )
        if job.cancel_event.is_set():
            self._finish(job, "cancelled")
            return
        telemetry = Telemetry(runlog=job.tap)
        job.telemetry = telemetry
        budget = CancellableBudget(
            max_nodes=spec.max_nodes,
            max_seconds=(
                spec.timeout_seconds
                if spec.timeout_seconds is not None
                else self.job_timeout
            ),
            strict=True,
            cancel=job.cancel_event,
        )
        miner = Farmer(
            constraints=Constraints(
                minsup=spec.minsup, minconf=spec.minconf, minchi=spec.minchi
            ),
            compute_lower_bounds=spec.lower_bounds,
            budget=budget,
            n_workers=spec.workers,
            steal=spec.steal,
            steal_quantum=spec.steal_quantum,
            engine=spec.engine,
            telemetry=telemetry,
            warm_cache=(
                str(self.registry.frontier_dir)
                if spec.use_warm_cache()
                else None
            ),
        )
        try:
            result = miner.mine_table(table)
        except JobCancelled:
            self._finish(job, "cancelled")
            return
        except BudgetExceeded as exc:
            self._finish(job, "timeout", error=str(exc))
            return
        except ReproError as exc:
            self._finish(job, "failed", error=str(exc))
            return
        result_path = self.results_dir / f"{job.id}.irgs"
        save_rule_groups(
            result_path,
            result.groups,
            constraints=result.constraints,
            dataset_name=data.name,
        )
        job.result_path = result_path
        self._finish(
            job,
            "done",
            summary={
                "groups": len(result.groups),
                "nodes": result.counters.nodes,
                "elapsed_seconds": round(result.elapsed_seconds, 6),
                "truncated": result.truncated,
                "warm_cache": spec.use_warm_cache(),
            },
        )

    def _finish(
        self,
        job: Job,
        state: str,
        error: "str | None" = None,
        summary: "dict | None" = None,
    ) -> None:
        """Terminalize ``job`` (idempotent) and close its tap.

        Args:
            job: The job to move into a terminal state.
            state: Target terminal state (``done``/``failed``/...).
            error: Human-readable failure reason, if any.
            summary: Result summary to publish on the job record.
        """
        if not job.transition(state):
            return
        job.error = error
        job.summary = summary
        job.telemetry = None
        event_fields = {"job": job.id, "state": state}
        if error is not None:
            event_fields["error"] = error
        job.tap.emit("job_end", **event_fields)
        job.tap.close()
