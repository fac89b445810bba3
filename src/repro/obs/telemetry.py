"""The telemetry facade the mining layers hook.

One :class:`Telemetry` object represents "telemetry is on" for one run.
Every miner integration point (:mod:`repro.core.farmer`,
:mod:`repro.core.parallel`, the baselines
and the CLI) takes ``telemetry: Telemetry | None`` and does strictly
nothing when it is ``None`` — absence of the object *is* the
off-by-default switch, so the disabled hot path pays at most a ``None``
check per call site that is never per-node.

The facade owns:

* a :class:`~repro.obs.metrics.MetricsRegistry` (always);
* an optional :class:`~repro.obs.runlog.RunLog` event sink;
* an optional :class:`~repro.obs.progress.ProgressReporter`;
* a background **sampler thread** that periodically reads a snapshot of
  shared miner state (node counts the miner maintains anyway) and feeds
  the progress reporter.  Sampling is how the live display stays at
  zero marginal cost per enumeration node: the row-enumeration walk,
  serial or in workers, is never instrumented per node — the
  sampler reads counters that already exist, at its own cadence, from
  its own thread.

Instrumentation discipline: phase boundaries are timed (a handful per
run), shard-task completions are counted (tens per run), and per-node
statistics are
folded in *once* from :class:`~repro.core.enumeration.NodeCounters` and
:class:`~repro.core.kernel.ScanStats` at run end.  The full catalogue
of metric and event names lives in ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Iterator, Mapping

from .metrics import MetricsRegistry, MetricsSnapshot
from .progress import ProgressReporter
from .runlog import RunLog
from .tap import EventTap

__all__ = ["Telemetry"]

#: Default sampler cadence in seconds (also the progress refresh floor).
DEFAULT_SAMPLE_INTERVAL = 0.2


class Telemetry:
    """Per-run telemetry: registry, sinks and the sampler thread.

    Args:
        runlog: optional structured event sink — a persisted
            :class:`~repro.obs.runlog.RunLog` or an in-memory
            :class:`~repro.obs.tap.EventTap`; closed by :meth:`close`.
        progress: optional live progress reporter.
        registry: the metrics registry to use (one is created when
            omitted).
        sample_interval: sampler thread cadence in seconds.

    A ``Telemetry`` is observational only: nothing it does may change
    mined output (pinned by the differential tests in
    ``tests/test_obs.py``).
    """

    def __init__(
        self,
        runlog: RunLog | EventTap | None = None,
        progress: ProgressReporter | None = None,
        registry: MetricsRegistry | None = None,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.runlog = runlog
        self.progress = progress
        self.sample_interval = sample_interval
        self._sampler: threading.Thread | None = None
        self._stop = threading.Event()
        self._source: Callable[[], dict] | None = None
        self._source_started = 0.0

    # ------------------------------------------------------------------
    # Events and phases
    # ------------------------------------------------------------------

    def event(self, kind: str, **fields: object) -> None:
        """Emit one run-log event (no-op when no run log is attached).

        Args:
            kind: the event type (see ``docs/observability.md``).
            **fields: JSON-able payload fields.
        """
        if self.runlog is not None:
            self.runlog.emit(kind, **fields)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope one run phase: paired events plus a phase timer.

        Args:
            name: phase name (``search``, ``decompose``, ``execute``,
                ``reduce``, ``build``, ...).

        Returns:
            A context manager; entering emits ``phase_start``, leaving
            emits ``phase_end`` and records the duration into the
            ``phase.<name>.seconds`` timer.
        """
        started = time.perf_counter()
        self.event("phase_start", phase=name)
        try:
            with self.registry.time(f"phase.{name}.seconds"):
                yield
        finally:
            self.event(
                "phase_end",
                phase=name,
                seconds=round(time.perf_counter() - started, 6),
            )

    def run_start(self, **fields: object) -> None:
        """Emit the ``run_start`` event.

        Args:
            **fields: run parameters (dataset shape, constraints, ...).
                This is the one event carrying a wall-clock anchor
                (``unix_time``); all other timestamps are monotonic.
        """
        self.event("run_start", unix_time=round(time.time(), 3), **fields)

    def run_end(self, **fields: object) -> MetricsSnapshot:
        """Finish the run: emit the final metrics and ``run_end`` events.

        Args:
            **fields: run outcome fields (groups found, truncation, ...).

        Returns:
            The final :class:`~repro.obs.metrics.MetricsSnapshot`, which
            is also emitted as a ``metrics`` event.
        """
        self.stop_sampling()
        snapshot = self.registry.snapshot()
        self.event("metrics", **snapshot.to_payload())
        self.event("run_end", **fields)
        return snapshot

    # ------------------------------------------------------------------
    # Folding miner statistics into the registry
    # ------------------------------------------------------------------

    def add_counters(self, values: Mapping[str, int]) -> None:
        """Fold a mapping of already-namespaced counters into the registry.

        Args:
            values: counter name -> increment (negatives are invalid).
        """
        for name, value in values.items():
            self.registry.inc(name, value)

    def fold_node_counters(self, counters: object) -> None:
        """Fold a :class:`~repro.core.enumeration.NodeCounters` in.

        Args:
            counters: the run's merged node counters; each dataclass
                field becomes the counter ``search.<field>``.
        """
        for spec in fields(counters):  # type: ignore[arg-type]
            self.registry.inc(
                f"search.{spec.name}", getattr(counters, spec.name)
            )

    # ------------------------------------------------------------------
    # Background sampling (drives the progress display)
    # ------------------------------------------------------------------

    def start_sampling(self, source: Callable[[], dict]) -> None:
        """Start the sampler thread over a shared-state reader.

        Args:
            source: zero-argument callable returning the current run
                view — a dict with ``phase`` (str), ``nodes`` (int) and
                optionally ``pruned`` (int), ``groups`` (int),
                ``done_weight`` / ``total_weight`` (floats; the
                enumeration-tree coverage the ETA derives from).  It is
                called from the sampler thread and must only read
                already-maintained state (GIL-atomic reads), never take
                miner locks or mutate anything.

        The sampler computes nodes/sec from consecutive samples, tracks
        the peak into the ``progress.nodes_per_sec`` gauge, and drives
        the progress reporter when one is attached.  At most one sampler
        runs; a second call replaces the first.

        The thread is only spawned when a progress reporter is attached:
        it exists to feed the live display.  Without one the same gauge
        is filled with the run-average rate at :meth:`stop_sampling` —
        spawning and joining a thread per mine costs close to a
        millisecond, which alone would blow the 2% overhead bar on
        sub-second runs (``benchmarks/bench_obs_overhead.py``).
        """
        self.stop_sampling()
        self._source = source
        self._source_started = time.perf_counter()
        if self.progress is None:
            return
        self._stop = threading.Event()
        self._sampler = threading.Thread(
            target=self._sample_loop,
            args=(source, self._stop),
            name="farmer-telemetry-sampler",
            daemon=True,
        )
        self._sampler.start()

    def sample(self) -> dict | None:
        """One live snapshot of the attached shared-state reader.

        Returns:
            The current run view (the same ``phase`` / ``nodes`` / ...
            dict the sampler thread reads — see :meth:`start_sampling`),
            or ``None`` when no source is attached or the read tears.
            This is the poll entry point for hosts that watch a run from
            their own threads (the ``farmer serve`` job-status endpoint)
            instead of through a progress reporter.
        """
        source = self._source
        if source is None:
            return None
        try:
            return dict(source())
        except Exception:
            return None  # observational: a torn read must not kill the poll

    def stop_sampling(self) -> None:
        """Stop sampling and finalize the rate gauge (idempotent).

        Joins the sampler thread when one ran; otherwise derives the
        ``progress.nodes_per_sec`` gauge from the source's final node
        count over the sampled span (the run-average rate).
        """
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
            self._sampler = None
            self._source = None
            return
        source, self._source = self._source, None
        if source is None:
            return
        elapsed = time.perf_counter() - self._source_started
        if elapsed <= 0.0:
            return
        try:
            nodes = int(source().get("nodes", 0))
        except Exception:
            return  # observational: a torn read must not kill the run
        if nodes:
            self.registry.set_gauge("progress.nodes_per_sec", nodes / elapsed)

    def _sample_loop(self, source: Callable[[], dict], stop: threading.Event) -> None:
        started = time.perf_counter()
        last_nodes = 0
        last_time = started
        peak_rate = 0.0
        while not stop.wait(self.sample_interval):
            try:
                stats = source()
            except Exception:
                continue  # observational: a torn read must not kill the run
            now = time.perf_counter()
            nodes = int(stats.get("nodes", 0))
            rate = (
                (nodes - last_nodes) / (now - last_time)
                if now > last_time
                else 0.0
            )
            last_nodes, last_time = nodes, now
            if rate > peak_rate:
                peak_rate = rate
                self.registry.set_gauge("progress.nodes_per_sec", peak_rate)
            if self.progress is None:
                continue
            pruned = stats.get("pruned")
            pruned_fraction = (
                pruned / nodes if pruned is not None and nodes else None
            )
            done = float(stats.get("done_weight", 0.0))
            total = float(stats.get("total_weight", 0.0))
            eta = None
            if total > 0.0 and done > 0.0:
                eta = (now - started) * max(0.0, total - done) / done
            self.progress.update(
                str(stats.get("phase", "mine")),
                nodes=nodes,
                rate=rate,
                pruned_fraction=pruned_fraction,
                groups=stats.get("groups"),
                eta_seconds=eta,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, summary: str | None = None) -> None:
        """Stop sampling and close every attached sink (idempotent).

        Args:
            summary: optional final line for the progress display.
        """
        self.stop_sampling()
        if self.progress is not None:
            self.progress.finish(summary)
            self.progress = None
        if self.runlog is not None:
            self.runlog.close()
