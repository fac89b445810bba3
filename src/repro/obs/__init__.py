"""Observability for the FARMER mining stack.

Without this package the miner's only introspection is the teaching
tracer (:mod:`repro.core.trace`,
which buffers every node) and the final :class:`~repro.core.enumeration.NodeCounters`.
This package is the production telemetry layer:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: named counters,
  gauges and histogram timers on monotonic clocks, with picklable
  :class:`MetricsSnapshot` values that merge associatively across
  workers exactly like
  :func:`~repro.core.enumeration.merge_counters`;
* :mod:`repro.obs.runlog` — :class:`RunLog`: a structured JSONL event
  sink with a schema-versioned, per-line checksummed envelope (reusing
  :func:`repro.core.serialize.canonical_json`), and :func:`read_runlog`
  to load and verify one;
* :mod:`repro.obs.tap` — :class:`EventTap`: a bounded in-memory
  run-log-compatible sink, queryable while the run is live — the
  job-status feed of the ``farmer serve`` daemon
  (:mod:`repro.serve`);
* :mod:`repro.obs.progress` — :class:`ProgressReporter`: a live
  nodes/sec + pruning-ratio + ETA line for the CLI that degrades to
  periodic plain lines when the stream is not a TTY;
* :mod:`repro.obs.telemetry` — :class:`Telemetry`: the facade the miner
  layers hook; it owns the registry, the optional sinks and a background
  sampler thread so the enumeration hot path is never instrumented
  per-node.

Telemetry is **off by default** and observational only: a run with
telemetry enabled produces byte-identical ``.irgs`` artifacts (pinned
by ``tests/test_obs.py``) at a measured overhead of at most 2% on the
Fig-10 LC sweep (``benchmarks/bench_obs_overhead.py``).  ``docs/observability.md`` is
the catalogue of every metric and event emitted.
"""

from __future__ import annotations

from .metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    TimerStats,
    merge_snapshots,
)
from .progress import ProgressReporter
from .runlog import RUNLOG_FORMAT, RunLog, read_runlog
from .tap import EventTap
from .telemetry import Telemetry

__all__ = [
    "EventTap",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TimerStats",
    "merge_snapshots",
    "ProgressReporter",
    "RunLog",
    "read_runlog",
    "RUNLOG_FORMAT",
    "Telemetry",
]
