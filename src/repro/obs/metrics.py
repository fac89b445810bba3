"""Metrics primitives: counters, gauges and histogram timers.

A :class:`MetricsRegistry` is a named bag of three instrument kinds:

* **counters** — monotonically increasing ints (events, nodes, retries);
* **gauges** — last-written floats (queue depth, cache sizes).  Snapshot
  merge takes the *maximum*, so a merged gauge reads as the peak value
  observed across workers — the only order-free semantics available once
  "last write" stops being well defined;
* **timers** — duration histograms on the monotonic clock
  (:func:`time.perf_counter`, per FRM002 discipline: wall-clock reads
  are banned from mining code), recording count / total / min / max plus
  power-of-two bucket counts so a merged histogram keeps its shape.

Registries live on one process; what crosses process or run boundaries
is a :class:`MetricsSnapshot` — plain dicts and tuples, picklable and
JSON-able.  :func:`merge_snapshots` folds snapshots together and is
**associative with the empty snapshot as identity**, mirroring
:func:`repro.core.enumeration.merge_counters` (property-tested in
``tests/test_obs.py``), so per-worker telemetry can be reduced in any
grouping without changing the run-level view.

All registry mutations take an internal lock: instruments are updated
from the coordinator, HTTP handler threads and the telemetry sampler
thread.  None of this is on the enumeration hot path — the
miner integration samples shared state instead of instrumenting
per-node work (see :mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from ..errors import UsageError

__all__ = [
    "TimerStats",
    "MetricsSnapshot",
    "MetricsRegistry",
    "merge_snapshots",
    "TIMER_BUCKET_BOUNDS",
]

#: Histogram bucket upper bounds in seconds (powers of two from 1 ms to
#: ~65 s, plus a catch-all).  Fixed bounds keep merged histograms exact.
TIMER_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    0.001 * 2**exponent for exponent in range(17)
) + (float("inf"),)


class TimerStats(NamedTuple):
    """The picklable summary of one duration histogram.

    Attributes:
        count: observations recorded.
        total: summed seconds.
        minimum: smallest observation (``inf`` when empty).
        maximum: largest observation (``0.0`` when empty).
        buckets: per-bucket observation counts, parallel to
            :data:`TIMER_BUCKET_BOUNDS`.
    """

    count: int
    total: float
    minimum: float
    maximum: float
    buckets: tuple[int, ...]

    @classmethod
    def empty(cls) -> "TimerStats":
        """The merge identity: zero observations."""
        return cls(0, 0.0, float("inf"), 0.0, (0,) * len(TIMER_BUCKET_BOUNDS))

    def observe(self, seconds: float) -> "TimerStats":
        """This histogram with one more observation folded in.

        Args:
            seconds: the observed duration (negative values are clamped
                to zero — monotonic clocks cannot go backwards, but a
                caller arithmetic slip must not corrupt the histogram).

        Returns:
            A new :class:`TimerStats`; instances are immutable.
        """
        seconds = max(0.0, seconds)
        index = 0
        while seconds > TIMER_BUCKET_BOUNDS[index]:
            index += 1
        buckets = list(self.buckets)
        buckets[index] += 1
        return TimerStats(
            self.count + 1,
            self.total + seconds,
            min(self.minimum, seconds),
            max(self.maximum, seconds),
            tuple(buckets),
        )

    def merge(self, other: "TimerStats") -> "TimerStats":
        """Fold two histograms together (associative, commutative).

        Args:
            other: the histogram to fold in; must use the same bucket
                bounds (all instruments in this module do).

        Returns:
            The combined :class:`TimerStats`.
        """
        return TimerStats(
            self.count + other.count,
            self.total + other.total,
            min(self.minimum, other.minimum),
            max(self.maximum, other.maximum),
            tuple(a + b for a, b in zip(self.buckets, other.buckets)),
        )

    @property
    def mean(self) -> float:
        """Average observation in seconds (``0.0`` when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_payload(self) -> dict:
        """This histogram as a JSON-able dict (bucket list included)."""
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": self.minimum if self.count else None,
            "max": self.maximum,
            "buckets": list(self.buckets),
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, picklable view of a registry at one instant.

    Plain dicts of plain values: crosses process boundaries with the
    default pickle protocol (FRM003 discipline) and serializes to JSON
    via :meth:`to_payload` for the run log's final ``metrics`` event.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerStats] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity: no instruments."""
        return cls({}, {}, {})

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (see :func:`merge_snapshots`).

        Args:
            other: the snapshot to fold in.

        Returns:
            A new snapshot: counters summed, gauges combined by maximum,
            timers merged bucket-wise.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        timers = dict(self.timers)
        for name, stats in other.timers.items():
            timers[name] = (
                timers[name].merge(stats) if name in timers else stats
            )
        return MetricsSnapshot(counters, gauges, timers)

    def to_payload(self) -> dict:
        """This snapshot as a JSON-able dict with sorted instrument names."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name] for name in sorted(self.gauges)
            },
            "timers": {
                name: self.timers[name].to_payload()
                for name in sorted(self.timers)
            },
        }

    def names(self) -> Iterator[str]:
        """Every instrument name in this snapshot, sorted."""
        return iter(
            sorted({*self.counters, *self.gauges, *self.timers})
        )


def merge_snapshots(parts: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Reduce per-worker / per-phase snapshots into one run-level view.

    Args:
        parts: snapshots in any order and grouping.

    Returns:
        The combined snapshot.  The operation is associative with
        :meth:`MetricsSnapshot.empty` as identity — the same contract as
        :func:`repro.core.enumeration.merge_counters`, pinned by the
        property tests in ``tests/test_obs.py``.
    """
    merged = MetricsSnapshot.empty()
    for part in parts:
        merged = merged.merge(part)
    return merged


class MetricsRegistry:
    """A thread-safe bag of named counters, gauges and timers.

    Instrument names are dotted strings (``search.nodes``,
    ``phase.search.seconds``); the authoritative catalogue lives in
    ``docs/observability.md``.  Creation is implicit: the first
    :meth:`inc` / :meth:`set_gauge` / :meth:`observe` of a name creates
    the instrument.  A name is bound to the first kind that used it;
    re-using it as another kind raises
    :class:`~repro.errors.UsageError` (silently shadowing a counter
    with a gauge would corrupt the snapshot).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerStats] = {}

    def _check_kind(self, name: str, kind: dict) -> None:
        for table in (self._counters, self._gauges, self._timers):
            if table is not kind and name in table:
                raise UsageError(
                    f"metric {name!r} is already registered as a "
                    "different instrument kind"
                )

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at zero).

        Args:
            name: dotted counter name.
            value: amount to add (may be zero; never negative — counters
                are monotonic).
        """
        if value < 0:
            raise UsageError(f"counter {name!r} cannot decrease ({value})")
        with self._lock:
            self._check_kind(name, self._counters)
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins).

        Args:
            name: dotted gauge name.
            value: the new reading.
        """
        with self._lock:
            self._check_kind(name, self._gauges)
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the timer ``name``.

        Args:
            name: dotted timer name.
            seconds: the observed duration (monotonic-clock delta).
        """
        with self._lock:
            self._check_kind(name, self._timers)
            current = self._timers.get(name)
            if current is None:
                current = TimerStats.empty()
            self._timers[name] = current.observe(seconds)

    def time(self, name: str) -> "_TimerContext":
        """A context manager timing its body into the timer ``name``.

        Args:
            name: dotted timer name.

        Returns:
            A reusable context manager reading :func:`time.perf_counter`
            on entry and exit (monotonic; FRM002 discipline).
        """
        return _TimerContext(self, name)

    def snapshot(self) -> MetricsSnapshot:
        """A consistent, picklable copy of every instrument."""
        with self._lock:
            return MetricsSnapshot(
                dict(self._counters), dict(self._gauges), dict(self._timers)
            )


class _TimerContext:
    """Context manager produced by :meth:`MetricsRegistry.time`."""

    __slots__ = ("_registry", "_name", "_started", "elapsed")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0
        #: Seconds measured by the most recent ``with`` block.
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
        self._registry.observe(self._name, self.elapsed)
