"""In-memory run-log sink: the job-status event tap.

A :class:`~repro.obs.runlog.RunLog` persists one mining run as a
checksummed JSONL file — the right sink when the consumer is a human
reading the log after the fact.  A long-lived host embedding the miner
(the ``farmer serve`` daemon of :mod:`repro.serve`) needs the opposite:
the same event stream, buffered in memory, queryable *while the run is
still going* so a job-status endpoint can answer "what phase is this
mine in, did it hit the frontier cache, how many events so far" without
touching disk.

:class:`EventTap` is that sink.  It duck-types the two methods
:class:`~repro.obs.telemetry.Telemetry` calls on its run log —
``emit(kind, **fields)`` and ``close()`` — so it drops in anywhere a
``RunLog`` does::

    tap = EventTap()
    telemetry = Telemetry(runlog=tap)
    Farmer(..., telemetry=telemetry).mine(data, "C")
    tap.last("cache_hit")           # did the warm cache answer?
    tap.tail(since=previous_seq)    # poll new events incrementally

Events carry the same ``kind`` / ``t`` (monotonic seconds since the tap
was created) fields a run log's would, plus ``seq`` — a gap-free
per-tap sequence number that makes incremental polling
(``GET /v1/jobs/{id}/events?since=N`` in the serve API) cheap and
exact.  The buffer is bounded: beyond ``limit`` events the oldest are
dropped and counted in :attr:`dropped`, so a pathological run cannot
grow a daemon's memory without bound.

All methods take an internal lock — the miner's coordinator, the
sampler thread and HTTP handler threads read and write taps
concurrently.  Like every ``obs`` sink the tap is observational only:
it never changes mined output (the serve end-to-end suite pins
byte-identity of daemon-mined ``.irgs`` artifacts).
"""

from __future__ import annotations

import threading
import time

from ..errors import UsageError

__all__ = ["EventTap"]

#: Default event-buffer bound; a mining run emits tens of events, so the
#: default keeps even chatty runs whole while bounding daemon memory.
DEFAULT_TAP_LIMIT = 4096


class EventTap:
    """A bounded, thread-safe, in-memory event sink for one run.

    Args:
        limit: maximum events retained; older events are dropped (and
            counted in :attr:`dropped`) once the buffer is full.  Must
            be positive.

    Attributes:
        events: total events emitted (monotonic; drops do not reduce it
            — this mirrors :attr:`repro.obs.runlog.RunLog.events`).
        dropped: events discarded to honour ``limit``.
    """

    def __init__(self, limit: int = DEFAULT_TAP_LIMIT) -> None:
        if limit <= 0:
            raise UsageError(f"EventTap limit must be positive, got {limit}")
        self.limit = limit
        self.events = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._buffer: list[dict] = []
        self._opened_at = time.perf_counter()
        self._closed = False

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event (the :class:`RunLog`-compatible entry point).

        Args:
            kind: the event type (``run_start``, ``cache_hit``, ...; see
                ``docs/observability.md``).
            **fields: JSON-able event payload fields.  ``kind``, ``t``
                and ``seq`` are reserved for the envelope and must not
                be passed.

        Raises:
            UsageError: a reserved field name was passed.
        """
        if "kind" in fields or "t" in fields or "seq" in fields:
            raise UsageError(
                "event fields 'kind', 't' and 'seq' are reserved"
            )
        event = {
            "kind": kind,
            "t": round(time.perf_counter() - self._opened_at, 6),
            **fields,
        }
        with self._lock:
            event["seq"] = self.events
            self.events += 1
            self._buffer.append(event)
            if len(self._buffer) > self.limit:
                del self._buffer[0]
                self.dropped += 1

    def close(self) -> None:
        """Mark the tap closed (idempotent); buffered events stay readable."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the producing run is over)."""
        return self._closed

    def tail(self, since: int = 0, kinds: "tuple[str, ...] | None" = None) -> list[dict]:
        """Buffered events with ``seq >= since``, oldest first.

        Args:
            since: minimum ``seq`` to include (use the last seen
                ``seq + 1`` to poll incrementally).
            kinds: when given, only events whose ``kind`` is listed.

        Returns:
            Copies of the matching events — callers may mutate them
            freely without perturbing the buffer.
        """
        with self._lock:
            snapshot = [
                dict(event)
                for event in self._buffer
                if event["seq"] >= since
                and (kinds is None or event["kind"] in kinds)
            ]
        return snapshot

    def last(self, kind: str) -> "dict | None":
        """The most recent buffered event of ``kind``, or ``None``.

        Args:
            kind: the event type to look for.

        Returns:
            A copy of the newest matching event, or ``None`` when no
            buffered event has that kind.
        """
        with self._lock:
            for event in reversed(self._buffer):
                if event["kind"] == kind:
                    return dict(event)
        return None

    def __len__(self) -> int:
        return len(self._buffer)
