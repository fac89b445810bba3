"""Structured JSONL run logs with a checksummed, versioned envelope.

A :class:`RunLog` turns one mining run into an append-only JSONL file:
one event per line, each line a self-verifying envelope

.. code-block:: json

    {"event": {"kind": "run_start", "t": 0.0, ...},
     "format": "repro-runlog/1", "seq": 0, "sha256": "..."}

* ``format`` is the schema version (:data:`RUNLOG_FORMAT`); readers
  refuse files written by a newer schema instead of misreading them —
  the same policy as the checkpoint envelope in
  :mod:`repro.core.serialize`, whose :func:`~repro.core.serialize.canonical_json`
  renders both the checksummed payload and the envelope;
* ``seq`` numbers events from zero with no gaps, so truncation in the
  *middle* of a log is detected, not just a torn final line;
* ``sha256`` covers the canonical rendering of the ``event`` object, so
  a bit-flipped line fails loudly in :func:`read_runlog`.

Every event carries ``kind`` (the event type — catalogued with all its
fields in ``docs/observability.md``) and ``t``, seconds since the log
was opened on the monotonic clock.  Only ``run_start`` records one
wall-clock timestamp (``unix_time``) to anchor the relative times for
humans; everything else is monotonic-only, per FRM002 discipline.

Writes take an internal lock (the checkpoint writer thread and the
sampler thread emit events concurrently with the coordinator) and are
flushed per line, so a crashed run leaves a log that is readable up to
its last complete event; :func:`read_runlog` tolerates exactly one torn
trailing line and rejects any other corruption.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

from ..core.serialize import canonical_json
from ..errors import DataError, UsageError

__all__ = ["RUNLOG_FORMAT", "RunLog", "read_runlog"]

#: Schema version tag of the run-log envelope; bump on layout changes.
RUNLOG_FORMAT = "repro-runlog/1"

_RUNLOG_PREFIX = "repro-runlog/"

_FORMAT_TEXT = canonical_json(RUNLOG_FORMAT)


def _event_digest(event_text: str) -> str:
    """The sha256 hex digest the envelope carries for one event."""
    return hashlib.sha256(event_text.encode("utf-8")).hexdigest()


class RunLog:
    """An append-only, checksummed JSONL event sink for one mining run.

    Args:
        path: file to write; an existing file is truncated (a run log
            describes exactly one run).

    The log opens lazily on the first :meth:`emit` and is finished with
    :meth:`close` (idempotent; also invoked by ``with``).  ``events``
    counts emitted events.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.events = 0
        self._lock = threading.Lock()
        self._handle = None
        self._opened_at = time.perf_counter()

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event to the log.

        Args:
            kind: the event type (``run_start``, ``phase_end``, ...).
            **fields: JSON-able event payload fields.  ``kind`` and
                ``t`` are reserved for the envelope and must not be
                passed.
        """
        if "kind" in fields or "t" in fields:
            raise UsageError("event fields 'kind' and 't' are reserved")
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "w", encoding="utf-8")
            event = {
                "kind": kind,
                "t": round(time.perf_counter() - self._opened_at, 6),
                **fields,
            }
            # The envelope is canonical_json of {"event", "format", "seq",
            # "sha256"}: keys in that (sorted) order, with the event's own
            # canonical text inside, so the event is encoded once.
            event_text = canonical_json(event)
            self._handle.write(
                f'{{"event":{event_text},"format":{_FORMAT_TEXT},'
                f'"seq":{self.events},"sha256":"{_event_digest(event_text)}"}}\n'
            )
            self._handle.flush()
            self.events += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_runlog(path: str | Path) -> list[dict]:
    """Load and verify a run log written by :class:`RunLog`.

    Args:
        path: the JSONL file to read.

    Returns:
        The event objects (each with ``kind`` and ``t``), in emission
        order.  A torn *final* line — the signature of a crashed writer
        — is dropped silently; any other malformed line, checksum
        mismatch or sequence gap raises.

    Raises:
        DataError: unreadable file, corrupt line, checksum or sequence
            failure.
        UsageError: the log was written by a different schema version.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read run log ({exc})") from exc
    events: list[dict] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_number, line in enumerate(lines, start=1):
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_number == len(lines):
                break  # torn trailing line: the writer died mid-event
            raise DataError(
                f"{path}:{line_number}: bad run-log line ({exc})"
            ) from exc
        if not isinstance(envelope, dict):
            raise DataError(
                f"{path}:{line_number}: run-log line is not an object"
            )
        fmt = envelope.get("format")
        if fmt != RUNLOG_FORMAT:
            if isinstance(fmt, str) and fmt.startswith(_RUNLOG_PREFIX):
                raise UsageError(
                    f"{path}: run-log format {fmt!r} is not supported by "
                    f"this build (expects {RUNLOG_FORMAT!r})"
                )
            raise DataError(
                f"{path}:{line_number}: not a run-log line "
                f"(format {fmt!r}, expected {RUNLOG_FORMAT!r})"
            )
        event = envelope.get("event")
        if not isinstance(event, dict) or "kind" not in event:
            raise DataError(
                f"{path}:{line_number}: run-log event is malformed"
            )
        if envelope.get("seq") != len(events):
            raise DataError(
                f"{path}:{line_number}: run-log sequence gap "
                f"(seq {envelope.get('seq')!r}, expected {len(events)})"
            )
        if _event_digest(canonical_json(event)) != envelope.get("sha256"):
            raise DataError(
                f"{path}:{line_number}: run-log checksum mismatch "
                "(corrupt or edited line)"
            )
        events.append(event)
    return events
