"""Deterministic fault injection for the fault-tolerant sharded miner.

The chaos harness answers one question for the test suite: *does a run
that loses a worker at an exactly chosen point still produce
byte-identical output?*  Faults therefore trigger on logical coordinates
(shard index, attempt number), never on wall-clock time or randomness,
so a given spec produces the same fault on every run regardless of OS
scheduling.

A spec lives in the ``FARMER_CHAOS`` environment variable (each run's
pool workers copy it as they start) and reads ``mode`` plus
``key=value`` fields separated by colons:

==============  =====================================================
``kill``        worker SIGKILLs itself at the top of the shard attempt
                (the pool breaks — exactly what an OOM kill looks like)
``stall``       worker blocks forever (heartbeat timeout must reap it)
``raise``       worker raises :class:`InjectedFault` (a task failure,
                retried with backoff rather than breaking the pool)
``donor-kill``  worker SIGKILLs itself at the moment it is about to
                donate an enumeration frontier (quantum expired, result
                not yet returned) — the donated half dies with the
                donor, so the scheduler must re-run the whole part
``donor-raise`` like ``donor-kill`` but raises :class:`InjectedFault`
                (the donation fails as a task error, not a pool break)
``steal-kill``  worker SIGKILLs itself at the top of a *stolen* part (a
                continuation of a donated frontier) — the race between
                a donation landing and the thief dying
``steal-raise`` like ``steal-kill`` but raises :class:`InjectedFault`
==============  =====================================================

Fields: ``shard=J`` scopes worker modes to task index ``J`` (omitted =
every shard); ``times=N`` fires only on the first ``N`` attempts of a
shard (``attempt < N``), so ``kill:shard=2:times=1`` kills shard 2 once
and lets the requeued attempt succeed.

Worker modes only fire inside pool worker processes — the coordinator's
inline fallback path never calls the worker entrypoint, which is what
makes "degrade to inline execution" a guaranteed exit from any worker
fault, including ``kill`` with no ``shard=`` scope (every worker attempt
dies, every pool breaks, and the run still completes inline).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass

from ..errors import ReproError, UsageError

__all__ = [
    "CHAOS_ENV",
    "ChaosSpec",
    "InjectedFault",
    "active_spec",
    "maybe_fault_donor",
    "maybe_fault_thief",
    "maybe_fault_worker",
]

#: Environment variable holding the fault spec; unset means no faults.
CHAOS_ENV = "FARMER_CHAOS"

_WORKER_MODES = frozenset({"kill", "stall", "raise"})
_DONOR_MODES = frozenset({"donor-kill", "donor-raise"})
_THIEF_MODES = frozenset({"steal-kill", "steal-raise"})
_ALL_MODES = _WORKER_MODES | _DONOR_MODES | _THIEF_MODES


class InjectedFault(ReproError, RuntimeError):
    """The failure raised by the ``*raise`` chaos modes.

    Deliberately *not* one of the semantic ``repro.errors`` types the
    miner raises itself, so tests can assert that exactly the injected
    fault (and nothing else) surfaced.
    """


@dataclass(frozen=True)
class ChaosSpec:
    """One parsed fault directive (see the module docstring for fields)."""

    mode: str
    shard: int | None = None
    times: int | None = None

    def matches_worker(self, shard: int, attempt: int) -> bool:
        """Whether a worker-mode fault fires for this shard attempt."""
        if self.mode not in _WORKER_MODES:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.times is not None and attempt >= self.times:
            return False
        return True

    def _matches_shard(self, shard: int, attempt: int) -> bool:
        if self.shard is not None and shard != self.shard:
            return False
        if self.times is not None and attempt >= self.times:
            return False
        return True

    def matches_donor(self, shard: int, attempt: int) -> bool:
        """Whether a donor-mode fault fires at this donation point."""
        return self.mode in _DONOR_MODES and self._matches_shard(shard, attempt)

    def matches_thief(self, shard: int, attempt: int) -> bool:
        """Whether a thief-mode fault fires for this stolen-part attempt."""
        return self.mode in _THIEF_MODES and self._matches_shard(shard, attempt)


def _parse(text: str) -> ChaosSpec:
    head, _, rest = text.partition(":")
    mode = head.strip()
    if mode not in _ALL_MODES:
        raise UsageError(
            f"{CHAOS_ENV}: unknown chaos mode {mode!r} in {text!r}"
        )
    fields: dict[str, int] = {}
    if rest:
        for part in rest.split(":"):
            key, separator, value = part.partition("=")
            key = key.strip()
            if not separator or key not in {"shard", "times"}:
                raise UsageError(
                    f"{CHAOS_ENV}: bad chaos field {part!r} in {text!r}"
                )
            try:
                fields[key] = int(value)
            except ValueError as exc:
                raise UsageError(
                    f"{CHAOS_ENV}: non-integer chaos field {part!r}"
                ) from exc
    if "times" in fields and "shard" not in fields:
        raise UsageError(
            f"{CHAOS_ENV}: times= needs shard= (attempt counts are "
            "tracked per shard)"
        )
    return ChaosSpec(
        mode=mode,
        shard=fields.get("shard"),
        times=fields.get("times"),
    )


def active_spec() -> ChaosSpec | None:
    """The spec currently armed via ``FARMER_CHAOS``, or ``None``.

    Parsed on every call — the read is one dict lookup and fault hooks
    run once per shard attempt, not per node.
    """
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    return _parse(text)


def _die() -> None:
    # SIGKILL leaves no chance for cleanup handlers, finally blocks or
    # buffered writes — the honest model of an OOM kill or power loss.
    # The pid read is the kill target, not data; it cannot reach output.
    os.kill(os.getpid(), signal.SIGKILL)  # farmer-lint: disable=FRM002


def maybe_fault_worker(shard: int, attempt: int) -> None:
    """Worker-entrypoint hook: fault if the armed spec matches.

    Called once at the top of every shard attempt, inside the pool
    worker process.  ``kill`` never returns; ``stall`` never returns
    (the coordinator's heartbeat timeout reaps the pool); ``raise``
    raises :class:`InjectedFault`.
    """
    spec = active_spec()
    if spec is None or not spec.matches_worker(shard, attempt):
        return
    if spec.mode == "kill":
        _die()
    elif spec.mode == "stall":
        threading.Event().wait()
    else:
        raise InjectedFault(
            f"injected worker fault (shard={shard}, attempt={attempt})"
        )


def maybe_fault_donor(shard: int, attempt: int) -> None:
    """Donation hook: fault as a frontier is about to be handed back.

    Called inside the worker process by the stealing task runner, after
    the quantum expired and the remaining frontier was captured but
    *before* any of it reaches the coordinator — the donated half dies
    with the donor, which is exactly the loss the part-requeue path must
    recover from.  ``donor-kill`` never returns; ``donor-raise`` raises
    :class:`InjectedFault`.
    """
    spec = active_spec()
    if spec is None or not spec.matches_donor(shard, attempt):
        return
    if spec.mode == "donor-kill":
        _die()
    raise InjectedFault(
        f"injected donor fault (shard={shard}, attempt={attempt})"
    )


def maybe_fault_thief(shard: int, attempt: int) -> None:
    """Stolen-part hook: fault at the top of a continuation attempt.

    Called inside the worker process, but only for parts that continue a
    donated frontier (never the first part of a shard) — the race
    between a donation landing on the queue and the thief that picked it
    up dying.  ``steal-kill`` never returns; ``steal-raise`` raises
    :class:`InjectedFault`.
    """
    spec = active_spec()
    if spec is None or not spec.matches_thief(shard, attempt):
        return
    if spec.mode == "steal-kill":
        _die()
    raise InjectedFault(
        f"injected thief fault (shard={shard}, attempt={attempt})"
    )

