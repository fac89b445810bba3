"""Deterministic test instrumentation shipped with the library.

:mod:`repro.testing.chaos` is the fault-injection seam the
worker-fault test suite drives: environment-controlled hooks in the
sharded miner's worker entrypoint that kill, stall or exception-crash a
specific shard attempt.  Everything here is a no-op unless the
``FARMER_CHAOS`` environment variable is set, so production runs pay one
``os.environ`` read per shard and nothing else.

:mod:`repro.testing.prep` hashes the output of equal-depth prep (cuts,
item names, rows and transposed item masks) so tests and the perf gate
can pin it byte for byte.  It is imported on its own, not re-exported
here.
"""

from __future__ import annotations

from .chaos import (
    CHAOS_ENV,
    ChaosSpec,
    InjectedFault,
    active_spec,
    maybe_fault_worker,
)

__all__ = [
    "CHAOS_ENV",
    "ChaosSpec",
    "InjectedFault",
    "active_spec",
    "maybe_fault_worker",
]
