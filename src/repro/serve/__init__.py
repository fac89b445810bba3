"""Mining as a service: the ``farmer serve`` daemon.

The ROADMAP's production north star needs FARMER to outlive a single
process invocation: repeat queries over the same datasets, many tenants,
stored results.  This package is that integration layer — a stdlib-only
HTTP daemon that composes the pieces the library already has:

* jobs run through the exact :class:`~repro.core.farmer.Farmer` path
  the CLI uses (engine / workers / steal knobs per job),
  so a job's ``.irgs`` artifact is **byte-identical** to the same mine
  run in-process;
* live job status is the run's own :mod:`repro.obs` telemetry stream,
  buffered per job in an :class:`~repro.obs.tap.EventTap`;
* repeat queries hit the :class:`~repro.serve.registry.DatasetRegistry`
  (fingerprinted uploads, cached discretized+transposed tables) and the
  shared warm-frontier cache of :mod:`repro.core.frontier`;
* per-job resource limits — node budgets, wall-clock timeouts, a
  bounded queue — degrade gracefully (``timeout`` states, ``429``)
  instead of taking the daemon down.

Layout: :mod:`~repro.serve.schemas` (wire contracts and validation),
:mod:`~repro.serve.registry` (datasets and preprocessing caches),
:mod:`~repro.serve.jobs` (the bounded worker pool),
:mod:`~repro.serve.app` (routes and the HTTP server).  ``docs/serve.md``
is the API reference; its route catalogue is gated against
:data:`~repro.serve.app.ROUTES` by ``tests/test_serve.py``.

Start one from the shell (``farmer serve --port 8765``) or in-process::

    from repro.serve import create_server

    server = create_server(port=0, registry_dir="/tmp/farmer")
    print(server.server_address)   # ('127.0.0.1', <ephemeral port>)
    server.serve_forever()
"""

from __future__ import annotations

from .app import ROUTES, Route, ServeApp, create_server
from .jobs import DEFAULT_JOB_TIMEOUT, CancellableBudget, Job, JobQueue
from .registry import DatasetRegistry
from .schemas import (
    ACTIVE_STATES,
    ApiError,
    JOB_STATES,
    JobSpec,
    TERMINAL_STATES,
    parse_job_spec,
)

__all__ = [
    "ACTIVE_STATES",
    "ApiError",
    "CancellableBudget",
    "DEFAULT_JOB_TIMEOUT",
    "DatasetRegistry",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobSpec",
    "ROUTES",
    "Route",
    "ServeApp",
    "TERMINAL_STATES",
    "create_server",
    "parse_job_spec",
]
