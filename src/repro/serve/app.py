"""The HTTP layer of ``farmer serve``: routes, dispatch, the server.

The daemon is deliberately stdlib-only — ``http.server``'s
:class:`~http.server.ThreadingHTTPServer` fronting the thread pool of
:mod:`repro.serve.jobs`.  Handler threads do no mining; they validate,
enqueue, and read job/registry state, so the server stays responsive
while every pool worker is deep in an enumeration.

The API surface is declared once, in :data:`ROUTES` — a literal table
of ``(method, pattern, name, summary)`` rows.  Dispatch walks it, and
the docs-catalogue gate in ``tests/test_serve.py`` walks it too: every
row must appear verbatim in ``docs/serve.md``, so the reference cannot
drift from the server.  Adding an endpoint means adding a row, a
handler named ``_route_<name>``, and a docs section — forget any one
and a test names it.

Wire conventions (``docs/serve.md`` is the full reference):

* every response body is JSON except a job result, which is the raw
  ``.irgs`` artifact bytes;
* errors are ``{"error": {"code", "message"}}`` with a stable
  machine-readable ``code``;
* request bodies are capped at :data:`MAX_BODY_BYTES` (``413``);
* unknown paths are ``404``; known paths with the wrong method are
  ``405`` with an ``Allow`` header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..core.farmer import available_engines, default_engine
from ..errors import ReproError
from .jobs import DEFAULT_JOB_TIMEOUT, JobQueue
from .registry import DatasetRegistry
from .schemas import ApiError, parse_job_spec

__all__ = [
    "MAX_BODY_BYTES",
    "Route",
    "ROUTES",
    "ServeApp",
    "create_server",
]

#: Request-body cap in bytes (uploads are the largest legitimate body).
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class Route:
    """One API route: the unit of dispatch *and* of documentation.

    Attributes:
        method: the HTTP method.
        pattern: the path template; ``{name}`` segments capture one
            path segment each.
        name: the handler suffix (``_route_<name>`` on
            :class:`ServeApp`) and the anchor used in ``docs/serve.md``.
        summary: one-line description (shown in ``GET /v1/health``'s
            route listing and the docs catalogue).
    """

    method: str
    pattern: str
    name: str
    summary: str

    def match(self, path: str) -> "dict[str, str] | None":
        """Match ``path`` against the pattern.

        Args:
            path: the request path (no query string).

        Returns:
            Captured ``{name}`` segments (possibly empty) on a match,
            ``None`` otherwise.
        """
        parts = self.pattern.strip("/").split("/")
        got = path.strip("/").split("/")
        if len(parts) != len(got):
            return None
        params: dict[str, str] = {}
        for part, value in zip(parts, got):
            if part.startswith("{") and part.endswith("}"):
                if not value:
                    return None
                params[part[1:-1]] = value
            elif part != value:
                return None
        return params


#: The complete API surface; ``docs/serve.md`` documents every row
#: (gated by ``tests/test_serve.py::TestDocsCatalogue``).
ROUTES = (
    Route("GET", "/v1/health", "health",
          "server liveness, engines, job counts"),
    Route("GET", "/v1/datasets", "list_datasets",
          "list registry datasets (paper + uploads)"),
    Route("POST", "/v1/datasets", "upload_dataset",
          "upload an expression TSV; fingerprinted and idempotent"),
    Route("GET", "/v1/datasets/{id}", "dataset_detail",
          "one dataset's shape, classes and default consequent"),
    Route("GET", "/v1/cache", "cache_inventory",
          "warm-frontier cache entries shared across jobs"),
    Route("POST", "/v1/jobs", "submit_job",
          "submit a mining job; 429 when the queue is full"),
    Route("GET", "/v1/jobs", "list_jobs",
          "all jobs in submission order"),
    Route("GET", "/v1/jobs/{id}", "job_status",
          "one job's state, spec, progress and summary"),
    Route("GET", "/v1/jobs/{id}/events", "job_events",
          "the job's telemetry events; incremental via ?since=SEQ"),
    Route("GET", "/v1/jobs/{id}/result", "job_result",
          "the finished job's .irgs artifact bytes"),
    Route("DELETE", "/v1/jobs/{id}", "cancel_job",
          "cancel a queued or running job"),
)


class ServeApp:
    """The daemon's application object: registry + queue + dispatch.

    Args:
        registry_dir: state directory (uploads, frontier cache, job
            artifacts live beneath it).
        workers: concurrent mining threads.
        queue_depth: queued-job cap before ``429 queue_full``.
        job_timeout: default per-job wall-clock budget in seconds.
    """

    def __init__(
        self,
        registry_dir: "str | Path",
        workers: int = 2,
        queue_depth: int = 16,
        job_timeout: float = DEFAULT_JOB_TIMEOUT,
    ) -> None:
        root = Path(registry_dir)
        self.registry = DatasetRegistry(root)
        self.queue = JobQueue(
            self.registry,
            results_dir=root / "jobs",
            workers=workers,
            queue_depth=queue_depth,
            job_timeout=job_timeout,
        )

    def close(self) -> None:
        """Shut the job pool down (idempotent)."""
        self.queue.shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(
        self, method: str, target: str, body: bytes
    ) -> tuple:
        """Serve one request.

        Args:
            method: the HTTP method.
            target: the request target (path plus optional query).
            body: the raw request body.

        Returns:
            ``(status, content_type, payload_bytes, extra_headers)``;
            errors — including unexpected ones — are already rendered
            as JSON error bodies.
        """
        split = urlsplit(target)
        path = split.path
        query = {
            key: values[-1]
            for key, values in sorted(parse_qs(split.query).items())
        }
        try:
            allowed: list[str] = []
            for route in ROUTES:
                params = route.match(path)
                if params is None:
                    continue
                if route.method != method:
                    allowed.append(route.method)
                    continue
                handler = getattr(self, f"_route_{route.name}")
                status, payload = handler(params, query, body)
                if route.name == "job_result":
                    return status, "application/x-ndjson", payload, ()
                return self._json(status, payload)
            if allowed:
                raise ApiError(
                    405,
                    "method_not_allowed",
                    f"{method} not allowed for {path} "
                    f"(allowed: {', '.join(sorted(allowed))})",
                )
            raise ApiError(404, "not_found", f"no route for {path}")
        except ApiError as error:
            status, content_type, payload, _ = self._json(
                error.status, error.to_payload()
            )
            extra = ()
            if error.code == "queue_full":
                extra = (("Retry-After", "1"),)
            elif error.code == "method_not_allowed" and allowed:
                extra = (("Allow", ", ".join(sorted(allowed))),)
            return status, content_type, payload, extra
        except ReproError as error:
            return self._json(
                500,
                {"error": {"code": "internal", "message": str(error)}},
            )

    @staticmethod
    def _json(status: int, payload: object) -> tuple:
        """Render a JSON response tuple."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return status, "application/json", body, ()

    @staticmethod
    def _parse_body(body: bytes) -> object:
        """Decode a JSON request body (``400`` on malformed JSON)."""
        if not body:
            raise ApiError(400, "bad_request", "request body is required")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, "bad_request", f"invalid JSON body: {exc}")

    # ------------------------------------------------------------------
    # Handlers (one per ROUTES row)
    # ------------------------------------------------------------------

    def _route_health(self, params: dict, query: dict, body: bytes) -> tuple:
        """``GET /v1/health``."""
        return 200, {
            "status": "ok",
            "engines": list(available_engines()),
            "default_engine": default_engine(),
            "jobs": self.queue.counts(),
            "routes": [
                f"{route.method} {route.pattern}" for route in ROUTES
            ],
        }

    def _route_list_datasets(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/datasets``."""
        return 200, {"datasets": self.registry.list_datasets()}

    def _route_upload_dataset(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``POST /v1/datasets`` — body ``{"tsv": "<expression TSV>"}``."""
        payload = self._parse_body(body)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("tsv"), str
        ):
            raise ApiError(
                400, "bad_request", "body must be {\"tsv\": \"...\"}"
            )
        info = self.registry.add_dataset(payload["tsv"])
        return (201 if info["created"] else 200), info

    def _route_dataset_detail(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/datasets/{id}``."""
        return 200, self.registry.describe(params["id"])

    def _route_cache_inventory(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/cache``."""
        return 200, {"entries": self.registry.frontier_inventory()}

    def _route_submit_job(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``POST /v1/jobs`` — body is a job spec (``docs/serve.md``)."""
        spec = parse_job_spec(self._parse_body(body))
        job = self.queue.submit(spec)
        return 202, job.to_payload()

    def _route_list_jobs(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/jobs``."""
        return 200, {"jobs": self.queue.list_jobs()}

    def _route_job_status(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/jobs/{id}``."""
        return 200, self.queue.get(params["id"]).to_payload()

    def _route_job_events(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/jobs/{id}/events[?since=SEQ]``."""
        job = self.queue.get(params["id"])
        since = 0
        if "since" in query:
            try:
                since = int(query["since"])
            except ValueError:
                raise ApiError(
                    400, "bad_request", "query parameter 'since' must be "
                    f"an integer, got {query['since']!r}"
                )
        events = job.tap.tail(since=since)
        return 200, {
            "job": job.id,
            "events": events,
            "next": (events[-1]["seq"] + 1) if events else since,
            "dropped": job.tap.dropped,
            "closed": job.tap.closed,
        }

    def _route_job_result(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``GET /v1/jobs/{id}/result`` — the raw ``.irgs`` bytes."""
        job = self.queue.get(params["id"])
        if job.state != "done" or job.result_path is None:
            raise ApiError(
                409,
                "conflict",
                f"job {job.id} has no result (state: {job.state})",
            )
        return 200, job.result_path.read_bytes()

    def _route_cancel_job(
        self, params: dict, query: dict, body: bytes
    ) -> tuple:
        """``DELETE /v1/jobs/{id}``."""
        return 202, self.queue.cancel(params["id"]).to_payload()


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin ``http.server`` shim over :meth:`ServeApp.handle`."""

    server_version = "farmer-serve/1"
    protocol_version = "HTTP/1.1"
    # Buffer each response so its headers and a small body leave in one
    # send (http.server flushes after every request); unbuffered, the
    # two sends let a client read the headers alone, and Nagle held the
    # second send of a kept-alive connection until the delayed ACK.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr chatter (the API is the log)."""

    def _dispatch(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            error = ApiError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
            )
            body = json.dumps(
                error.to_payload(), sort_keys=True
            ).encode("utf-8")
            self._respond(413, "application/json", body, ())
            return
        payload = self.rfile.read(length) if length else b""
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        status, content_type, body, extra = app.handle(
            self.command, self.path, payload
        )
        self._respond(status, content_type, body, extra)

    def _respond(
        self, status: int, content_type: str, body: bytes, extra: tuple
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        """Serve a GET."""
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        """Serve a POST."""
        self._dispatch()

    def do_DELETE(self) -> None:  # noqa: N802
        """Serve a DELETE."""
        self._dispatch()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    registry_dir: "str | Path" = ".farmer-serve",
    workers: int = 2,
    queue_depth: int = 16,
    job_timeout: float = DEFAULT_JOB_TIMEOUT,
) -> ThreadingHTTPServer:
    """Build the daemon's HTTP server (bound, not yet serving).

    Args:
        host: bind address.
        port: bind port (``0`` = pick an ephemeral port; read it back
            from ``server.server_address``).
        registry_dir: state directory for uploads, caches and results.
        workers: concurrent mining threads.
        queue_depth: queued-job cap before ``429 queue_full``.
        job_timeout: default per-job wall-clock budget in seconds.

    Returns:
        A :class:`~http.server.ThreadingHTTPServer` whose ``app``
        attribute is the :class:`ServeApp`; call ``serve_forever()`` to
        run and ``app.close()`` after ``shutdown()`` to stop the pool.
    """
    server = ThreadingHTTPServer((host, port), _RequestHandler)
    server.daemon_threads = True
    server.app = ServeApp(  # type: ignore[attr-defined]
        registry_dir,
        workers=workers,
        queue_depth=queue_depth,
        job_timeout=job_timeout,
    )
    return server
