"""Request/response schemas of the ``farmer serve`` HTTP API.

Everything the wire protocol understands is defined here, away from both
the HTTP plumbing (:mod:`repro.serve.app`) and the execution machinery
(:mod:`repro.serve.jobs`):

* :class:`ApiError` — the one exception the HTTP layer translates into
  an error response; it carries the status code and a stable,
  machine-readable error code (the catalogue in ``docs/serve.md``).
* :class:`JobSpec` — the validated form of a ``POST /v1/jobs`` body:
  every mining knob a job may set, already range-checked and
  consistency-checked (a bad spec never reaches the worker pool).
* :func:`parse_job_spec` — strict JSON-payload validation: unknown
  keys, wrong types and out-of-range values are all rejected with
  ``400 bad_request`` naming the offending field, mirroring the CLI's
  up-front knob validation (``_validate_mine_knobs``).
* :data:`JOB_STATES` and the terminal/active partitions — the job
  lifecycle vocabulary shared by the queue, the API payloads and the
  state diagram in ``docs/serve.md``.

Validation is deliberately strict rather than lenient: a daemon serving
many tenants cannot guess what a misspelled knob meant, and the
byte-identity guarantee (a job's ``.irgs`` equals the same mine run
in-process) only holds when every knob is pinned explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.farmer import ENGINES
from ..errors import ReproError

__all__ = [
    "ACTIVE_STATES",
    "ApiError",
    "JOB_STATES",
    "JobSpec",
    "TERMINAL_STATES",
    "parse_job_spec",
]

#: Every state a job can report, in lifecycle order (``docs/serve.md``
#: has the transition diagram).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "timeout")

#: States a job can still leave.
ACTIVE_STATES = ("queued", "running")

#: States a job never leaves; its event tap is closed and its result
#: (when ``done``) is immutable.
TERMINAL_STATES = ("done", "failed", "cancelled", "timeout")


class ApiError(ReproError):
    """An HTTP-mappable request failure.

    Args:
        status: the HTTP status code to respond with.
        code: a stable machine-readable error code (``bad_request``,
            ``not_found``, ``method_not_allowed``, ``conflict``,
            ``queue_full``, ``payload_too_large``, ``internal`` — the
            catalogue in ``docs/serve.md``).
        message: the human-readable detail.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def to_payload(self) -> dict:
        """The response body: ``{"error": {"code": ..., "message": ...}}``."""
        return {"error": {"code": self.code, "message": str(self)}}


@dataclass(frozen=True)
class JobSpec:
    """One validated mining job: what ``POST /v1/jobs`` accepted.

    Field defaults mirror ``farmer mine`` so a job body holding only
    ``{"dataset": ...}`` mines exactly like the bare CLI invocation.

    Attributes:
        dataset: registry dataset id (a paper dataset name or an
            ``up-…`` upload id).
        consequent: class label on the rule RHS (``None`` = the
            dataset's class 1).
        minsup: minimum rule support in rows.
        minconf: minimum confidence in ``[0, 1]``.
        minchi: minimum chi-square value.
        scale: gene-count scale for paper datasets (ignored for
            uploads, whose gene count is fixed by the uploaded table).
        buckets: equal-depth discretization buckets.
        seed: generation seed override for paper datasets.
        engine: ``None`` (the production engine) or ``"reference"``
            (the differential oracle); ``"kernel"`` and ``"numpy"`` are
            accepted as spellings of the production engine.
        workers: shard the mine across this many worker processes
            (``None`` = serial; output is byte-identical either way);
            ignored when the job answers through the warm cache.
        steal: schedule shards with the work-stealing scheduler.
        steal_quantum: node expansions per stealing quantum.
        lower_bounds: run MineLB on the mined groups.
        max_nodes: node budget; the run truncates gracefully when hit.
        timeout_seconds: wall-clock limit override (``None`` = the
            server's ``--job-timeout``).
        warm: answer through the server's shared warm-frontier cache
            (``None`` = auto: on unless ``max_nodes`` demands a mode the
            cache cannot serve); warm answers never shard.
    """

    dataset: str
    consequent: "str | None" = None
    minsup: int = 5
    minconf: float = 0.0
    minchi: float = 0.0
    scale: float = 0.08
    buckets: int = 10
    seed: "int | None" = None
    engine: "str | None" = None
    workers: "int | None" = None
    steal: bool = False
    steal_quantum: "int | None" = None
    lower_bounds: bool = False
    max_nodes: "int | None" = None
    timeout_seconds: "float | None" = None
    warm: "bool | None" = None

    def use_warm_cache(self) -> bool:
        """Whether this job answers through the warm-frontier cache.

        Returns:
            The resolved ``warm`` knob: explicit ``True``/``False`` win;
            ``None`` (auto) enables the cache exactly when no node
            budget (``max_nodes``) is set.
        """
        if self.warm is not None:
            return self.warm
        return self.max_nodes is None

    def to_payload(self) -> dict:
        """The spec as it echoes back in job payloads (resolved knobs).

        Returns:
            A JSON-able dict of every knob, with ``warm`` resolved to
            its effective boolean.
        """
        return {
            "dataset": self.dataset,
            "consequent": self.consequent,
            "minsup": self.minsup,
            "minconf": self.minconf,
            "minchi": self.minchi,
            "scale": self.scale,
            "buckets": self.buckets,
            "seed": self.seed,
            "engine": self.engine,
            "workers": self.workers,
            "steal": self.steal,
            "steal_quantum": self.steal_quantum,
            "lower_bounds": self.lower_bounds,
            "max_nodes": self.max_nodes,
            "timeout_seconds": self.timeout_seconds,
            "warm": self.use_warm_cache(),
        }


def _bad(field_name: str, detail: str) -> ApiError:
    """A ``400 bad_request`` naming the offending field."""
    return ApiError(400, "bad_request", f"field {field_name!r} {detail}")


def _expect_str(payload: dict, name: str) -> "str | None":
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise _bad(name, "must be a non-empty string")
    return value


def _expect_bool(payload: dict, name: str) -> "bool | None":
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, bool):
        raise _bad(name, "must be a boolean")
    return value


def _expect_pos_int(payload: dict, name: str) -> "int | None":
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(name, "must be an integer")
    if value <= 0:
        raise _bad(name, f"must be positive, got {value}")
    return value


def _expect_float(
    payload: dict, name: str, low: float, high: float
) -> "float | None":
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(name, "must be a number")
    value = float(value)
    if not low <= value <= high:
        raise _bad(name, f"must be in [{low}, {high}], got {value}")
    return value


#: Every key ``POST /v1/jobs`` accepts (anything else is a 400).
_JOB_FIELDS = (
    "dataset",
    "consequent",
    "minsup",
    "minconf",
    "minchi",
    "scale",
    "buckets",
    "seed",
    "engine",
    "workers",
    "steal",
    "steal_quantum",
    "lower_bounds",
    "max_nodes",
    "timeout_seconds",
    "warm",
)


def parse_job_spec(payload: object) -> JobSpec:
    """Validate a ``POST /v1/jobs`` body into a :class:`JobSpec`.

    Args:
        payload: the decoded JSON request body.

    Returns:
        The validated spec (dataset existence is checked later, against
        the live registry).

    Raises:
        ApiError: ``400 bad_request`` naming the first offending field —
        unknown key, wrong type, out-of-range value, or an inconsistent
        knob combination (``warm`` with ``max_nodes``, ``steal``
        without ``workers``, ``max_nodes`` with ``workers``).
    """
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request", "job body must be a JSON object")
    for key in payload:
        if key not in _JOB_FIELDS:
            raise ApiError(400, "bad_request", f"unknown job field {key!r}")
    dataset = _expect_str(payload, "dataset")
    if dataset is None:
        raise _bad("dataset", "is required")
    engine = _expect_str(payload, "engine")
    if engine is not None and engine not in ENGINES:
        raise _bad("engine", f"must be one of {sorted(ENGINES)}, got {engine!r}")
    seed = payload.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int)
    ):
        raise _bad("seed", "must be an integer")
    scale = _expect_float(payload, "scale", 0.001, 1.0)
    timeout = payload.get("timeout_seconds")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise _bad("timeout_seconds", "must be a number")
        if float(timeout) <= 0:
            raise _bad("timeout_seconds", f"must be positive, got {timeout}")
        timeout = float(timeout)
    buckets = _expect_pos_int(payload, "buckets")
    if buckets is not None and buckets < 2:
        raise _bad("buckets", f"must be at least 2, got {buckets}")
    spec = JobSpec(
        dataset=dataset,
        consequent=_expect_str(payload, "consequent"),
        minsup=_expect_pos_int(payload, "minsup") or JobSpec.minsup,
        minconf=_expect_float(payload, "minconf", 0.0, 1.0) or 0.0,
        minchi=_expect_float(payload, "minchi", 0.0, 1e12) or 0.0,
        scale=scale if scale is not None else JobSpec.scale,
        buckets=buckets if buckets is not None else JobSpec.buckets,
        seed=seed,
        engine=engine,
        workers=_expect_pos_int(payload, "workers"),
        steal=_expect_bool(payload, "steal") or False,
        steal_quantum=_expect_pos_int(payload, "steal_quantum"),
        lower_bounds=_expect_bool(payload, "lower_bounds") or False,
        max_nodes=_expect_pos_int(payload, "max_nodes"),
        timeout_seconds=timeout,
        warm=_expect_bool(payload, "warm"),
    )
    if spec.warm and spec.max_nodes is not None:
        raise _bad("warm", "cannot be combined with 'max_nodes' "
                   "(node budgets need the serial cold path)")
    if spec.steal and spec.workers is None:
        raise _bad("steal", "requires 'workers' (stealing schedules shards)")
    if spec.max_nodes is not None and spec.workers is not None:
        raise _bad("max_nodes", "cannot be combined with 'workers' "
                   "(deterministic node accounting needs the serial miner)")
    return spec
