"""End-to-end and unit tests for the ``farmer serve`` daemon.

The load-bearing suite is :class:`TestEndToEnd`: a job submitted through
the HTTP API must return ``.irgs`` bytes **byte-identical** to the same
mine run directly through :func:`repro.core.farmer.mine_irgs`, across
hand-off cutoffs, and a second identical submission must be answered by the
dataset registry and the shared warm-frontier cache (asserted via the
job's own ``cache_hit`` / ``dataset_cache`` telemetry events) with
identical bytes.

:class:`TestDocsCatalogue` and :class:`TestDocsIndex` are the docs
gates: every route the server registers must be documented in
``docs/serve.md`` (and no phantom routes may be documented), and
``docs/index.md`` must link every file in ``docs/``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from conftest import handoff

from repro.core.farmer import mine_irgs
from repro.core.serialize import save_rule_groups
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.io import save_expression
from repro.data.registry import load
from repro.errors import UsageError
from repro.obs import EventTap
from repro.serve import (
    JOB_STATES,
    ROUTES,
    ApiError,
    JobSpec,
    Route,
    ServeApp,
    TERMINAL_STATES,
    create_server,
    parse_job_spec,
)

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: The small-but-real mine every serve test uses (same point the CLI
#: suite leans on: fast, non-trivial group count).
DATASET = "LC"
SCALE = 0.02
MINSUP = 8

#: The acceptance matrix: hand-off cutoffs (``conftest.HANDOFF_CUTOFFS``
#: ids) — all int masks, all packed, a hand-off on the first extend.
E2E_CUTOFFS = ("kernel", "numpy", "handoff-1")


def _call(app, method, target, body=None):
    """Drive :meth:`ServeApp.handle` like a request; decode JSON bodies."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    status, content_type, data, extra = app.handle(method, target, payload)
    if content_type == "application/json":
        return status, json.loads(data), dict(extra)
    return status, data, dict(extra)


def _wait_terminal(app, job_id, timeout=120.0):
    """Poll a job's status until it reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = _call(app, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if payload["state"] in TERMINAL_STATES:
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def _wait_state(app, job_id, state, timeout=30.0):
    """Poll until a job reports ``state`` (failing fast on terminal)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload, _ = _call(app, "GET", f"/v1/jobs/{job_id}")
        if payload["state"] == state:
            return payload
        assert payload["state"] not in TERMINAL_STATES, payload
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r}")


def _direct_irgs_bytes(tmp_path, dataset=DATASET, minsup=MINSUP):
    """The ``.irgs`` bytes of the same mine run without the daemon."""
    matrix = load(dataset, scale=SCALE, seed=None)
    data = EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)
    result = mine_irgs(data, data.class_labels[0], minsup=minsup)
    path = tmp_path / f"direct-{dataset}-{minsup}.irgs"
    save_rule_groups(
        path,
        result.groups,
        constraints=result.constraints,
        dataset_name=data.name,
    )
    return path.read_bytes()


@pytest.fixture()
def app(tmp_path):
    """A small in-process daemon app with a fresh state directory."""
    app = ServeApp(tmp_path / "serve", workers=1, queue_depth=4)
    yield app
    app.close()


# ----------------------------------------------------------------------
# EventTap (the obs/ side of the daemon)
# ----------------------------------------------------------------------


class TestEventTap:
    def test_seq_tail_and_last(self):
        tap = EventTap()
        tap.emit("a", x=1)
        tap.emit("b")
        tap.emit("a", x=2)
        events = tap.tail()
        assert [event["seq"] for event in events] == [0, 1, 2]
        assert all("t" in event for event in events)
        assert tap.tail(since=2)[0]["kind"] == "a"
        assert [e["x"] for e in tap.tail(kinds=("a",))] == [1, 2]
        assert tap.last("a")["x"] == 2
        assert tap.last("zzz") is None
        assert len(tap) == 3
        assert tap.events == 3
        assert tap.dropped == 0

    def test_bounded_buffer_drops_oldest(self):
        tap = EventTap(limit=2)
        for index in range(5):
            tap.emit("e", i=index)
        assert tap.events == 5
        assert tap.dropped == 3
        assert len(tap) == 2
        assert [event["i"] for event in tap.tail()] == [3, 4]

    def test_reserved_fields_rejected(self):
        tap = EventTap()
        with pytest.raises(UsageError):
            tap.emit("e", seq=1)
        with pytest.raises(UsageError):
            tap.emit("e", t=0.0)

    def test_non_positive_limit_rejected(self):
        with pytest.raises(UsageError):
            EventTap(limit=0)

    def test_close_is_idempotent_and_keeps_events(self):
        tap = EventTap()
        tap.emit("e")
        assert not tap.closed
        tap.close()
        tap.close()
        assert tap.closed
        assert len(tap) == 1

    def test_tail_returns_copies(self):
        tap = EventTap()
        tap.emit("e", x=1)
        tap.tail()[0]["x"] = 99
        assert tap.tail()[0]["x"] == 1


# ----------------------------------------------------------------------
# Job-spec validation (the wire contract)
# ----------------------------------------------------------------------


class TestJobSpecValidation:
    @pytest.mark.parametrize(
        ("payload", "named"),
        [
            ({}, "dataset"),
            ({"dataset": ""}, "dataset"),
            ({"dataset": "LC", "bogus": 1}, "bogus"),
            ({"dataset": "LC", "minsup": 0}, "minsup"),
            ({"dataset": "LC", "minsup": "5"}, "minsup"),
            ({"dataset": "LC", "minconf": 1.5}, "minconf"),
            ({"dataset": "LC", "minchi": -1}, "minchi"),
            ({"dataset": "LC", "scale": 0.0}, "scale"),
            ({"dataset": "LC", "buckets": 1}, "buckets"),
            ({"dataset": "LC", "seed": "x"}, "seed"),
            ({"dataset": "LC", "engine": "warp"}, "engine"),
            ({"dataset": "LC", "workers": 0}, "workers"),
            ({"dataset": "LC", "steal": True}, "steal"),
            ({"dataset": "LC", "steal_quantum": -4}, "steal_quantum"),
            ({"dataset": "LC", "timeout_seconds": 0}, "timeout_seconds"),
            # Retired job fields are unknown fields, never ignored.
            ({"dataset": "LC", "checkpoint": True}, "checkpoint"),
            ({"dataset": "LC", "warm": True, "max_nodes": 10}, "warm"),
            ({"dataset": "LC", "warm": "yes"}, "warm"),
            ({"dataset": "LC", "max_nodes": 10, "workers": 2}, "max_nodes"),
            (["LC"], "object"),
            (
                {"dataset": "LC", "workers": 2, "checkpoint_every": 2},
                "checkpoint_every",
            ),
        ],
    )
    def test_bad_spec_is_400_naming_the_field(self, payload, named):
        with pytest.raises(ApiError) as excinfo:
            parse_job_spec(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert named in str(excinfo.value)

    def test_defaults_mirror_farmer_mine(self):
        spec = parse_job_spec({"dataset": "LC"})
        assert spec.minsup == 5
        assert spec.minconf == 0.0
        assert spec.minchi == 0.0
        assert spec.scale == pytest.approx(0.08)
        assert spec.buckets == 10
        assert spec.engine is None
        assert spec.workers is None
        assert spec.use_warm_cache()  # auto: on with no conflicting knob

    def test_warm_auto_disables_under_node_budget(self):
        assert not parse_job_spec(
            {"dataset": "LC", "max_nodes": 5}
        ).use_warm_cache()
        assert not parse_job_spec(
            {"dataset": "LC", "warm": False}
        ).use_warm_cache()

    def test_payload_echo_resolves_warm(self):
        payload = parse_job_spec({"dataset": "LC"}).to_payload()
        assert payload["warm"] is True
        assert sorted(payload) == sorted(
            JobSpec("LC").to_payload()
        )


# ----------------------------------------------------------------------
# Routing and error envelopes
# ----------------------------------------------------------------------


class TestRoutes:
    def test_match_captures_segments(self):
        route = Route("GET", "/v1/jobs/{id}/events", "job_events", "x")
        assert route.match("/v1/jobs/job-000001/events") == {
            "id": "job-000001"
        }
        assert route.match("/v1/jobs//events") is None
        assert route.match("/v1/jobs/j") is None
        assert route.match("/v1/health") is None

    def test_route_table_is_consistent(self):
        names = [route.name for route in ROUTES]
        assert len(names) == len(set(names))
        for route in ROUTES:
            assert route.method in {"GET", "POST", "DELETE"}
            assert route.pattern.startswith("/v1/")
            assert hasattr(ServeApp, f"_route_{route.name}"), route.name
            assert route.summary


class TestErrors:
    def test_unknown_path_is_404(self, app):
        status, payload, _ = _call(app, "GET", "/v2/anything")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405_with_allow(self, app):
        status, payload, extra = _call(app, "DELETE", "/v1/datasets")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert "GET" in extra["Allow"]
        assert "POST" in extra["Allow"]

    def test_malformed_json_is_400(self, app):
        status, _, body, _ = app.handle("POST", "/v1/jobs", b"{nope")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_empty_body_is_400(self, app):
        status, payload, _ = _call(app, "POST", "/v1/jobs")
        assert status == 400

    def test_unknown_job_is_404(self, app):
        status, payload, _ = _call(app, "GET", "/v1/jobs/job-999999")
        assert status == 404

    def test_unknown_dataset_is_404(self, app):
        status, payload, _ = _call(
            app, "POST", "/v1/jobs", {"dataset": "NOPE"}
        )
        assert status == 404
        assert "NOPE" in payload["error"]["message"]

    def test_health_reports_jobs_and_routes(self, app):
        status, payload, _ = _call(app, "GET", "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert set(payload) == {"status", "jobs", "routes"}
        assert set(payload["jobs"]) == set(JOB_STATES)
        assert payload["routes"] == [
            f"{route.method} {route.pattern}" for route in ROUTES
        ]


# ----------------------------------------------------------------------
# Queue limits, cancellation, resource budgets
# ----------------------------------------------------------------------


class TestQueueLimits:
    SPEC = {"dataset": DATASET, "scale": 0.01, "minsup": 5}

    @pytest.fixture()
    def gated(self, tmp_path):
        """An app whose single worker blocks until the gate opens."""
        app = ServeApp(
            tmp_path / "serve", workers=1, queue_depth=2, job_timeout=60.0
        )
        gate = threading.Event()
        original = app.queue.registry.table

        def gated_table(*args, **kwargs):
            gate.wait(timeout=60)
            return original(*args, **kwargs)

        app.queue.registry.table = gated_table
        yield app, gate
        gate.set()
        app.close()

    def test_backpressure_and_cancellation(self, gated):
        app, gate = gated
        _, job1, _ = _call(app, "POST", "/v1/jobs", self.SPEC)
        _wait_state(app, job1["id"], "running")

        # No result before the job is done.
        status, payload, _ = _call(
            app, "GET", f"/v1/jobs/{job1['id']}/result"
        )
        assert status == 409
        assert payload["error"]["code"] == "conflict"

        # Malformed incremental-poll cursor.
        status, payload, _ = _call(
            app, "GET", f"/v1/jobs/{job1['id']}/events?since=x"
        )
        assert status == 400

        # Fill the backlog to the cap, then overflow it.
        _, job2, _ = _call(app, "POST", "/v1/jobs", self.SPEC)
        _, job3, _ = _call(app, "POST", "/v1/jobs", self.SPEC)
        status, payload, extra = _call(app, "POST", "/v1/jobs", self.SPEC)
        assert status == 429
        assert payload["error"]["code"] == "queue_full"
        assert extra.get("Retry-After") == "1"

        # A queued job cancels immediately and terminally.
        status, payload, _ = _call(app, "DELETE", f"/v1/jobs/{job3['id']}")
        assert status == 202
        _, payload, _ = _call(app, "GET", f"/v1/jobs/{job3['id']}")
        assert payload["state"] == "cancelled"
        _, events, _ = _call(app, "GET", f"/v1/jobs/{job3['id']}/events")
        assert events["closed"]
        assert events["events"][-1]["kind"] == "job_end"
        assert events["events"][-1]["state"] == "cancelled"

        # A running job cancels cooperatively once the gate opens.
        status, payload, _ = _call(app, "DELETE", f"/v1/jobs/{job1['id']}")
        assert status == 202
        assert payload["cancel_requested"]
        gate.set()
        assert _wait_terminal(app, job1["id"])["state"] == "cancelled"

        # The untouched queued job still completes.
        assert _wait_terminal(app, job2["id"])["state"] == "done"
        status, payload, _ = _call(app, "DELETE", f"/v1/jobs/{job2['id']}")
        assert status == 409

        # Submission order is preserved in the listing.
        _, listing, _ = _call(app, "GET", "/v1/jobs")
        assert [job["id"] for job in listing["jobs"]] == [
            job1["id"],
            job2["id"],
            job3["id"],
        ]


class TestResourceLimits:
    def test_wall_clock_timeout_is_timeout_state(self, app):
        spec = {
            "dataset": DATASET,
            "scale": SCALE,
            "minsup": 2,
            "timeout_seconds": 1e-4,
        }
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "timeout"
        assert payload["error"]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "capture"])
    def test_tiny_timeout_is_timeout_state(self, app, warm):
        spec = {
            "dataset": DATASET,
            "scale": SCALE,
            "minsup": 2,
            "timeout_seconds": 1e-9,
            "warm": warm,
        }
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "timeout"
        assert "time budget" in payload["error"]

    def test_cancel_before_capture_stops_within_128_nodes(
        self, app, monkeypatch
    ):
        """A cancel that lands after the queue's last check but before
        the capture walk starts ends the job ``cancelled`` within the
        walk's first 128 nodes."""
        from repro.serve import jobs

        expanded = []

        class CancelAtCapture(jobs.Farmer):
            def mine_table(self, table):
                self.budget.cancel.set()
                try:
                    return super().mine_table(table)
                finally:
                    expanded.append(self.budget.nodes)

        monkeypatch.setattr(jobs, "Farmer", CancelAtCapture)
        spec = {"dataset": DATASET, "scale": SCALE, "minsup": 2}
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "cancelled"
        assert payload["spec"]["warm"] is True
        assert len(expanded) == 1 and expanded[0] <= 128

    def test_cancel_stops_a_running_sharded_job(self, app):
        """``DELETE`` on a running sharded, stealing job ends it
        ``cancelled`` well before the mine would finish, and leaves no
        worker process behind."""
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}

        def workers():
            return [
                child
                for child in multiprocessing.active_children()
                if child.pid not in before
            ]

        spec = {
            "dataset": DATASET,
            "scale": SCALE,
            "minsup": 2,
            "workers": 2,
            "steal": True,
            "warm": False,
        }
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        _wait_state(app, job["id"], "running")
        deadline = time.monotonic() + 30.0
        while not workers():
            assert time.monotonic() < deadline, "the job started no pool"
            time.sleep(0.01)
        status, _, _ = _call(app, "DELETE", f"/v1/jobs/{job['id']}")
        assert status == 202
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "cancelled"
        assert workers() == []

    def test_node_budget_is_timeout_state(self, app):
        spec = {
            "dataset": DATASET,
            "scale": SCALE,
            "minsup": MINSUP,
            "max_nodes": 20,
        }
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "timeout"
        assert payload["spec"]["warm"] is False  # auto-off under budgets

    def test_bad_consequent_is_failed_state(self, app):
        spec = {"dataset": DATASET, "scale": SCALE, "consequent": "NOPE"}
        _, job, _ = _call(app, "POST", "/v1/jobs", spec)
        payload = _wait_terminal(app, job["id"])
        assert payload["state"] == "failed"
        assert "NOPE" in payload["error"]


# ----------------------------------------------------------------------
# Uploads and the dataset registry
# ----------------------------------------------------------------------


class TestUploads:
    @pytest.fixture()
    def tsv(self, tmp_path):
        matrix = load(DATASET, scale=0.01, seed=7)
        path = tmp_path / "upload.tsv"
        save_expression(matrix, path)
        return path.read_text(encoding="utf-8")

    def test_upload_describe_mine_and_restart(self, tmp_path, tsv):
        app = ServeApp(tmp_path / "serve", workers=1)
        try:
            status, info, _ = _call(app, "POST", "/v1/datasets", {"tsv": tsv})
            assert status == 201
            assert info["created"]
            assert info["id"].startswith("up-")
            # Idempotent re-upload: same id, not created again.
            status, again, _ = _call(
                app, "POST", "/v1/datasets", {"tsv": tsv}
            )
            assert status == 200
            assert not again["created"]
            assert again["id"] == info["id"]

            _, listing, _ = _call(app, "GET", "/v1/datasets")
            ids = [entry["id"] for entry in listing["datasets"]]
            assert DATASET in ids
            assert info["id"] in ids

            status, detail, _ = _call(
                app, "GET", f"/v1/datasets/{info['id']}"
            )
            assert status == 200
            assert detail["samples"] == info["samples"]
            assert detail["default_consequent"] in detail["classes"]

            _, job, _ = _call(
                app, "POST", "/v1/jobs", {"dataset": info["id"], "minsup": 5}
            )
            payload = _wait_terminal(app, job["id"])
            assert payload["state"] == "done", payload.get("error")
        finally:
            app.close()

        # Uploads survive a daemon restart (re-indexed from disk).
        reborn = ServeApp(tmp_path / "serve", workers=1)
        try:
            assert info["id"] in reborn.registry.dataset_ids()
        finally:
            reborn.close()

    def test_invalid_uploads_are_400(self, app):
        status, payload, _ = _call(
            app, "POST", "/v1/datasets", {"tsv": "not a tsv"}
        )
        assert status == 400
        status, payload, _ = _call(app, "POST", "/v1/datasets", {"nope": 1})
        assert status == 400

    def test_unknown_dataset_detail_is_404(self, app):
        status, payload, _ = _call(app, "GET", "/v1/datasets/up-ffffffff")
        assert status == 404


# ----------------------------------------------------------------------
# The acceptance end-to-end: byte identity + warm reuse, per engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", E2E_CUTOFFS)
class TestEndToEnd:
    def test_job_bytes_match_direct_mine_and_warm_repeat(
        self, tmp_path, engine
    ):
        with handoff(engine):
            self._job_bytes_match_direct_mine_and_warm_repeat(tmp_path)

    def _job_bytes_match_direct_mine_and_warm_repeat(self, tmp_path):
        app = ServeApp(tmp_path / "serve", workers=1, queue_depth=4)
        try:
            spec = {"dataset": DATASET, "scale": SCALE, "minsup": MINSUP}
            status, job, _ = _call(app, "POST", "/v1/jobs", spec)
            assert status == 202
            payload = _wait_terminal(app, job["id"])
            assert payload["state"] == "done", payload.get("error")
            assert payload["summary"]["groups"] > 0
            assert payload["summary"]["warm_cache"] is True

            status, first, _ = _call(
                app, "GET", f"/v1/jobs/{job['id']}/result"
            )
            assert status == 200
            assert isinstance(first, bytes)
            assert first == _direct_irgs_bytes(tmp_path)

            _, events, _ = _call(app, "GET", f"/v1/jobs/{job['id']}/events")
            kinds = [event["kind"] for event in events["events"]]
            assert kinds[0] == "job_queued"
            assert kinds[-1] == "job_end"
            assert "cache_miss" in kinds  # a fresh cache cannot answer

            # The identical re-submission is answered by the registry
            # (table hit) and the warm-frontier cache (cache_hit).
            status, job2, _ = _call(app, "POST", "/v1/jobs", spec)
            assert status == 202
            payload2 = _wait_terminal(app, job2["id"])
            assert payload2["state"] == "done", payload2.get("error")
            _, second, _ = _call(
                app, "GET", f"/v1/jobs/{job2['id']}/result"
            )
            assert second == first

            _, events2, _ = _call(
                app, "GET", f"/v1/jobs/{job2['id']}/events"
            )
            kinds2 = [event["kind"] for event in events2["events"]]
            assert "cache_hit" in kinds2
            table_events = [
                event
                for event in events2["events"]
                if event["kind"] == "dataset_cache"
            ]
            assert table_events
            assert table_events[0]["table"] == "hit"

            # Incremental polling: nothing new after the end of stream.
            _, tail, _ = _call(
                app,
                "GET",
                f"/v1/jobs/{job2['id']}/events?since={events2['next']}",
            )
            assert tail["events"] == []
            assert tail["closed"]

            # The shared cache inventory attributes the entry.
            _, cache, _ = _call(app, "GET", "/v1/cache")
            assert any(
                entry["dataset"] == DATASET
                and entry["constraints"]["minsup"] == MINSUP
                for entry in cache["entries"]
            )
        finally:
            app.close()


class TestConcurrentJobs:
    """The daemon's default two mining threads, with four jobs in flight
    at once: a cold serial mine, a warm capture and a warm tighten
    sharing the server's frontier cache, and a job sharded over two
    worker processes.  Every result must be the bytes of the same mine
    run alone, in process."""

    def test_mixed_jobs_match_direct_mines(self, tmp_path):
        jobs = [
            ({"dataset": "BC", "minsup": 8}, ("BC", 8)),
            ({"dataset": DATASET, "minsup": MINSUP, "warm": False},
             (DATASET, MINSUP)),
            ({"dataset": "BC", "minsup": 9}, ("BC", 9)),
            ({"dataset": DATASET, "minsup": MINSUP - 1, "warm": False,
              "workers": 2}, (DATASET, MINSUP - 1)),
        ]
        app = ServeApp(tmp_path / "serve", workers=2, queue_depth=8)
        try:
            submitted = []
            for spec, direct in jobs:
                status, job, _ = _call(
                    app, "POST", "/v1/jobs", {"scale": SCALE, **spec}
                )
                assert status == 202, job
                submitted.append((job["id"], direct))
            for job_id, (dataset, minsup) in submitted:
                payload = _wait_terminal(app, job_id)
                assert payload["state"] == "done", payload.get("error")
                _, served, _ = _call(app, "GET", f"/v1/jobs/{job_id}/result")
                assert served == _direct_irgs_bytes(
                    tmp_path, dataset, minsup
                ), (job_id, dataset, minsup)
            _, cache, _ = _call(app, "GET", "/v1/cache")
            assert any(
                entry["dataset"] == "BC" for entry in cache["entries"]
            )
        finally:
            app.close()


class TestPaperScaleItems:
    """A served warm mine on a table wider than an item bitmask can be
    written as JSON text (~14,280 items) — the size where the earlier
    frontier-entry format failed every served job."""

    SCALE = 0.12  # LC: 1,504 genes x 10 buckets = 15,040 items
    MINSUP = 10

    def test_capture_and_repeat_match_direct_mine(self, tmp_path):
        matrix = load(DATASET, scale=self.SCALE, seed=None)
        data = EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)
        assert data.n_items > 14_280
        direct = tmp_path / "direct.irgs"
        result = mine_irgs(data, data.class_labels[0], minsup=self.MINSUP)
        save_rule_groups(
            direct, result.groups, constraints=result.constraints,
            dataset_name=data.name,
        )
        app = ServeApp(tmp_path / "serve", workers=1, queue_depth=4)
        try:
            spec = {"dataset": DATASET, "scale": self.SCALE, "minsup": self.MINSUP}
            for expected in ("cache_miss", "cache_hit"):
                _, job, _ = _call(app, "POST", "/v1/jobs", spec)
                payload = _wait_terminal(app, job["id"])
                assert payload["state"] == "done", payload.get("error")
                _, body, _ = _call(app, "GET", f"/v1/jobs/{job['id']}/result")
                assert body == direct.read_bytes(), expected
                _, events, _ = _call(app, "GET", f"/v1/jobs/{job['id']}/events")
                assert expected in {event["kind"] for event in events["events"]}
        finally:
            app.close()


# ----------------------------------------------------------------------
# The real daemon over a real socket
# ----------------------------------------------------------------------


class TestRealDaemon:
    def test_submit_poll_fetch_over_http(self, tmp_path):
        server = create_server(
            port=0, registry_dir=tmp_path / "serve", workers=1
        )
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(
                f"{base}/v1/health", timeout=10
            ) as response:
                assert response.status == 200
                health = json.load(response)
            assert health["status"] == "ok"

            body = json.dumps(
                {"dataset": DATASET, "scale": SCALE, "minsup": MINSUP}
            ).encode("utf-8")
            request = urllib.request.Request(
                f"{base}/v1/jobs",
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
                job = json.load(response)

            deadline = time.monotonic() + 120
            payload = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/v1/jobs/{job['id']}", timeout=10
                ) as response:
                    payload = json.load(response)
                if payload["state"] in TERMINAL_STATES:
                    break
                time.sleep(0.05)
            assert payload is not None
            assert payload["state"] == "done", payload.get("error")

            with urllib.request.urlopen(
                f"{base}/v1/jobs/{job['id']}/result", timeout=10
            ) as response:
                fetched = response.read()
            assert fetched == _direct_irgs_bytes(tmp_path)

            # An oversized Content-Length is refused before the body is
            # read (the handler answers 413 without buffering anything).
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(
                    b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Host: farmer\r\n"
                    b"Content-Length: 999999999\r\n\r\n"
                )
                response_bytes = raw.recv(65536)
            assert b" 413 " in response_bytes.split(b"\r\n", 1)[0]
            assert b"payload_too_large" in response_bytes
        finally:
            server.shutdown()
            server.app.close()
            server.server_close()


# ----------------------------------------------------------------------
# Docs gates: the reference cannot drift from the server
# ----------------------------------------------------------------------

#: Backticked ``METHOD /v1/...`` mentions in docs/serve.md.
_ROUTE_MENTION = re.compile(r"`(GET|POST|DELETE) (/v1/[^\s`]*)`")


class TestDocsCatalogue:
    @pytest.fixture(scope="class")
    def serve_doc(self):
        return (DOCS / "serve.md").read_text(encoding="utf-8")

    def test_every_route_documented_and_no_phantoms(self, serve_doc):
        documented = {
            (method, pattern)
            for method, pattern in _ROUTE_MENTION.findall(serve_doc)
        }
        registered = {(route.method, route.pattern) for route in ROUTES}
        assert registered <= documented, (
            f"routes missing from docs/serve.md: "
            f"{sorted(registered - documented)}"
        )
        assert documented <= registered, (
            f"docs/serve.md documents unregistered routes: "
            f"{sorted(documented - registered)}"
        )

    def test_every_error_code_documented(self, serve_doc):
        for code in (
            "bad_request",
            "not_found",
            "method_not_allowed",
            "conflict",
            "queue_full",
            "payload_too_large",
            "internal",
        ):
            assert f"`{code}`" in serve_doc, code

    def test_job_lifecycle_documented(self, serve_doc):
        for state in JOB_STATES:
            assert f"`{state}`" in serve_doc, state

    def test_serve_events_documented_in_observability(self):
        text = (DOCS / "observability.md").read_text(encoding="utf-8")
        for kind in ("job_queued", "job_start", "dataset_cache", "job_end"):
            assert f"`{kind}`" in text, kind


class TestDocsIndex:
    def test_index_links_every_docs_file(self):
        index = (DOCS / "index.md").read_text(encoding="utf-8")
        for path in sorted(DOCS.glob("*.md")):
            if path.name == "index.md":
                continue
            assert f"({path.name})" in index, f"index.md misses {path.name}"

    def test_readme_links_serve_and_index(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "farmer serve" in readme
        assert "docs/serve.md" in readme
        assert "docs/index.md" in readme


class TestNoRecursionLimit:
    """Serve job threads share one interpreter, so a mining path that
    saved and restored the process-wide recursion limit could restore
    another job's value mid-mine.  The row-enumeration walk keeps an
    explicit stack, so no mining path may touch the limit at all."""

    def test_mines_never_set_the_recursion_limit(self, tmp_path, monkeypatch):
        import sys

        from conftest import random_dataset

        def forbidden(limit):
            raise AssertionError(f"mining set the recursion limit to {limit}")

        data = random_dataset(3, max_rows=9)
        reference_path = tmp_path / "reference.irgs"
        save_rule_groups(reference_path, mine_irgs(data, "C", minsup=1).groups)
        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        cache = str(tmp_path / "warm")
        runs = {
            "serial": mine_irgs(data, "C", minsup=1),
            "sharded": mine_irgs(data, "C", minsup=1, n_workers=2),
            "steal": mine_irgs(
                data, "C", minsup=1, n_workers=2, steal=True, steal_quantum=2
            ),
            "capture": mine_irgs(data, "C", minsup=2, warm_cache=cache),
            "loosen": mine_irgs(data, "C", minsup=1, warm_cache=cache),
        }
        del runs["capture"]  # mined at minsup=2; it only seeds the cache
        for tag, result in runs.items():
            path = tmp_path / f"{tag}.irgs"
            save_rule_groups(path, result.groups)
            assert path.read_bytes() == reference_path.read_bytes(), tag
