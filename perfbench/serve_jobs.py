"""Workload ``serve-jobs``: mining jobs submitted to the ``farmer serve`` daemon.

The real daemon runs as a child process: the CLI entry point on an
ephemeral loopback port, with its default two mining threads.  One
client drives it in a closed loop.  The client submits a job over HTTP,
polls its status until it finishes, downloads the ``.irgs`` bytes, and
only then submits the next job.  Each request uses its own connection,
as curl and urllib do.

A job's latency is what the client waits for apart from its own
polling: the submit round trip, the job's span in the daemon from
``job_queued`` to ``job_end`` (its own events), and the result
download.  Polls are 20 ms apart.  Every poll is a handler thread
that takes the interpreter lock from the mining thread, so faster
polling slows the job it waits for: with polls 0.5, 2 and 20 ms
apart, the daemon's mean job span was 67, 59 and 54 ms (one pass of
five datasets, four rounds each).

A pass mines the five paper datasets, which the pass's daemon has not
seen.  Each gets a capture job, whose table the registry builds and
whose cold mine the warm frontier cache captures, then the dataset's
Figure 10 and 11 sweeps as ``common.sweep_queries`` orders them.  The
sweep's first job repeats the capture: the "second identical
submission" that the daemon's acceptance test requires to hit the
registry and the warm cache.  The rest are filters and one loosening
resume.

Every pass starts a fresh daemon, so each pass meets the same cold
registry and cache.  The datasets are small, so HTTP, the queue and
the registry are a visible share of every job.  Set-up is booting the
daemon until ``GET /v1/health`` answers; it is timed at every pass and
at five extra boots before the first.

A second client is not used: on two cores the daemon's two mining
threads already share one interpreter lock, so a second client adds no
throughput.  It only makes each job's latency depend on whether it
happened to overlap another job.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time

from common import (
    BUCKETS,
    DATASETS,
    ROOT,
    SRC,
    WARM_SCALE,
    Input,
    SpeedProbe,
    Trace,
    cold_mismatches,
    latency_metrics,
    layer_metrics,
    phase_seconds,
    shuffled,
    sweep_queries,
    timed_passes,
)

EXTRA_BOOTS = 5
BOOT_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
#: Sleep between status polls (see the module docstring).
POLL_S = 0.02


class Daemon:
    """One ``farmer serve`` child process on an ephemeral port."""

    def __init__(self, registry_dir) -> None:
        self.log_path = registry_dir.with_suffix(".log")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--registry-dir", str(registry_dir),
                ],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
            )
        self.port = None

    def wait_ready(self) -> None:
        """Block until the health route answers."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline and self.proc.poll() is None:
            if self.port is None:
                banner = self.log_path.read_text()
                if "http://" in banner:
                    address = banner.split("http://")[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    if request(self.port, "GET", "/v1/health")[0] == 200:
                        return
                except OSError:
                    pass  # bound but not accepting yet
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"daemon did not come up: {self.log_path.read_text()[-500:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def boot(registry_dir) -> Daemon:
    """Start a daemon and wait until it answers."""
    daemon = Daemon(registry_dir)
    daemon.wait_ready()
    return daemon


def request(port: int, method: str, target: str, body: "dict | None" = None):
    """One HTTP round trip on its own connection, as curl or urllib make it.

    (A kept-alive connection is not used: the daemon writes a response's
    headers and body in two sends, so on a reused connection each
    response waits out the client's delayed acknowledgement.)
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, target, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(raw)
    return response.status, raw


def dataset_jobs(inp: Input) -> list:
    """The ``(input, minsup, minconf)`` jobs on one fresh dataset."""
    queries = sweep_queries(inp.dataset)
    return [(inp, minsup, minconf) for minsup, minconf in queries[:1] + queries]


def job_span(events: list) -> float:
    """Seconds from ``job_queued`` to ``job_end`` in one job's events."""
    stamps = {event["kind"]: event for event in events}
    return stamps["job_end"]["t"] - stamps["job_queued"]["t"]


def add_job_layers(trace: Trace, events: list) -> None:
    """Layer times of one served job, from the daemon's own job events."""
    stamps = {event["kind"]: event for event in events}
    build = phase_seconds(events, "build")
    run_start, run_end = stamps["run_start"], stamps["run_end"]
    trace.add("prep", stamps["dataset_cache"]["t"] - stamps["job_start"]["t"])
    trace.add("search", run_end["t"] - run_start["t"] - build)
    trace.add("build", build)
    trace.add("serialize", stamps["job_end"]["t"] - run_end["t"])
    if stamps["dataset_cache"].get("table") == "hit":
        trace.count("registry_hit")
    if "cache_hit" in stamps:
        trace.count("frontier_hit")


def run(seed: int, seconds: float, traced: bool, work) -> dict:
    inputs = [Input(dataset, WARM_SCALE) for dataset in shuffled(DATASETS, seed, "serve")]
    ops = [job for inp in inputs for job in dataset_jobs(inp)]
    speed = SpeedProbe()
    setups: list[float] = []
    daemons: list[Daemon] = []
    trace = Trace(traced)
    # (op index, job id) of the jobs whose events are still unread.
    unread: list[tuple[int, str]] = []
    # Per op: seconds of the submit and download round trips, and the
    # job's span in the daemon.
    round_trips: dict[int, float] = {}
    spans: dict[int, float] = {}

    def retire_daemon() -> None:
        """Read the finished pass's job events, then stop its daemon."""
        daemon = daemons.pop()
        try:
            for index, job_id in unread:
                events = request(daemon.port, "GET", f"/v1/jobs/{job_id}/events")[1]
                spans[index] = job_span(events["events"])
                trace.op = index
                if traced:
                    add_job_layers(trace, events["events"])
            unread.clear()
        finally:
            daemon.stop()

    def fresh_daemon() -> None:
        if daemons:
            retire_daemon()
        registry = work / f"registry-{len(setups)}"
        daemon, boot_s, _ = speed.timed(lambda: boot(registry))
        daemons.append(daemon)
        setups.append(boot_s)

    def before_op(op) -> None:
        if op is ops[0]:
            fresh_daemon()

    nodes: list[int] = []
    outputs: dict = {}

    def one_job(index: int, op) -> "str | None":
        inp, minsup, minconf = op
        port = daemons[0].port
        body = {
            "dataset": inp.dataset, "scale": inp.scale, "buckets": BUCKETS,
            "minsup": minsup, "minconf": minconf,
        }
        started = time.perf_counter()
        status, job = request(port, "POST", "/v1/jobs", body)
        submit_s = time.perf_counter() - started
        if status != 202:
            return f"submit answered {status}: {job}"
        target = f"/v1/jobs/{job['id']}"
        while job["state"] in ("queued", "running"):
            time.sleep(POLL_S)
            _, job = request(port, "GET", target)
        if job["state"] != "done":
            return f"{job['id']} ended {job['state']}: {job.get('error')}"
        started = time.perf_counter()
        status, payload = request(port, "GET", target + "/result")
        round_trips[index] = submit_s + time.perf_counter() - started
        if status != 200:
            return f"{job['id']} result answered {status}"
        nodes.append(int(job["summary"]["nodes"]))
        unread.append((index, job["id"]))
        if outputs.setdefault(op, payload) != payload:
            return f"{inp.key} minsup={minsup} minconf={minconf}: answer changed"
        return None

    try:
        for _ in range(EXTRA_BOOTS):
            fresh_daemon()
        walls, scales, failures = timed_passes(
            ops, seconds, one_job, speed, before_op=before_op
        )
        retire_daemon()
        # A failed job keeps its wall time, polling included.
        latencies = [
            scale * (round_trips[index] + spans[index]) if index in spans else wall
            for index, (wall, scale) in enumerate(zip(walls, scales))
        ]
    finally:
        for daemon in daemons:
            daemon.stop()

    # Outside the timed window: every served result must equal the same
    # mine run directly in this process.
    failures += cold_mismatches(outputs, work / "direct.irgs")

    if traced:
        metrics = layer_metrics(trace, latencies, scales, nodes)
    else:
        metrics = latency_metrics(latencies, setups)
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": metrics,
    }
