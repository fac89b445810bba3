"""End-to-end smoke test for the ``farmer serve`` daemon.

This is the CI-shaped version of the loop ``docs/serve.md`` walks
through with curl: boot a **real** daemon as a subprocess (the actual
CLI entry point, a real ephemeral TCP port, real HTTP over a socket —
not the in-process ``ServeApp.handle`` shortcut the unit tests lean
on), drive one small mine through it, and hold the serve layer to the
repository's core promise:

* the ``.irgs`` bytes downloaded from ``GET /v1/jobs/{id}/result`` are
  **byte-identical** to the same mine run directly through
  :func:`repro.mine_irgs` in this process;
* a second, identical submission is answered from the shared warm
  frontier cache (its event stream carries ``cache_hit``, the first
  run's carries ``cache_miss``) and still returns identical bytes.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py
    PYTHONPATH=src python benchmarks/serve_smoke.py --timeout 240

Exit status 0 means the loop passed; any failure prints a reason and
exits 1 (the daemon's captured output is replayed to stderr to make CI
logs actionable).  Not a pytest module for the same reason as
``perf_gate.py``: it owns a subprocess lifecycle and an absolute
pass/fail contract rather than a benchmark fixture.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One small-but-real mine: LC at 2% scale finishes in a couple of
#: seconds yet exercises prunings, MineLB and the build.
JOB = {"dataset": "LC", "scale": 0.02, "minsup": 8}


def _direct_irgs_bytes(tmp_dir: Path) -> bytes:
    """The ground truth: the same mine, run directly in this process."""
    from repro.core.farmer import mine_irgs
    from repro.core.serialize import save_rule_groups
    from repro.data.discretize import EqualDepthDiscretizer
    from repro.data.registry import load

    matrix = load(JOB["dataset"], scale=JOB["scale"], seed=None)
    data = EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)
    result = mine_irgs(data, data.class_labels[0], minsup=JOB["minsup"])
    path = tmp_dir / "direct.irgs"
    save_rule_groups(
        path, result.groups, constraints=result.constraints,
        dataset_name=data.name,
    )
    return path.read_bytes()


def _request(base: str, method: str, target: str, body: dict | None = None):
    """One HTTP round-trip; returns (status, parsed-or-raw payload)."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + target, data=payload, method=method,
        headers={"Content-Type": "application/json"} if payload else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw


def _boot(registry_dir: str, timeout: float) -> tuple[subprocess.Popen, str]:
    """Start ``farmer serve`` on an ephemeral port; return (proc, base URL)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--registry-dir", registry_dir,
            "--workers", "1", "--queue-depth", "4",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True, cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + timeout
    banner = ""
    while time.monotonic() < deadline:
        banner = proc.stdout.readline()
        if "http://" in banner:
            host_port = banner.split("http://")[1].split()[0]
            return proc, f"http://{host_port}"
        if proc.poll() is not None:
            break
    proc.kill()
    raise SystemExit(
        f"FATAL: daemon did not come up (last output: {banner!r})"
    )


def _mine_over_http(base: str, timeout: float) -> tuple[bytes, set[str]]:
    """Submit JOB, wait for ``done``, return (.irgs bytes, event kinds)."""
    status, submitted = _request(base, "POST", "/v1/jobs", JOB)
    if status != 202:
        raise SystemExit(f"FATAL: submit returned {status}: {submitted}")
    job_id = submitted["id"]
    deadline = time.monotonic() + timeout
    state = submitted["state"]
    while time.monotonic() < deadline:
        status, job = _request(base, "GET", f"/v1/jobs/{job_id}")
        state = job["state"]
        if state not in ("queued", "running"):
            break
        time.sleep(0.1)
    if state != "done":
        raise SystemExit(f"FATAL: job {job_id} ended as {state!r}: {job}")
    status, result = _request(base, "GET", f"/v1/jobs/{job_id}/result")
    if status != 200 or not isinstance(result, bytes):
        raise SystemExit(f"FATAL: result fetch returned {status}")
    status, events = _request(base, "GET", f"/v1/jobs/{job_id}/events")
    kinds = {event["kind"] for event in events["events"]}
    return result, kinds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-phase ceiling in seconds (default: 120)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        expected = _direct_irgs_bytes(tmp_dir)
        proc, base = _boot(str(tmp_dir / "registry"), args.timeout)
        try:
            status, health = _request(base, "GET", "/v1/health")
            if status != 200 or health.get("status") != "ok":
                raise SystemExit(f"FATAL: health returned {status}: {health}")
            cold, cold_kinds = _mine_over_http(base, args.timeout)
            warm, warm_kinds = _mine_over_http(base, args.timeout)
        except SystemExit:
            proc.kill()
            print(proc.communicate()[0], file=sys.stderr)
            raise
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    sha = hashlib.sha256(expected).hexdigest()
    failures = []
    if cold != expected:
        failures.append("cold served .irgs differs from the direct mine")
    if warm != expected:
        failures.append("warm served .irgs differs from the direct mine")
    if "cache_miss" not in cold_kinds:
        failures.append(f"first run missing cache_miss (saw {sorted(cold_kinds)})")
    if "cache_hit" not in warm_kinds:
        failures.append(f"second run missing cache_hit (saw {sorted(warm_kinds)})")
    for failure in failures:
        print(f"SERVE SMOKE FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"serve smoke passed: {len(expected)} bytes over HTTP == direct mine "
        f"(sha256 {sha[:12]}), warm resubmission hit the frontier cache"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
