"""Cold start: a ``farmer`` process imports only what its command runs.

Every check runs in a fresh interpreter and reads ``sys.modules`` at the
end.  The parser build, a serial mine (cold or through the warm cache)
and a served job must load none of :data:`FORBIDDEN`: the sharded path,
the fault injector, the lint engine, the process-pool libraries, the
TSV reader/writer and the dataset profiler.  The commands that do use
them (``--workers``, ``farmer lint``, ``farmer profile``, ``--tsv``)
must still load them and behave as before, and every lazily exported
public name must resolve.  The retired ``--checkpoint``/``--resume``
flags are usage errors.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

FORBIDDEN = (
    "repro.core.parallel",
    "repro.testing.chaos",
    "repro.analysis.engine",
    "multiprocessing",
    "concurrent.futures",
    "repro.data.io",
    "repro.data.profile",
)

#: Appended to every probe: the last stdout line lists the forbidden
#: modules the process loaded.
_REPORT = (
    "\nimport json as _json, sys as _sys\n"
    f"print(_json.dumps([m for m in {FORBIDDEN!r} if m in _sys.modules]))\n"
)

#: Runs ``farmer`` in-process with the probe's argv, keeping its code.
_FARMER = (
    "import sys\n"
    "from repro.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exit_:\n"
    "    code = exit_.code\n"
    "print('exit', code)\n"
)

CT = ("--dataset", "CT", "--scale", "0.02", "--top", "0")


def _env() -> dict[str, str]:
    """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def _probe(code: str, *argv: str, cwd: Path) -> tuple[list[str], str]:
    """Run ``code`` in a fresh interpreter; return (loaded, stdout)."""
    completed = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *argv],
        cwd=cwd, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    *lines, report = completed.stdout.splitlines()
    return json.loads(report), "\n".join(lines)


def _farmer(*argv: str, cwd: Path) -> tuple[list[str], str]:
    return _probe(_FARMER, *argv, cwd=cwd)


class TestNothingExtraLoaded:
    def test_import_cli(self, tmp_path):
        loaded, _ = _probe("import repro.cli", cwd=tmp_path)
        assert loaded == []

    def test_parser_build(self, tmp_path):
        loaded, stdout = _farmer("--help", cwd=tmp_path)
        assert "usage: farmer" in stdout and stdout.endswith("exit 0")
        assert loaded == []

    def test_serial_mine_cold_and_warm(self, tmp_path):
        cold_loaded, _ = _farmer("mine", *CT, "--save", "cold.irgs", cwd=tmp_path)
        assert cold_loaded == []
        # The first warm mine captures a frontier entry, the second
        # (tighter) one answers from it.
        for name, minsup in (("capture", "5"), ("hit", "6")):
            loaded, stdout = _farmer(
                "mine", *CT, "--minsup", minsup, "--warm-cache", "cache",
                "--save", f"{name}.irgs", cwd=tmp_path,
            )
            assert stdout.endswith("exit 0")
            assert loaded == [], name
        cold = (tmp_path / "cold.irgs").read_bytes()
        assert (tmp_path / "capture.irgs").read_bytes() == cold

    def test_served_job(self, tmp_path):
        code = (
            "import json, threading, time, urllib.request\n"
            "from repro.serve import create_server\n"
            "server = create_server(port=0, registry_dir='reg', workers=1)\n"
            "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
            "host, port = server.server_address[:2]\n"
            "base = f'http://{host}:{port}/v1/jobs'\n"
            "opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))\n"
            "body = json.dumps({'dataset': 'CT', 'scale': 0.02, 'minsup': 5})\n"
            "request = urllib.request.Request(base, data=body.encode(), method='POST')\n"
            "job = json.load(opener.open(request))\n"
            "while job['state'] in ('queued', 'running'):\n"
            "    time.sleep(0.05)\n"
            "    job = json.load(opener.open(f\"{base}/{job['id']}\"))\n"
            "print(job['state'])\n"
            "server.shutdown()\n"
            "server.app.close()\n"
            "server.server_close()\n"
        )
        loaded, stdout = _probe(code, cwd=tmp_path)
        assert stdout == "done"
        assert loaded == []


class TestCommandsThatNeedThem:
    def test_sharded_mine_loads_parallel_and_writes_serial_bytes(self, tmp_path):
        _farmer("mine", *CT, "--save", "serial.irgs", cwd=tmp_path)
        loaded, stdout = _farmer(
            "mine", *CT, "--workers", "2", "--save", "sharded.irgs",
            cwd=tmp_path,
        )
        assert "sharded across 2 workers" in stdout
        assert "repro.core.parallel" in loaded
        assert (tmp_path / "sharded.irgs").read_bytes() == (
            tmp_path / "serial.irgs"
        ).read_bytes()

    def test_profile_loads_the_profiler(self, tmp_path):
        loaded, stdout = _farmer("profile", *CT[:4], cwd=tmp_path)
        assert stdout.endswith("exit 0")
        assert "repro.data.profile" in loaded
        assert "repro.core.parallel" not in loaded

    def test_tsv_commands_load_the_tsv_module(self, tmp_path):
        loaded, stdout = _farmer(
            "generate", "--dataset", "CT", "--scale", "0.02", "--out",
            "ct.tsv", cwd=tmp_path,
        )
        assert stdout.endswith("exit 0")
        assert "repro.data.io" in loaded
        loaded, stdout = _farmer(
            "mine", "--tsv", "ct.tsv", "--top", "0", "--save", "tsv.irgs",
            cwd=tmp_path,
        )
        assert stdout.endswith("exit 0")
        assert "repro.data.io" in loaded

    @pytest.mark.parametrize(
        "flags",
        [
            ("--checkpoint", "run.ckpt"),
            ("--checkpoint-every", "2"),
            ("--resume", "run.ckpt"),
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    def test_removed_flag_is_usage_error(self, tmp_path, flags):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "mine", *CT, "--workers", "2",
             *flags],
            cwd=tmp_path, env=_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert completed.returncode == 2
        assert "usage: farmer" in completed.stderr
        assert f"unrecognized arguments: {' '.join(flags)}" in completed.stderr
        assert not (tmp_path / "run.ckpt").exists()

    def test_lint_list_rules(self, tmp_path):
        loaded, stdout = _farmer("lint", "--list-rules", cwd=tmp_path)
        assert stdout.endswith("exit 0")
        assert [line[:6] for line in stdout.splitlines()[:-1]] == [
            f"FRM{i:03d}" for i in range(1, 13)
        ]
        assert "repro.analysis.engine" in loaded

    def test_lint_run_on_fixture(self, tmp_path):
        target = tmp_path / "tree"
        shutil.copytree(FIXTURES / "taint_flow", target)
        loaded, stdout = _farmer("lint", str(target), "--no-cache", cwd=tmp_path)
        assert stdout.endswith("exit 1")
        assert stdout.count("FRM009") == 2
        assert "repro.analysis.engine" in loaded


class TestLazyExports:
    def test_every_public_name_resolves(self, tmp_path):
        code = (
            "import pickle, repro, repro.analysis, repro.core, repro.data\n"
            "for module in (repro, repro.core, repro.analysis, repro.data):\n"
            "    for name in module.__all__:\n"
            "        assert getattr(module, name) is not None, name\n"
            "from repro.core import RetryPolicy\n"
            "assert repro.ParallelReport is repro.core.parallel.ParallelReport\n"
            "assert repro.shutdown_workers() is None\n"
            "policy = pickle.loads(pickle.dumps(RetryPolicy()))\n"
            "assert type(policy).__module__ == 'repro.core.parallel'\n"
            "assert repro.data.DatasetProfile.__module__ == 'repro.data.profile'\n"
            "assert repro.data.save_expression.__module__ == 'repro.data.io'\n"
            "assert not hasattr(repro.core, 'CheckpointState')\n"
            "print('ok')\n"
        )
        loaded, stdout = _probe(code, cwd=tmp_path)
        assert stdout == "ok"
        assert "repro.core.parallel" in loaded

    @pytest.mark.parametrize(
        "module", ["repro", "repro.core", "repro.analysis", "repro.data"]
    )
    def test_unknown_name_is_attribute_error(self, module):
        package = __import__(module, fromlist=["_"])
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
