"""Committed perf baseline + CI regression gate for the enumeration engine.

Runs two pinned Figure-10-style LC minsup sweeps and one BC sweep on
prebuilt tables and records, per sweep point:

* **determinism pins** — node count, group count and the sha256 of the
  serialized ``.irgs`` output.  These are hardware-independent and are
  compared *exactly* in ``--check`` mode: any drift means the engine
  changed mined output, which is a bug regardless of speed.  One sweep
  point per sweep is additionally re-mined sharded (``n_workers=2``)
  and must hash identically to the serial run.
* **speed** — best-of-N wall time of the production engine.

The first sweep (the top level of the baseline, LC at ``SCALE``) also
times the pre-kernel ``reference`` oracle and gates the aggregate
reference/production speedup at ``min_speedup * tolerance``.  The
second (``"numpy"``, LC at ``NUMPY_SCALE``) pins the wide LC table the
``sharding`` row mines.

The third, ``"bc"``, is BC's Figure 10 grid at ``NUMPY_SCALE``, where
the roots the class-support filter keeps are wide (209 to 13,494
items): production only, pinned like the other two.

A fourth section, ``"steal"``, pins the work-stealing scheduler's
tail-latency claim on a skewed point below the sweep: the same LC
workload at ``STEAL_MINSUP`` mined at 4 workers under the static and
the stealing scheduler.  Byte-identity with the serial run is fatal for
both schedulers, and the tail latency — the longest single dispatch,
``max(ParallelReport.task_seconds)`` — must improve by at least
``STEAL_MIN_TAIL_IMPROVEMENT`` under stealing, because donations bound
every part by the quantum while the static scheduler waits for its
largest shard.  Tail latency is wall-clock *per dispatch*, not
aggregate throughput, so it is meaningful even on single-core CI.

A fifth section, ``"remine"``, gates the warm re-mining path
(``core/frontier.py``) on BC's Figure 10 grid at ``SCALE``: one
frontier capture at the loosest grid point, then every tighter point
answered **warm**.
A warm tighten must expand zero nodes and serialize the cold mine's
exact ``.irgs`` bytes (fatal, serial and sharded), and its steady-state
aggregate speedup over cold mining must be at least
``REMINE_MIN_SPEEDUP`` when refreshing, ``REMINE_SPEEDUP_FLOOR`` in
``--check`` (the floor is checked directly, no tolerance — the warm
path carries ~3x headroom over it).  A warm answer that is not a
filter is a capture: the first mine at the base point and one
*loosening* re-mine below it.  Both must cost no more than
``REMINE_MAX_CAPTURE_RATIO`` times the best-of-N cold mine at the same
minsup (best-of-N each, warm and cold rounds alternating, checked in
``--check``); the loosening must expand exactly the cold mine's nodes
and, serial and with ``n_workers=2`` (which a warm answer ignores),
serialize the cold mine's bytes.

A sixth section, ``"sharding"``, is measure-only: serial against
``n_workers=2``, static and stealing, best-of-N at the wide sweep's
``SHARDING_MINSUP``, with the CPU count this process may run on.  Each
sharded run starts its own worker pool, so every timed sharded mine
includes its pool start.  Its output must hash to the wide sweep's pin
at that minsup; its times have no floor (they record whether sharding
beats serial at all).

A seventh section, ``"prep"``, is measure-only too: best-of-N registry
load, the equal-depth discretizer's ``fit`` and ``transform`` (timed
apart), transpose and the miner's root-table build
(:meth:`~repro.core.kernel.CondTable.build` over every item; layer
``root_table``) for LC at ``PREP_SCALES`` — the two sweep scales and
the paper's full width (12,533 genes, 125,330 items).  Each point pins
:func:`repro.testing.prep.prep_sha256` of its discretized, transposed
table, which ``--check`` compares exactly; its times have no floor.

An eighth section, ``"output"``, is measure-only as well: the
per-group path after Step 7 at ``OUTPUT_POINTS`` (scale
``OUTPUT_SCALE``).  Each point mines once, then times best-of-N
``Farmer._build_groups`` on the mined store and ``save_rule_groups``
on the groups it built, in seconds and microseconds per group.  Each
point pins the sha256 of the ``.irgs`` file it wrote, which ``--check``
compares exactly; its times have no floor.

A ninth section, ``"budget"``, gates what a budget costs a mine: the
pinned sweep at ``SCALE`` mined with ``SearchBudget(max_seconds=300)``
(the ``farmer mine --timeout`` default), with a served job's
``CancellableBudget`` and with no budget, interleaved per point.  Each
round's ratio comes from adjacent mines (a budgeted mine's time over the
unbudgeted one's in the same round); a point's ratio is the median over
its rounds (a point that reads above the bar is timed again), and the
sweep's is the median over its points.  The three must agree on every
point's node count and ``.irgs`` sha (fatal), and ``--check`` fails if
either budget's sweep ratio exceeds ``BUDGET_MAX_RATIO``: the walk
charges a budget once per chunk of nodes, so limits must cost next to
nothing.

A tenth section, ``"cli"``, is measure-only: whole ``farmer``
processes, as a user runs one query.  Best-of-N ``python -c "import
repro.cli"``, ``farmer mine ... --save`` at each :data:`CLI_MINES` point
(process start to ``.irgs`` on disk; the paper-width point is CI's
"End-to-end mine at paper size" command) and one ``farmer serve --port
0`` boot up to the first ``200`` from ``GET /v1/health``.  Each mine
pins the sha256 of the file it wrote, which ``--check`` compares
exactly; its times have no floor.

``--check`` recomputes the pins, re-measures the speeds and fails if
the reference speedup falls below ``min_speedup * tolerance`` — the
tolerance is deliberately generous (CI machines are noisy; the gate
exists to catch the engine *losing its reason to exist*, not 5% noise).
The steal tail floor is checked without the tolerance: the improvement
measured 1.5x-2.2x over repeated runs on a 2-core machine, and best-of-N
damps the noise a single dispatch could add.

``--diff`` prints a per-section delta table (current measurements vs
the committed baseline) so a regression is readable in CI logs — which
metric moved, by how much — instead of a bare pass/fail.  It composes
with ``--check``: the table prints first, then the gate verdict.

Every run prints each section's wall-clock seconds, untimed set-up and
all rounds included, and names the slowest section; these readings are
not written to the baseline.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py            # refresh baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --check    # CI gate
    PYTHONPATH=src python benchmarks/perf_gate.py --diff     # delta table

Not a pytest module on purpose: the sweep takes seconds-not-milliseconds
and its pass/fail contract (exact pins + speed floors) does not fit
the benchmark fixtures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.core.constraints import Constraints
from repro.core.enumeration import SearchBudget
from repro.core.farmer import Farmer, _IRGStore
from repro.core.kernel import CondTable
from repro.core.serialize import save_rule_groups
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.registry import PAPER_DATASETS, load
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import build_workload
from repro.serve.jobs import CancellableBudget
from repro.testing.prep import prep_sha256

#: The pinned sweep: LC at benchmark scale, Figure-10 minsup grid.
DATASET = "LC"
SCALE = 0.02
MINSUP_SWEEP = (14, 12, 11, 10, 9)
#: The sweep point re-run sharded for the parallel byte-identity pin.
SHARDED_MINSUP = 12
#: Required aggregate reference/production speedup when refreshing the
#: baseline, and the CI tolerance applied to it in ``--check``.
MIN_SPEEDUP = 2.0
TOLERANCE = 0.6

#: The wide sweep: the same Figure-10 minsup grid at the larger LC
#: replication (25,070 items).  Every sweep times ``Farmer.mine_table``
#: on a table built once per sweep: the dataset→table transpose is
#: shared preprocessing, and folding its constant into each point only
#: dilutes the ratios being gated.
NUMPY_SCALE = 0.2

#: The BC sweep: BC's Figure 10 grid at ``NUMPY_SCALE`` (48,960 items).
#: Its filtered roots keep 209, 1,326, 5,016 and 13,494 items, where the
#: filtered LC roots keep 2-43.
BC_DATASET = "BC"
BC_SWEEP = (9, 8, 7, 6)
#: The BC sweep's point re-run sharded.
BC_SHARDED_MINSUP = 8

#: Production time a sweep point accumulates before its best-of-N
#: settles (see :func:`_time_point`).
MIN_POINT_SECONDS = 1.0

#: The serial-vs-sharded row: the wide sweep's hardest point, the
#: ledger's largest, at two workers.
SHARDING_MINSUP = 9
SHARDING_WORKERS = 2

#: The work-stealing tail-latency point: LC below the sweep's hardest
#: minsup, at 4 workers.  Its largest shard (14,588 of 134,426 nodes)
#: must run well above a process-pool round trip (a few milliseconds
#: with 4 workers on 2 cores), or both tails measure dispatch overhead
#: instead of the schedule — at minsup 9 the largest shard is 6,095
#: nodes, which a fast walk finishes inside that floor.  The quantum is
#: set well below the largest shard's node count so the dominant
#: subtree is actually donated apart (~300 donations); with the default
#: quantum nothing donates and the comparison would measure noise.
STEAL_MINSUP = 5
STEAL_WORKERS = 4
STEAL_QUANTUM = 512
#: Required static/steal tail-latency ratio when refreshing the
#: baseline; ``--check`` re-measures against the same floor (no
#: tolerance — see the module docstring).
STEAL_MIN_TAIL_IMPROVEMENT = 1.3

#: The warm re-mining section: capture once at the loosest point of
#: BC's Figure 10 grid at ``SCALE``, answer every tighter point from the
#: frontier cache.  BC, not the LC sweep: the filtered LC mines take
#: 0.1-9 ms, so a capture's fsync'd entry write and a warm answer's
#: fixed costs would be all that the ratios measured.  The
#: speedup is steady-state (the one-time entry decode is primed out of
#: the timing; an interactive session pays it once), committed at
#: ``REMINE_MIN_SPEEDUP`` and gated at ``REMINE_SPEEDUP_FLOOR`` with no
#: extra tolerance.  The loosening re-mine below the base point is a
#: fresh capture; it and the base capture must each stay within
#: ``REMINE_MAX_CAPTURE_RATIO`` of a cold mine at the same minsup (the
#: entry write is the only work a capture adds).
REMINE_DATASET = "BC"
REMINE_BASE_MINSUP = 6
REMINE_TIGHTEN_SWEEP = (7, 8, 9)
REMINE_LOOSEN_MINSUP = 5
REMINE_MIN_SPEEDUP = 10.0
REMINE_SPEEDUP_FLOOR = 5.0
REMINE_MAX_CAPTURE_RATIO = 1.5

#: The prep row's scales: both sweeps' tables and the paper's width.
PREP_SCALES = (SCALE, NUMPY_SCALE, 1.0)
#: Timed prep layers, in pipeline order.
PREP_LAYERS = ("load", "fit", "transform", "transpose", "root_table")
#: Prep layers a committed row may still name, as the layers that
#: replaced them: ``--diff`` compares such a layer with their sum.
PREP_RENAMED = {"discretize": ("fit", "transform")}

#: The output row's points: dataset and minsup, all at one scale.
OUTPUT_POINTS = (("BC", 6), ("ALL", 4), ("CT", 3))
OUTPUT_SCALE = 0.02
#: Best-of-N rounds of the output row; each takes milliseconds.
OUTPUT_ROUNDS = 15

#: The budget row's wall-clock limit: ``farmer mine``'s and a served
#: job's default.
BUDGET_SECONDS = 300.0
#: The budget row's variants, each a fresh budget per mine (``None``:
#: unbudgeted).
BUDGETS = {
    "unbudgeted": lambda: None,
    "time": lambda: SearchBudget(max_seconds=BUDGET_SECONDS),
    "cancellable": lambda: CancellableBudget(
        max_seconds=BUDGET_SECONDS, cancel=threading.Event()
    ),
}
#: Most a budgeted sweep may cost over the unbudgeted one (``--check``).
BUDGET_MAX_RATIO = 1.10
#: Extra timings of a budget point that reads above the ratio: one
#: burst of a shared host's load can move a few-millisecond point by
#: more than the checks cost.
BUDGET_RETRIES = 2

#: The cli row's ``farmer mine`` points on LC: (scale, minsup).  The
#: second is CI's paper-width pin (``cdfa44e6...`` in ci.yml).
CLI_MINES = ((SCALE, 12), (1.0, 14))

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"
#: The source tree the cli row's subprocesses import.
SRC_PATH = BASELINE_PATH.parent.parent / "src"


def _irgs_sha256(result, tmp_dir: Path, tag: str) -> str:
    path = tmp_dir / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mine(workload, minsup: int, n_workers: int | None = None, **knobs):
    miner = Farmer(
        constraints=Constraints(minsup=minsup), n_workers=n_workers, **knobs
    )
    return miner.mine(workload.data, workload.consequent)


def _mine_prebuilt(table, minsup: int, n_workers=None, **knobs):
    miner = Farmer(
        constraints=Constraints(minsup=minsup), n_workers=n_workers, **knobs
    )
    return miner.mine_table(table)


def _best_of_prebuilt(table, minsup: int, rounds: int, **knobs):
    """(best wall seconds, last result) mining a pre-transposed table."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = _mine_prebuilt(table, minsup, **knobs)
        best = min(best, time.perf_counter() - start)
    return best, result


def _sweep_table(scale: float, dataset: str = DATASET) -> TransposedTable:
    workload = build_workload(dataset, scale=scale)
    return TransposedTable.build(workload.data, workload.consequent)


def _time_point(table, minsup: int, variants: dict, rounds: int, best: dict):
    """Time every variant (name -> ``engine=``) at one sweep point,
    lowering ``best`` in place.

    Every round mines each variant once, in a fixed alternating order.
    Rounds repeat past ``rounds`` until production has spent
    ``MIN_POINT_SECONDS`` (the reference oracle stops at ``rounds``), so
    a few-millisecond point gets enough rounds for its minimum to
    settle.  Returns the last result of each variant.
    """
    results = {}
    spent = 0.0
    done = 0
    while done < rounds or spent < MIN_POINT_SECONDS:
        for name, engine in variants.items():
            if engine == "reference" and done >= rounds:
                continue
            # Collect first, so no variant pays for another's garbage.
            gc.collect()
            start = time.perf_counter()
            results[name] = _mine_prebuilt(table, minsup, engine=engine)
            seconds = time.perf_counter() - start
            best[name] = min(best[name], seconds)
            if name == "production":
                spent += seconds
        done += 1
    return results


def run_engine_sweep(
    scale: float,
    rounds: int,
    tmp_dir: Path,
    *,
    dataset: str = DATASET,
    sweep: tuple = MINSUP_SWEEP,
    sharded_minsup: int = SHARDED_MINSUP,
    reference: bool = False,
) -> dict:
    """One minsup sweep of production (with the reference oracle when
    ``reference``), byte-identity fatal; each point is timed by
    :func:`_time_point`."""
    table = _sweep_table(scale, dataset)
    variants = {"production": None}
    if reference:
        variants["reference"] = "reference"
    points = []
    totals = dict.fromkeys(variants, 0.0)
    for minsup in sweep:
        best = dict.fromkeys(variants, float("inf"))
        results = _time_point(table, minsup, variants, rounds, best)
        production = results["production"]
        sha = _irgs_sha256(production, tmp_dir, f"{scale}-{minsup}")
        for name, result in results.items():
            if _irgs_sha256(result, tmp_dir, f"{scale}-{minsup}-{name}") != sha:
                raise SystemExit(
                    f"FATAL: {name} diverges from production at "
                    f"{dataset} scale={scale} minsup={minsup}"
                )
            if result.counters.nodes != production.counters.nodes:
                raise SystemExit(
                    f"FATAL: {name} visited {result.counters.nodes} nodes, "
                    f"production {production.counters.nodes}, at "
                    f"{dataset} scale={scale} minsup={minsup}"
                )
        for name in variants:
            totals[name] += best[name]
        point = {
            "minsup": minsup,
            "nodes": production.counters.nodes,
            "groups": len(production.groups),
            "irgs_sha256": sha,
            "production_nodes_per_second": round(
                production.counters.nodes / best["production"]
            ),
        }
        for name in variants:
            point[f"{name}_seconds"] = round(best[name], 4)
        if reference:
            point["speedup"] = round(
                best["reference"] / best["production"], 3
            )
        points.append(point)

    sharded = _mine_prebuilt(table, sharded_minsup, n_workers=2)
    serial_sha = next(
        p["irgs_sha256"] for p in points if p["minsup"] == sharded_minsup
    )
    if _irgs_sha256(sharded, tmp_dir, f"{scale}-sharded") != serial_sha:
        raise SystemExit(
            f"FATAL: sharded (n_workers=2) output diverges from serial at "
            f"{dataset} scale={scale} minsup={sharded_minsup}"
        )

    payload = {
        "dataset": dataset,
        "scale": scale,
        "rounds": rounds,
        "sharded_minsup": sharded_minsup,
        "points": points,
    }
    for name, total in totals.items():
        payload[f"{name}_seconds"] = round(total, 4)
    if reference:
        payload["min_speedup"] = MIN_SPEEDUP
        payload["tolerance"] = TOLERANCE
        payload["aggregate_speedup"] = round(
            totals["reference"] / totals["production"], 3
        )
    return payload


def run_sharding_row(rounds: int, tmp_dir: Path) -> dict:
    """Serial against two workers, static and stealing (measure-only).

    Each round mines serial, static and stealing in turn; every output
    must hash identically to the serial one.  A sharded run starts and
    stops its own worker pool, so each timed sharded mine includes its
    pool start.
    """
    table = _sweep_table(NUMPY_SCALE)
    variants = {
        "serial": {},
        "static": {"n_workers": SHARDING_WORKERS},
        "steal": {"n_workers": SHARDING_WORKERS, "steal": True},
    }
    serial = _mine_prebuilt(table, SHARDING_MINSUP)
    serial_sha = _irgs_sha256(serial, tmp_dir, "sharding-serial")
    best = dict.fromkeys(variants, float("inf"))
    for attempt in range(rounds):
        for name, knobs in variants.items():
            start = time.perf_counter()
            result = _mine_prebuilt(table, SHARDING_MINSUP, **knobs)
            best[name] = min(best[name], time.perf_counter() - start)
            if _irgs_sha256(
                result, tmp_dir, f"sharding-{name}-{attempt}"
            ) != serial_sha:
                raise SystemExit(
                    f"FATAL: {name} (n_workers={SHARDING_WORKERS}) output "
                    f"diverges from serial at minsup={SHARDING_MINSUP}"
                )
    return {
        "dataset": DATASET,
        "scale": NUMPY_SCALE,
        "minsup": SHARDING_MINSUP,
        "workers": SHARDING_WORKERS,
        "cpus": len(os.sched_getaffinity(0)),
        "rounds": rounds,
        "nodes": serial.counters.nodes,
        "irgs_sha256": serial_sha,
        "serial_seconds": round(best["serial"], 4),
        "static_seconds": round(best["static"], 4),
        "steal_seconds": round(best["steal"], 4),
    }


def run_prep_row(rounds: int) -> dict:
    """Best-of-N prep layers per scale, with the table's content pin.

    Every round runs the whole chain — load, discretize, transpose,
    root table — so each layer is timed on a fresh input, as a cold
    ``farmer mine`` runs it.  Measure-only: the times have no floor.
    """
    consequent = PAPER_DATASETS[DATASET].class1
    points = []
    for scale in PREP_SCALES:
        best = dict.fromkeys(PREP_LAYERS, float("inf"))
        for _ in range(rounds):
            gc.collect()
            stamps = [time.perf_counter()]
            matrix = load(DATASET, scale=scale)
            stamps.append(time.perf_counter())
            discretizer = EqualDepthDiscretizer().fit(matrix)
            stamps.append(time.perf_counter())
            data = discretizer.transform(matrix)
            stamps.append(time.perf_counter())
            table = TransposedTable.build(data, consequent)
            stamps.append(time.perf_counter())
            CondTable.build(table.item_masks, table.all_rows_mask)
            stamps.append(time.perf_counter())
            for layer, start, end in zip(PREP_LAYERS, stamps, stamps[1:]):
                best[layer] = min(best[layer], end - start)
        point = {"scale": scale, "items": data.n_items}
        for layer in PREP_LAYERS:
            point[f"{layer}_seconds"] = round(best[layer], 4)
        point["table_sha256"] = prep_sha256(discretizer, table)
        points.append(point)
    return {"dataset": DATASET, "rounds": rounds, "points": points}


def run_output_row(tmp_dir: Path) -> dict:
    """Best-of-N group build and ``.irgs`` write per point, with its pin.

    Each point is mined once; every round builds the groups from the
    mined Step-7 store and writes them, as the end of a mine does.
    Measure-only: the times have no floor.
    """
    points = []
    for dataset, minsup in OUTPUT_POINTS:
        matrix = load(dataset, scale=OUTPUT_SCALE)
        data = EqualDepthDiscretizer().fit_transform(matrix)
        table = TransposedTable.build(data, PAPER_DATASETS[dataset].class1)
        miner = Farmer(constraints=Constraints(minsup=minsup))
        store = _IRGStore()
        miner._search(table, store)
        path = tmp_dir / f"output-{dataset}.irgs"
        build = save = float("inf")
        for _ in range(OUTPUT_ROUNDS):
            gc.collect()
            start = time.perf_counter()
            groups = miner._build_groups(table, store)
            built = time.perf_counter()
            save_rule_groups(path, groups, constraints=miner.constraints)
            build = min(build, built - start)
            save = min(save, time.perf_counter() - built)
        per_group = 1e6 / max(len(groups), 1)
        points.append(
            {
                "dataset": dataset,
                "minsup": minsup,
                "groups": len(groups),
                "build_seconds": round(build, 5),
                "save_seconds": round(save, 5),
                "build_us_per_group": round(build * per_group, 2),
                "save_us_per_group": round(save * per_group, 2),
                "irgs_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
        )
    return {"scale": OUTPUT_SCALE, "rounds": OUTPUT_ROUNDS, "points": points}


def _process_seconds(command: list[str], env: dict) -> float:
    """Wall seconds of one subprocess, start to exit (must exit 0)."""
    start = time.perf_counter()
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _serve_boot_seconds(env: dict, registry_dir: Path) -> float:
    """Seconds from spawning ``farmer serve --port 0`` to its first
    ``200`` from ``GET /v1/health``; the daemon is stopped after."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--registry-dir", str(registry_dir), "--workers", "1"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        banner = proc.stdout.readline()
        if "http://" not in banner:
            raise SystemExit(f"FATAL: farmer serve did not come up: {banner!r}")
        base = "http://" + banner.split("http://")[1].split()[0]
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{base}/v1/health", timeout=30) as response:
            status = response.status
        seconds = time.perf_counter() - start
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    if status != 200:
        raise SystemExit(f"FATAL: GET /v1/health returned {status}")
    return seconds


def run_cli_row(rounds: int, tmp_dir: Path) -> dict:
    """Best-of-N whole ``farmer`` processes, each mine with its pin.

    Every round runs the import, each :data:`CLI_MINES` point and one
    serve boot in turn, each as a fresh interpreter.  Measure-only: the
    times have no floor.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_PATH), env.get("PYTHONPATH")))
    )
    import_best = serve_best = float("inf")
    mine_best = dict.fromkeys(CLI_MINES, float("inf"))
    for _ in range(rounds):
        import_best = min(
            import_best,
            _process_seconds([sys.executable, "-c", "import repro.cli"], env),
        )
        for scale, minsup in CLI_MINES:
            command = [
                sys.executable, "-m", "repro", "mine", "--dataset", DATASET,
                "--scale", str(scale), "--minsup", str(minsup),
                "--save", str(tmp_dir / f"cli-{scale}.irgs"),
            ]
            mine_best[scale, minsup] = min(
                mine_best[scale, minsup], _process_seconds(command, env)
            )
        serve_best = min(
            serve_best, _serve_boot_seconds(env, tmp_dir / "cli-serve")
        )
    points = [
        {
            "dataset": DATASET,
            "scale": scale,
            "minsup": minsup,
            "seconds": round(mine_best[scale, minsup], 4),
            "irgs_sha256": hashlib.sha256(
                (tmp_dir / f"cli-{scale}.irgs").read_bytes()
            ).hexdigest(),
        }
        for scale, minsup in CLI_MINES
    ]
    return {
        "rounds": rounds,
        "cpus": len(os.sched_getaffinity(0)),
        "import_seconds": round(import_best, 4),
        "serve_boot_seconds": round(serve_best, 4),
        "points": points,
    }


def _print_cli_row(payload: dict) -> None:
    print(
        f"cli import repro.cli={payload['import_seconds']:.3f}s  "
        f"serve boot={payload['serve_boot_seconds']:.3f}s  (no floor)"
    )
    for point in payload["points"]:
        print(
            f"cli mine {point['dataset']} scale={point['scale']:<5} "
            f"minsup={point['minsup']:>2}  process={point['seconds']:.3f}s  "
            "(no floor)"
        )


def _time_budgets(table, minsup: int, rounds: int, times: dict) -> dict:
    """Time every :data:`BUDGETS` variant at one point, appending each
    round's seconds to ``times``; returns the last result of each.

    Every round mines each variant once, back to back, the order
    rotating by one each round so that no variant always runs first,
    and rounds repeat past ``rounds`` until the unbudgeted mine has
    spent ``MIN_POINT_SECONDS``.
    """
    names = list(BUDGETS)
    results = {}
    spent = 0.0
    done = 0
    while done < rounds or spent < MIN_POINT_SECONDS:
        shift = done % len(names)
        for name in names[shift:] + names[:shift]:
            gc.collect()
            start = time.perf_counter()
            results[name] = _mine_prebuilt(table, minsup, budget=BUDGETS[name]())
            seconds = time.perf_counter() - start
            times[name].append(seconds)
            if name == "unbudgeted":
                spent += seconds
        done += 1
    return results


def _budget_ratios(times: dict) -> dict:
    """Each budgeted variant's median over rounds of its seconds over
    the unbudgeted mine's in the same round."""
    base = times["unbudgeted"]
    return {
        name: statistics.median(
            seconds / plain for seconds, plain in zip(times[name], base)
        )
        for name in BUDGETS
        if name != "unbudgeted"
    }


def run_budget_row(rounds: int, tmp_dir: Path) -> dict:
    """Budgeted against unbudgeted mines of the pinned sweep.

    Each point is timed by :func:`_time_budgets`.  A budget's ratio at a
    point is the median over rounds of its mine's time over the
    unbudgeted mine's in the same round, so a burst of load on a shared
    host moves both sides of a ratio.  A point where a ratio reads above
    ``BUDGET_MAX_RATIO`` is timed again, up to ``BUDGET_RETRIES`` times,
    pooling its rounds.  The sweep's ratio is the median of its points'.
    The variants must agree on each point's nodes and ``.irgs`` sha;
    each point also records every variant's best round.
    """
    table = _sweep_table(SCALE)
    totals = dict.fromkeys(BUDGETS, 0.0)
    ratios = {name: [] for name in BUDGETS if name != "unbudgeted"}
    points = []
    for minsup in MINSUP_SWEEP:
        times = {name: [] for name in BUDGETS}
        results = _time_budgets(table, minsup, rounds, times)
        for _ in range(BUDGET_RETRIES):
            if max(_budget_ratios(times).values()) <= BUDGET_MAX_RATIO:
                break
            _time_budgets(table, minsup, rounds, times)
        pins = {
            (result.counters.nodes, _irgs_sha256(result, tmp_dir, f"budget-{name}"))
            for name, result in results.items()
        }
        if len(pins) != 1:
            raise SystemExit(
                f"FATAL: budgeted mines diverge at minsup={minsup}: {pins}"
            )
        ((nodes, sha),) = pins
        point = {"minsup": minsup, "nodes": nodes, "irgs_sha256": sha}
        for name in BUDGETS:
            point[f"{name}_seconds"] = round(min(times[name]), 5)
            totals[name] += min(times[name])
        for name, ratio in _budget_ratios(times).items():
            point[f"{name}_ratio"] = round(ratio, 3)
            ratios[name].append(ratio)
        points.append(point)
    payload = {
        "dataset": DATASET,
        "scale": SCALE,
        "rounds": rounds,
        "budget_seconds": BUDGET_SECONDS,
        "max_ratio": BUDGET_MAX_RATIO,
        "points": points,
    }
    for name in BUDGETS:
        payload[f"{name}_seconds"] = round(totals[name], 5)
    for name, values in ratios.items():
        payload[f"{name}_ratio"] = round(statistics.median(values), 3)
    return payload


def check_budget(payload: dict, baseline: dict) -> list[str]:
    """Failures of a fresh budget row: a pin that drifted from the
    committed one, or a budgeted sweep whose median ratio to the
    unbudgeted mines is above ``max_ratio``."""
    failures = []
    fresh = {p["minsup"]: p for p in payload["points"]}
    for pinned in baseline["points"]:
        point = fresh.get(pinned["minsup"])
        if point is None:
            failures.append(f"budget: minsup={pinned['minsup']}: missing")
            continue
        for pin in ("nodes", "irgs_sha256"):
            if point[pin] != pinned[pin]:
                failures.append(
                    f"budget: minsup={pinned['minsup']}: {pin} drifted "
                    f"({point[pin]!r} != pinned {pinned[pin]!r})"
                )
    for name in BUDGETS:
        if name == "unbudgeted":
            continue
        ratio = payload[f"{name}_ratio"]
        if ratio > baseline["max_ratio"]:
            failures.append(
                f"budget: the {name} budget's mines took a median {ratio}x "
                f"the unbudgeted ones (above {baseline['max_ratio']}x; best "
                f"sweeps {payload[f'{name}_seconds']}s against "
                f"{payload['unbudgeted_seconds']}s)"
            )
    return failures


#: Each measure-only row's point key and exact pin.
_ROW_PINS = {
    "prep": ("scale", "table_sha256"),
    "output": ("dataset", "irgs_sha256"),
    "cli": ("scale", "irgs_sha256"),
}


def check_pins(section: str, payload: dict, baseline: dict) -> list[str]:
    """Pin failures of a measure-only row: each point's hash is exact."""
    key, pin = _ROW_PINS[section]
    fresh = {p[key]: p for p in payload["points"]}
    failures = []
    for pinned in baseline["points"]:
        point = fresh.get(pinned[key])
        where = f"{section}: {key}={pinned[key]}"
        if point is None:
            failures.append(f"{where}: missing")
        elif point[pin] != pinned[pin]:
            failures.append(
                f"{where}: {pin} drifted ({point[pin]!r} != pinned "
                f"{pinned[pin]!r})"
            )
    return failures


def run_steal_sweep(rounds: int, tmp_dir: Path) -> dict:
    """The static-vs-stealing tail-latency point (see module docstring).

    Byte-identity against the serial run is fatal for both schedulers
    on every round; the recorded tails are best-of-``rounds``.
    """
    workload = build_workload(DATASET, scale=SCALE)
    serial = _mine(workload, STEAL_MINSUP)
    serial_sha = _irgs_sha256(serial, tmp_dir, "steal-serial")
    static_tail = float("inf")
    steal_tail = float("inf")
    stealing = None
    for attempt in range(rounds):
        static = _mine(workload, STEAL_MINSUP, n_workers=STEAL_WORKERS)
        if _irgs_sha256(static, tmp_dir, f"steal-static-{attempt}") != (
            serial_sha
        ):
            raise SystemExit(
                f"FATAL: static (n_workers={STEAL_WORKERS}) output "
                f"diverges from serial at minsup={STEAL_MINSUP}"
            )
        static_tail = min(static_tail, max(static.parallel.task_seconds))
        stealing = _mine(
            workload,
            STEAL_MINSUP,
            n_workers=STEAL_WORKERS,
            steal=True,
            steal_quantum=STEAL_QUANTUM,
        )
        if _irgs_sha256(stealing, tmp_dir, f"steal-steal-{attempt}") != (
            serial_sha
        ):
            raise SystemExit(
                f"FATAL: stealing (n_workers={STEAL_WORKERS}) output "
                f"diverges from serial at minsup={STEAL_MINSUP}"
            )
        steal_tail = min(steal_tail, max(stealing.parallel.task_seconds))
    if not stealing.parallel.donations:
        raise SystemExit(
            f"FATAL: no donations at quantum={STEAL_QUANTUM} — the "
            "tail-latency comparison would measure nothing"
        )
    return {
        "minsup": STEAL_MINSUP,
        "workers": STEAL_WORKERS,
        "quantum": STEAL_QUANTUM,
        "rounds": rounds,
        "nodes": serial.counters.nodes,
        "groups": len(serial.groups),
        "irgs_sha256": serial_sha,
        "donations": stealing.parallel.donations,
        "parts": stealing.parallel.parts,
        "static_tail_seconds": round(static_tail, 4),
        "steal_tail_seconds": round(steal_tail, 4),
        "tail_improvement": round(static_tail / steal_tail, 3),
        "min_tail_improvement": STEAL_MIN_TAIL_IMPROVEMENT,
    }


def run_remine_sweep(rounds: int, tmp_dir: Path) -> dict:
    """The warm re-mining sweep (see module docstring).

    Captures the frontier at ``REMINE_BASE_MINSUP`` (best of ``rounds``
    captures into fresh directories), answers every
    ``REMINE_TIGHTEN_SWEEP`` point warm (zero enumeration, byte-identity
    fatal, serial and with workers), then times the loosening capture
    below the base the same way.
    """
    import shutil

    table = _sweep_table(SCALE, REMINE_DATASET)

    def warm_mine(minsup: int, cache: Path, n_workers=None):
        miner = Farmer(
            constraints=Constraints(minsup=minsup),
            warm_cache=str(cache),
            n_workers=n_workers,
        )
        return miner.mine_table(table)

    def best_capture(minsup: int, tag: str, seed: "Path | None" = None):
        """Best-of-``rounds`` seconds of a warm capture, each into a
        fresh copy of ``seed`` (or an empty cache), and of a cold mine
        at the same minsup, the two alternating so that drift in the
        host's speed hits both alike.  Returns ``(capture_seconds,
        cold_seconds, capture_result, cold_result, last_cache)``."""
        capture_s = cold_s = float("inf")
        captured = cold = cache = None
        for round_index in range(rounds):
            begin = time.perf_counter()
            cold = _mine_prebuilt(table, minsup)
            cold_s = min(cold_s, time.perf_counter() - begin)
            cache = tmp_dir / f"remine-{tag}-{round_index}"
            if seed is not None:
                shutil.copytree(seed, cache)
            begin = time.perf_counter()
            captured = warm_mine(minsup, cache)
            capture_s = min(capture_s, time.perf_counter() - begin)
        return capture_s, cold_s, captured, cold, cache

    capture_s, base_cold_s, _captured, _cold, pristine = best_capture(
        REMINE_BASE_MINSUP, "capture"
    )

    # Steady-state timing: the first warm query against an entry pays
    # the one-time decode; prime it out of the loop.
    warm_mine(REMINE_TIGHTEN_SWEEP[0], pristine)

    points = []
    cold_total = 0.0
    warm_total = 0.0
    for minsup in REMINE_TIGHTEN_SWEEP:
        cold_s, cold = _best_of_prebuilt(table, minsup, rounds)
        warm_s = float("inf")
        warm = None
        for _ in range(rounds):
            begin = time.perf_counter()
            warm = warm_mine(minsup, pristine)
            warm_s = min(warm_s, time.perf_counter() - begin)
        if warm.counters.nodes:
            raise SystemExit(
                f"FATAL: warm tighten at minsup={minsup} expanded "
                f"{warm.counters.nodes} nodes — the filter path must "
                "not enumerate"
            )
        cold_sha = _irgs_sha256(cold, tmp_dir, f"remine-cold-{minsup}")
        warm_sha = _irgs_sha256(warm, tmp_dir, f"remine-warm-{minsup}")
        if warm_sha != cold_sha:
            raise SystemExit(
                f"FATAL: warm tighten diverges from cold at "
                f"minsup={minsup}: {warm_sha[:12]} != {cold_sha[:12]}"
            )
        sharded = warm_mine(minsup, pristine, n_workers=2)
        if _irgs_sha256(sharded, tmp_dir, f"remine-wsh-{minsup}") != cold_sha:
            raise SystemExit(
                f"FATAL: warm tighten with workers diverges from cold at "
                f"minsup={minsup}"
            )
        cold_total += cold_s
        warm_total += warm_s
        points.append(
            {
                "minsup": minsup,
                "groups": len(warm.groups),
                "irgs_sha256": warm_sha,
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 6),
                "speedup": round(cold_s / warm_s, 3),
            }
        )

    loosen_s, cold_s, loosened, cold, _cache = best_capture(
        REMINE_LOOSEN_MINSUP, "loosen", seed=pristine
    )
    cold_sha = _irgs_sha256(cold, tmp_dir, "remine-loosen-cold")
    if _irgs_sha256(loosened, tmp_dir, "remine-loosen-warm") != cold_sha:
        raise SystemExit(
            "FATAL: loosening capture diverges from cold at "
            f"minsup={REMINE_LOOSEN_MINSUP}"
        )
    sharded_cache = tmp_dir / "remine-loosen-sharded"
    shutil.copytree(pristine, sharded_cache)
    sharded = warm_mine(REMINE_LOOSEN_MINSUP, sharded_cache, n_workers=2)
    if _irgs_sha256(sharded, tmp_dir, "remine-loosen-wsh") != cold_sha:
        raise SystemExit(
            "FATAL: loosening capture with workers diverges from cold at "
            f"minsup={REMINE_LOOSEN_MINSUP}"
        )

    return {
        "dataset": REMINE_DATASET,
        "scale": SCALE,
        "rounds": rounds,
        "base_minsup": REMINE_BASE_MINSUP,
        "capture_seconds": round(capture_s, 4),
        "capture_cold_seconds": round(base_cold_s, 4),
        "max_capture_ratio": REMINE_MAX_CAPTURE_RATIO,
        "min_speedup": REMINE_MIN_SPEEDUP,
        "speedup_floor": REMINE_SPEEDUP_FLOOR,
        "aggregate_speedup": round(cold_total / warm_total, 3),
        "points": points,
        "loosen": {
            "minsup": REMINE_LOOSEN_MINSUP,
            "groups": len(loosened.groups),
            "irgs_sha256": cold_sha,
            "cold_nodes": cold.counters.nodes,
            "loosen_nodes": loosened.counters.nodes,
            "cold_seconds": round(cold_s, 4),
            "loosen_seconds": round(loosen_s, 4),
        },
    }


def _capture_failures(payload: dict, ratio: float) -> list[str]:
    """The remine wall-time failures: a capture (the base one or the
    loosening) slower than ``ratio`` times its cold mine."""
    loosen = payload["loosen"]
    failures = []
    for what, warm_s, cold_s in (
        ("capture", payload["capture_seconds"], payload["capture_cold_seconds"]),
        ("loosen", loosen["loosen_seconds"], loosen["cold_seconds"]),
    ):
        if warm_s > ratio * cold_s:
            failures.append(
                f"remine: {what} took {warm_s}s, more than {ratio}x the "
                f"{cold_s}s cold mine"
            )
    return failures


def check_remine(payload: dict, baseline: dict) -> list[str]:
    """Failures of a fresh remine sweep against the committed section."""
    failures = []
    fresh = {p["minsup"]: p for p in payload["points"]}
    for pinned in baseline["points"]:
        point = fresh.get(pinned["minsup"])
        if point is None:
            failures.append(
                f"remine: minsup={pinned['minsup']}: missing from sweep"
            )
            continue
        for pin in ("groups", "irgs_sha256"):
            if point[pin] != pinned[pin]:
                failures.append(
                    f"remine: minsup={pinned['minsup']}: {pin} drifted "
                    f"({point[pin]!r} != pinned {pinned[pin]!r})"
                )
    loosen = payload["loosen"]
    for pin in ("groups", "irgs_sha256", "cold_nodes"):
        if loosen[pin] != baseline["loosen"][pin]:
            failures.append(
                f"remine: loosen: {pin} drifted "
                f"({loosen[pin]!r} != pinned {baseline['loosen'][pin]!r})"
            )
    if loosen["loosen_nodes"] != loosen["cold_nodes"]:
        failures.append(
            f"remine: loosen: expanded {loosen['loosen_nodes']} nodes, "
            f"not the cold mine's {loosen['cold_nodes']}"
        )
    failures.extend(
        _capture_failures(payload, baseline["max_capture_ratio"])
    )
    floor = baseline["speedup_floor"]
    if payload["aggregate_speedup"] < floor:
        failures.append(
            f"remine: warm aggregate speedup "
            f"{payload['aggregate_speedup']}x is below the {floor}x floor"
        )
    return failures


def _diff_line(section: str, label: str, metric: str, old, new) -> str:
    """One delta-table row; percentages for numbers, != for pins."""
    where = f"{section}.{label}" if label else section
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if old == new:
            delta = "unchanged"
        elif old:
            delta = f"{(new - old) / old:+.1%}"
        else:
            delta = "new"
        return f"  {where:<28} {metric:<24} {old!r:>12} -> {new!r:<12} {delta}"
    flag = "SAME" if old == new else "DIFFERENT"
    return f"  {where:<28} {metric:<24} {flag}"


def _diff_points(
    section: str, fresh: dict, committed: dict, key: str = "minsup"
) -> list[str]:
    """Delta rows for one section's point list (keyed by ``key``) + scalars."""
    lines = []
    scalars = sorted(
        name
        for name, value in committed.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    for name in scalars:
        if name in fresh:
            lines.append(
                _diff_line(section, "", name, committed[name], fresh[name])
            )
    fresh_points = {p[key]: p for p in fresh.get("points", [])}
    for pinned in committed.get("points", []):
        point = fresh_points.get(pinned[key])
        if point is None:
            lines.append(
                f"  {section}.{key}={pinned[key]}: missing from fresh sweep"
            )
            continue
        label = f"{key}={pinned[key]}"
        for metric in sorted(pinned):
            if metric == key or metric not in point:
                continue
            lines.append(
                _diff_line(section, label, metric, pinned[metric], point[metric])
            )
        for metric in sorted(point.keys() - pinned.keys()):
            lines.append(
                f"  {f'{section}.{label}':<28} {metric:<24} "
                f"{'-':>12} -> {point[metric]!r:<12} new"
            )
    return lines


def _with_renamed_layers(fresh: dict, committed: dict) -> dict:
    """A fresh prep row that also carries each layer the committed row
    names under an old name (:data:`PREP_RENAMED`), as the sum of the
    layers that replaced it, so ``--diff`` compares like with like."""
    renamed = {
        f"{old}_seconds": [f"{layer}_seconds" for layer in layers]
        for old, layers in PREP_RENAMED.items()
        if any(f"{old}_seconds" in point for point in committed["points"])
    }
    points = [
        {
            **point,
            **{
                old: round(sum(point[layer] for layer in layers), 4)
                for old, layers in renamed.items()
            },
        }
        for point in fresh["points"]
    ]
    return {**fresh, "points": points}


def diff_report(sections: dict, baseline: dict) -> str:
    """The per-section delta table: committed baseline vs fresh run.

    Args:
        sections: fresh payloads keyed by section name (``core``,
            ``numpy``, ``bc``, ``steal``, ``remine``, ``sharding``,
            ``prep``, ``output``, ``budget``, ``cli``).
        baseline: the committed ``BENCH_core.json`` payload.

    Returns:
        A printable table, one row per metric, with relative deltas for
        measurements and SAME/DIFFERENT verdicts for pins.
    """
    lines = ["perf delta vs committed baseline (old -> new):"]
    for name, fresh in sections.items():
        committed = baseline if name == "core" else baseline.get(name)
        if committed is None:
            lines.append(f"  {name}: not in committed baseline")
            continue
        if "points" not in committed:
            for key in sorted(committed):
                if key in fresh:
                    lines.append(
                        _diff_line(name, "", key, committed[key], fresh[key])
                    )
            continue
        key = _ROW_PINS[name][0] if name in _ROW_PINS else "minsup"
        if name == "prep":
            fresh = _with_renamed_layers(fresh, committed)
        lines.extend(_diff_points(name, fresh, committed, key))
        extra = fresh.get("loosen")
        pinned_extra = committed.get("loosen")
        if extra and pinned_extra:
            for key in sorted(pinned_extra):
                if key in extra:
                    lines.append(
                        _diff_line(
                            name, "loosen", key, pinned_extra[key], extra[key]
                        )
                    )
    return "\n".join(lines)


def check_steal(payload: dict, baseline: dict) -> list[str]:
    """Failures of a fresh steal point against the committed section."""
    failures = []
    for pin in ("nodes", "groups", "irgs_sha256"):
        if payload[pin] != baseline[pin]:
            failures.append(
                f"steal: {pin} drifted "
                f"({payload[pin]!r} != pinned {baseline[pin]!r})"
            )
    floor = baseline["min_tail_improvement"]
    if payload["tail_improvement"] < floor:
        failures.append(
            f"steal: tail improvement {payload['tail_improvement']}x is "
            f"below the {floor}x floor (static tail "
            f"{payload['static_tail_seconds']}s vs steal tail "
            f"{payload['steal_tail_seconds']}s)"
        )
    return failures


def check(payload: dict, baseline: dict, label: str = "") -> list[str]:
    """Failures of ``payload`` (fresh run) against ``baseline`` (committed)."""
    prefix = f"{label}: " if label else ""
    failures = []
    fresh = {p["minsup"]: p for p in payload["points"]}
    for pinned in baseline["points"]:
        point = fresh.get(pinned["minsup"])
        if point is None:
            failures.append(
                f"{prefix}minsup={pinned['minsup']}: missing from sweep"
            )
            continue
        for pin in ("nodes", "groups", "irgs_sha256"):
            if point[pin] != pinned[pin]:
                failures.append(
                    f"{prefix}minsup={pinned['minsup']}: {pin} drifted "
                    f"({point[pin]!r} != pinned {pinned[pin]!r})"
                )
    if "min_speedup" in baseline:
        floor = baseline["min_speedup"] * baseline["tolerance"]
        if payload["aggregate_speedup"] < floor:
            failures.append(
                f"{prefix}aggregate speedup {payload['aggregate_speedup']}x "
                f"is below the gate floor {floor}x "
                f"(min_speedup {baseline['min_speedup']} x tolerance "
                f"{baseline['tolerance']})"
            )
    return failures


def check_sharding(payload: dict, baseline: dict, sweep: dict) -> list[str]:
    """Pin failures of the sharding row: its output must hash to the
    wide sweep's pin at the same minsup; its times have no floor."""
    pinned = next(
        p for p in sweep["points"] if p["minsup"] == payload["minsup"]
    )
    failures = []
    for pin in ("nodes", "irgs_sha256"):
        for what, expected in (("sweep", pinned), ("baseline", baseline)):
            if payload[pin] != expected[pin]:
                failures.append(
                    f"sharding: {pin} differs from the {what} pin "
                    f"({payload[pin]!r} != {expected[pin]!r})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh sweep against the committed baseline "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print a per-section delta table (fresh run vs the "
        "committed baseline); composes with --check",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="best-of-N rounds per variant per sweep point (default: 5)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"baseline JSON path (default: {BASELINE_PATH.name})",
    )
    args = parser.parse_args(argv)

    import tempfile

    # Each section's wall-clock seconds, set-up and every round
    # included; printed, never stored in the baseline.
    wall: dict[str, float] = {}

    def section(name: str, run, *run_args, **run_kwargs):
        started = time.perf_counter()
        result = run(*run_args, **run_kwargs)
        wall[name] = time.perf_counter() - started
        return result

    # Prep runs first, on a small heap, as a cold ``farmer mine`` does.
    prep_payload = section("prep", run_prep_row, args.rounds)
    with tempfile.TemporaryDirectory() as tmp:
        payload = section(
            "core", run_engine_sweep, SCALE, args.rounds, Path(tmp),
            reference=True,
        )
        numpy_payload = section(
            "numpy", run_engine_sweep, NUMPY_SCALE, args.rounds, Path(tmp)
        )
        bc_payload = section(
            "bc",
            run_engine_sweep,
            NUMPY_SCALE,
            args.rounds,
            Path(tmp),
            dataset=BC_DATASET,
            sweep=BC_SWEEP,
            sharded_minsup=BC_SHARDED_MINSUP,
        )
        steal_payload = section("steal", run_steal_sweep, args.rounds, Path(tmp))
        remine_payload = section(
            "remine", run_remine_sweep, args.rounds, Path(tmp)
        )
        sharding_payload = section(
            "sharding", run_sharding_row, args.rounds, Path(tmp)
        )
        output_payload = section("output", run_output_row, Path(tmp))
        budget_payload = section(
            "budget", run_budget_row, args.rounds, Path(tmp)
        )
        cli_payload = section("cli", run_cli_row, args.rounds, Path(tmp))

    sweeps = (
        ("", payload),
        ("numpy ", numpy_payload),
        ("bc ", bc_payload),
    )
    for label, sweep in sweeps:
        variants = [
            name
            for name in ("production", "reference")
            if f"{name}_seconds" in sweep
        ]
        for point in sweep["points"]:
            times = "  ".join(
                f"{name}={point[f'{name}_seconds']:.3f}s" for name in variants
            )
            print(
                f"{label}minsup={point['minsup']:>3}  "
                f"nodes={point['nodes']:>7}  groups={point['groups']:>5}  "
                f"{times}"
            )
        print(
            f"{label}totals: "
            + "  ".join(
                f"{name}={sweep[f'{name}_seconds']:.3f}s" for name in variants
            )
        )
    print(f"aggregate reference speedup: {payload['aggregate_speedup']:.2f}x")
    print(
        f"steal minsup={steal_payload['minsup']:>3}  "
        f"workers={steal_payload['workers']}  "
        f"quantum={steal_payload['quantum']}  "
        f"donations={steal_payload['donations']:>3}  "
        f"static tail={steal_payload['static_tail_seconds']:.4f}s  "
        f"steal tail={steal_payload['steal_tail_seconds']:.4f}s  "
        f"improvement={steal_payload['tail_improvement']:.2f}x"
    )
    for point in remine_payload["points"]:
        print(
            f"remine minsup={point['minsup']:>3}  "
            f"groups={point['groups']:>3}  "
            f"cold={point['cold_seconds']:.4f}s  "
            f"warm={point['warm_seconds'] * 1000:.2f}ms  "
            f"speedup={point['speedup']:.0f}x"
        )
    print(
        f"remine capture minsup={remine_payload['base_minsup']:>3}  "
        f"cold={remine_payload['capture_cold_seconds']:.4f}s  "
        f"capture={remine_payload['capture_seconds']:.4f}s"
    )
    loosen = remine_payload["loosen"]
    print(
        f"remine loosen minsup={loosen['minsup']:>3}  "
        f"nodes={loosen['loosen_nodes']} "
        f"(cold {loosen['cold_nodes']})  "
        f"cold={loosen['cold_seconds']:.4f}s  "
        f"loosen={loosen['loosen_seconds']:.4f}s"
    )
    print(
        f"remine aggregate warm speedup: "
        f"{remine_payload['aggregate_speedup']:.1f}x"
    )
    print(
        f"sharding minsup={sharding_payload['minsup']:>3}  "
        f"cpus={sharding_payload['cpus']}  "
        f"serial={sharding_payload['serial_seconds']:.3f}s  "
        f"static={sharding_payload['static_seconds']:.3f}s  "
        f"steal={sharding_payload['steal_seconds']:.3f}s  "
        f"(workers={sharding_payload['workers']}, no floor)"
    )
    for point in prep_payload["points"]:
        layers = "  ".join(
            f"{layer}={point[f'{layer}_seconds'] * 1000:.1f}ms"
            for layer in PREP_LAYERS
        )
        print(
            f"prep scale={point['scale']:<5} items={point['items']:>7}  "
            f"{layers}  (no floor)"
        )
    for point in output_payload["points"]:
        print(
            f"output {point['dataset']:<3} minsup={point['minsup']:>2}  "
            f"groups={point['groups']:>5}  "
            f"build={point['build_us_per_group']:.2f}us/group  "
            f"save={point['save_us_per_group']:.2f}us/group  (no floor)"
        )
    print(
        "budget totals: "
        + "  ".join(
            f"{name}={budget_payload[f'{name}_seconds']:.4f}s"
            for name in BUDGETS
        )
        + f"  time/unbudgeted={budget_payload['time_ratio']:.3f}"
        + f"  cancellable/unbudgeted={budget_payload['cancellable_ratio']:.3f}"
    )
    _print_cli_row(cli_payload)
    print(
        "section wall times: "
        + "  ".join(f"{name}={seconds:.1f}s" for name, seconds in wall.items())
        + f"  (total {sum(wall.values()):.1f}s, slowest "
        + max(wall, key=wall.get)
        + ")"
    )

    if args.diff and args.baseline.exists():
        committed = json.loads(args.baseline.read_text(encoding="utf-8"))
        print()
        print(
            diff_report(
                {
                    "core": payload,
                    "numpy": numpy_payload,
                    "bc": bc_payload,
                    "steal": steal_payload,
                    "remine": remine_payload,
                    "sharding": sharding_payload,
                    "prep": prep_payload,
                    "output": output_payload,
                    "budget": budget_payload,
                    "cli": cli_payload,
                },
                committed,
            )
        )
        if not args.check:
            return 0

    if not args.check:
        if payload["aggregate_speedup"] < MIN_SPEEDUP:
            print(
                f"REFUSING to commit a baseline below {MIN_SPEEDUP}x "
                "aggregate speedup — run on a quieter machine or fix the "
                "engine first",
                file=sys.stderr,
            )
            return 1
        if steal_payload["tail_improvement"] < STEAL_MIN_TAIL_IMPROVEMENT:
            print(
                f"REFUSING to commit a steal baseline below "
                f"{STEAL_MIN_TAIL_IMPROVEMENT}x tail improvement — run on "
                "a quieter machine or fix the stealing scheduler first",
                file=sys.stderr,
            )
            return 1
        if remine_payload["aggregate_speedup"] < REMINE_MIN_SPEEDUP:
            print(
                f"REFUSING to commit a remine baseline below "
                f"{REMINE_MIN_SPEEDUP}x warm speedup — run on a quieter "
                "machine or fix the frontier cache first",
                file=sys.stderr,
            )
            return 1
        slow_captures = _capture_failures(
            remine_payload, REMINE_MAX_CAPTURE_RATIO
        )
        if slow_captures:
            print(
                "REFUSING to commit a remine baseline: "
                + "; ".join(slow_captures),
                file=sys.stderr,
            )
            return 1
        slow_budgets = check_budget(budget_payload, budget_payload)
        if slow_budgets:
            print(
                "REFUSING to commit a budget baseline: "
                + "; ".join(slow_budgets),
                file=sys.stderr,
            )
            return 1
        # The baseline file is shared with bench_obs_overhead.py, which
        # records the telemetry overhead under "obs_overhead"; refreshing
        # the engine pins must not drop it.
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text(encoding="utf-8"))
            if "obs_overhead" in previous:
                payload["obs_overhead"] = previous["obs_overhead"]
        payload["numpy"] = numpy_payload
        payload["bc"] = bc_payload
        payload["steal"] = steal_payload
        payload["remine"] = remine_payload
        payload["sharding"] = sharding_payload
        payload["prep"] = prep_payload
        payload["output"] = output_payload
        payload["budget"] = budget_payload
        payload["cli"] = cli_payload
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures = check(payload, baseline)
    failures.extend(check(numpy_payload, baseline["numpy"], "numpy"))
    failures.extend(check(bc_payload, baseline["bc"], "bc"))
    failures.extend(
        check_sharding(sharding_payload, baseline["sharding"], numpy_payload)
    )
    if "steal" in baseline:
        failures.extend(check_steal(steal_payload, baseline["steal"]))
    if "remine" in baseline:
        failures.extend(check_remine(remine_payload, baseline["remine"]))
    if "prep" in baseline:
        failures.extend(check_pins("prep", prep_payload, baseline["prep"]))
    if "output" in baseline:
        failures.extend(
            check_pins("output", output_payload, baseline["output"])
        )
    if "budget" in baseline:
        failures.extend(check_budget(budget_payload, baseline["budget"]))
    if "cli" in baseline:
        failures.extend(check_pins("cli", cli_payload, baseline["cli"]))
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} problems):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed: pins exact, speeds above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
