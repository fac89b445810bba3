"""Committed perf baseline + CI regression gate for the enumeration engine.

Runs two pinned Figure-10-style LC minsup sweeps on prebuilt tables and
records, per sweep point:

* **determinism pins** — node count, group count and the sha256 of the
  serialized ``.irgs`` output.  These are hardware-independent and are
  compared *exactly* in ``--check`` mode: any drift means the engine
  changed mined output, which is a bug regardless of speed.  One sweep
  point per sweep is additionally re-mined sharded (``n_workers=2``)
  and must hash identically to the serial run.
* **speed** — best-of-N wall time of the production engine and of the
  same engine with its hand-off cutoff
  (:data:`repro.core.npbitset.HANDOFF_ITEMS`) forced to either end:
  every table as int masks (``int``) and every table packed
  (``packed``).  The three run in alternating order every round, so
  drift in the host's speed hits them alike.  The production engine
  must stay within ``HANDOFF_MAX_RATIO`` of the faster forced side at
  every point, and each sweep's production total must not exceed the
  smaller forced total — the hand-off must beat both representations it
  chooses between.  Both are checked on refresh and in ``--check``.

The first sweep (the top level of the baseline, LC at ``SCALE``) also
times the pre-kernel ``reference`` oracle and gates the aggregate
reference/production speedup at ``min_speedup * tolerance``.  The
second (``"numpy"``, LC at ``NUMPY_SCALE``) is the wide sweep, where
packed words carry the search.

A third section, ``"steal"``, pins the work-stealing scheduler's
tail-latency claim on a skewed point below the sweep: the same LC
workload at ``STEAL_MINSUP`` mined at 4 workers under the static and
the stealing scheduler.  Byte-identity with the serial run is fatal for
both schedulers, and the tail latency — the longest single dispatch,
``max(ParallelReport.task_seconds)`` — must improve by at least
``STEAL_MIN_TAIL_IMPROVEMENT`` under stealing, because donations bound
every part by the quantum while the static scheduler waits for its
largest shard.  Tail latency is wall-clock *per dispatch*, not
aggregate throughput, so it is meaningful even on single-core CI.

A fourth section, ``"remine"``, gates the warm re-mining path
(``core/frontier.py``) on the same Fig-10 sweep: one frontier capture
at the loosest sweep point, then every tighter point answered **warm**.
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

A fifth section, ``"sharding"``, is measure-only: serial against
``n_workers=2``, static and stealing, best-of-N at the wide sweep's
``SHARDING_MINSUP``, with the CPU count this process may run on.  Each
sharded run starts its own worker pool, so every timed sharded mine
includes its pool start.  Its output must hash to the wide sweep's pin
at that minsup; its times have no floor (they record whether sharding
beats serial at all).

A sixth section, ``"prep"``, is measure-only too: best-of-N registry
load, equal-depth discretize (``fit`` + ``transform``), transpose and
the production engine's root-table build for LC at ``PREP_SCALES`` —
the two sweep scales and the paper's full width (12,533 genes, 125,330
items).  Each point pins :func:`repro.testing.prep.prep_sha256` of its
discretized, transposed table, which ``--check`` compares exactly; its
times have no floor.

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
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core import npbitset
from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.core.serialize import save_rule_groups
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.registry import PAPER_DATASETS, load
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import build_workload
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
#: replication (25,070 items), where the item dimension is wide enough
#: for packed words to carry the search.  Both sweeps time
#: ``Farmer.mine_table`` on a table built once per sweep: the
#: dataset→table transpose is shared preprocessing, and folding its
#: constant into each point only dilutes the ratios being gated.
NUMPY_SCALE = 0.2

#: The forced hand-off cutoffs each sweep times beside production.
FORCED_CUTOFFS = {"int": 1 << 62, "packed": 0}
#: The production engine's largest allowed ratio to the faster forced
#: side at any one point (checked on refresh and in ``--check``).
HANDOFF_MAX_RATIO = 1.15
#: Production time a sweep point accumulates before its best-of-N
#: settles (see :func:`_time_point`).
MIN_POINT_SECONDS = 1.0
#: Extra timings of a point that reads above ``HANDOFF_MAX_RATIO``: on a
#: shared machine a burst of load can outlast a point's rounds, while a
#: real regression reads high every time.
HANDOFF_RETRIES = 2

#: The serial-vs-sharded row: the wide sweep's hardest point, the
#: ledger's largest, at two workers.
SHARDING_MINSUP = 9
SHARDING_WORKERS = 2

#: The work-stealing tail-latency point: LC below the sweep's hardest
#: minsup, at 4 workers.  Its largest shard (17,413 of 160,999 nodes)
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

#: The warm re-mining section: capture once at the loosest Fig-10 sweep
#: point, answer every tighter point from the frontier cache.  The
#: speedup is steady-state (the one-time entry decode is primed out of
#: the timing; an interactive session pays it once), committed at
#: ``REMINE_MIN_SPEEDUP`` and gated at ``REMINE_SPEEDUP_FLOOR`` with no
#: extra tolerance.  The loosening re-mine below the base point is a
#: fresh capture; it and the base capture must each stay within
#: ``REMINE_MAX_CAPTURE_RATIO`` of a cold mine at the same minsup (the
#: entry write is the only work a capture adds).
REMINE_BASE_MINSUP = 9
REMINE_TIGHTEN_SWEEP = (10, 11, 12, 14)
REMINE_LOOSEN_MINSUP = 8
REMINE_MIN_SPEEDUP = 10.0
REMINE_SPEEDUP_FLOOR = 5.0
REMINE_MAX_CAPTURE_RATIO = 1.5

#: The prep row's scales: both sweeps' tables and the paper's width.
PREP_SCALES = (SCALE, NUMPY_SCALE, 1.0)
#: Timed prep layers, in pipeline order.
PREP_LAYERS = ("load", "discretize", "transpose", "root_table")

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"


def _irgs_sha256(result, tmp_dir: Path, tag: str) -> str:
    path = tmp_dir / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def _cutoff(items: int | None):
    """Force the hand-off cutoff inside the block (``None``: as shipped)."""
    saved = npbitset.HANDOFF_ITEMS
    if items is not None:
        npbitset.HANDOFF_ITEMS = items
    try:
        yield
    finally:
        npbitset.HANDOFF_ITEMS = saved


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


def _sweep_table(scale: float) -> TransposedTable:
    workload = build_workload(DATASET, scale=scale)
    return TransposedTable.build(workload.data, workload.consequent)


def _handoff_ratio(best: dict) -> float:
    """Production's best time over the faster forced side's."""
    return best["production"] / min(best[side] for side in FORCED_CUTOFFS)


def _time_point(table, minsup: int, variants: dict, rounds: int, best: dict):
    """Time every variant at one sweep point, lowering ``best`` in place.

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
        for name, (cutoff, engine) in variants.items():
            if engine == "reference" and done >= rounds:
                continue
            # Collect first, so no variant pays for another's garbage.
            gc.collect()
            with _cutoff(cutoff):
                start = time.perf_counter()
                results[name] = _mine_prebuilt(table, minsup, engine=engine)
                seconds = time.perf_counter() - start
            best[name] = min(best[name], seconds)
            if name == "production":
                spent += seconds
        done += 1
    return results


def run_engine_sweep(
    scale: float, rounds: int, tmp_dir: Path, reference: bool
) -> dict:
    """One LC minsup sweep: production against both forced sides (and
    the reference oracle when ``reference``), byte-identity fatal.

    Each point is timed by :func:`_time_point`; a point whose
    production time reads above ``HANDOFF_MAX_RATIO`` is timed again, up
    to ``HANDOFF_RETRIES`` times, every variant keeping its best round
    over all of them.
    """
    table = _sweep_table(scale)
    variants = {"production": (None, None)}
    variants.update(
        (side, (cutoff, None)) for side, cutoff in FORCED_CUTOFFS.items()
    )
    if reference:
        variants["reference"] = (None, "reference")
    points = []
    totals = dict.fromkeys(variants, 0.0)
    for minsup in MINSUP_SWEEP:
        best = dict.fromkeys(variants, float("inf"))
        results = _time_point(table, minsup, variants, rounds, best)
        for _ in range(HANDOFF_RETRIES):
            if _handoff_ratio(best) <= HANDOFF_MAX_RATIO:
                break
            _time_point(table, minsup, variants, rounds, best)
        production = results["production"]
        sha = _irgs_sha256(production, tmp_dir, f"{scale}-{minsup}")
        for name, result in results.items():
            if _irgs_sha256(result, tmp_dir, f"{scale}-{minsup}-{name}") != sha:
                raise SystemExit(
                    f"FATAL: {name} diverges from production at "
                    f"scale={scale} minsup={minsup}"
                )
            if result.counters.nodes != production.counters.nodes:
                raise SystemExit(
                    f"FATAL: {name} visited {result.counters.nodes} nodes, "
                    f"production {production.counters.nodes}, at "
                    f"scale={scale} minsup={minsup}"
                )
        for name in variants:
            totals[name] += best[name]
        hits = production.counters.cache_hits
        misses = production.counters.cache_misses
        point = {
            "minsup": minsup,
            "nodes": production.counters.nodes,
            "groups": len(production.groups),
            "irgs_sha256": sha,
            "cache_hit_rate": round(
                hits / (hits + misses) if hits + misses else 0.0, 4
            ),
            "production_nodes_per_second": round(
                production.counters.nodes / best["production"]
            ),
            "handoff_ratio": round(_handoff_ratio(best), 3),
        }
        for name in variants:
            point[f"{name}_seconds"] = round(best[name], 4)
        if reference:
            point["speedup"] = round(
                best["reference"] / best["production"], 3
            )
        points.append(point)

    sharded = _mine_prebuilt(table, SHARDED_MINSUP, n_workers=2)
    serial_sha = next(
        p["irgs_sha256"] for p in points if p["minsup"] == SHARDED_MINSUP
    )
    if _irgs_sha256(sharded, tmp_dir, f"{scale}-sharded") != serial_sha:
        raise SystemExit(
            f"FATAL: sharded (n_workers=2) output diverges from serial at "
            f"scale={scale} minsup={SHARDED_MINSUP}"
        )

    payload = {
        "dataset": DATASET,
        "scale": scale,
        "rounds": rounds,
        "handoff_items": npbitset.HANDOFF_ITEMS,
        "max_handoff_ratio": HANDOFF_MAX_RATIO,
        "sharded_minsup": SHARDED_MINSUP,
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
            data = discretizer.transform(matrix)
            stamps.append(time.perf_counter())
            table = TransposedTable.build(data, consequent)
            stamps.append(time.perf_counter())
            npbitset.root_table(table.item_masks, table.all_rows_mask)
            stamps.append(time.perf_counter())
            for layer, start, end in zip(PREP_LAYERS, stamps, stamps[1:]):
                best[layer] = min(best[layer], end - start)
        point = {"scale": scale, "items": data.n_items}
        for layer in PREP_LAYERS:
            point[f"{layer}_seconds"] = round(best[layer], 4)
        point["table_sha256"] = prep_sha256(discretizer, table)
        points.append(point)
    return {"dataset": DATASET, "rounds": rounds, "points": points}


def check_prep(payload: dict, baseline: dict) -> list[str]:
    """Pin failures of the prep row: each scale's table hash is exact."""
    fresh = {p["scale"]: p for p in payload["points"]}
    failures = []
    for pinned in baseline["points"]:
        point = fresh.get(pinned["scale"])
        if point is None:
            failures.append(f"prep: scale={pinned['scale']}: missing")
        elif point["table_sha256"] != pinned["table_sha256"]:
            failures.append(
                f"prep: scale={pinned['scale']}: table_sha256 drifted "
                f"({point['table_sha256']!r} != pinned "
                f"{pinned['table_sha256']!r})"
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

    table = _sweep_table(SCALE)

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
        "dataset": DATASET,
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
    return lines


def diff_report(sections: dict, baseline: dict) -> str:
    """The per-section delta table: committed baseline vs fresh run.

    Args:
        sections: fresh payloads keyed by section name (``core``,
            ``numpy``, ``steal``, ``remine``, ``sharding``, ``prep``).
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
        key = "scale" if name == "prep" else "minsup"
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


def handoff_failures(payload: dict, label: str = "") -> list[str]:
    """The hand-off speed failures of one fresh sweep: a point where
    production is slower than ``max_handoff_ratio`` times the faster
    forced side, or a production total above either forced total."""
    prefix = f"{label}: " if label else ""
    ratio = payload["max_handoff_ratio"]
    failures = [
        f"{prefix}minsup={point['minsup']}: production "
        f"{point['production_seconds']}s is {point['handoff_ratio']}x the "
        f"faster forced side (int {point['int_seconds']}s, packed "
        f"{point['packed_seconds']}s), above {ratio}x"
        for point in payload["points"]
        if point["handoff_ratio"] > ratio
    ]
    forced = min(payload[f"{side}_seconds"] for side in FORCED_CUTOFFS)
    if payload["production_seconds"] > forced:
        failures.append(
            f"{prefix}production total {payload['production_seconds']}s "
            f"exceeds the smaller forced total {forced}s"
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
    failures.extend(handoff_failures(payload, label))
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

    # Prep runs first, on a small heap, as a cold ``farmer mine`` does.
    prep_payload = run_prep_row(args.rounds)
    with tempfile.TemporaryDirectory() as tmp:
        payload = run_engine_sweep(SCALE, args.rounds, Path(tmp), True)
        numpy_payload = run_engine_sweep(
            NUMPY_SCALE, args.rounds, Path(tmp), False
        )
        steal_payload = run_steal_sweep(args.rounds, Path(tmp))
        remine_payload = run_remine_sweep(args.rounds, Path(tmp))
        sharding_payload = run_sharding_row(args.rounds, Path(tmp))

    for label, sweep in (("", payload), ("numpy ", numpy_payload)):
        for point in sweep["points"]:
            reference = (
                f"reference={point['reference_seconds']:.3f}s  "
                if "reference_seconds" in point
                else ""
            )
            print(
                f"{label}minsup={point['minsup']:>3}  "
                f"nodes={point['nodes']:>7}  groups={point['groups']:>3}  "
                f"production={point['production_seconds']:.3f}s  "
                f"int={point['int_seconds']:.3f}s  "
                f"packed={point['packed_seconds']:.3f}s  {reference}"
                f"ratio={point['handoff_ratio']:.2f}"
            )
        print(
            f"{label}totals: production={sweep['production_seconds']:.3f}s  "
            f"int={sweep['int_seconds']:.3f}s  "
            f"packed={sweep['packed_seconds']:.3f}s"
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

    if args.diff and args.baseline.exists():
        committed = json.loads(args.baseline.read_text(encoding="utf-8"))
        print()
        print(
            diff_report(
                {
                    "core": payload,
                    "numpy": numpy_payload,
                    "steal": steal_payload,
                    "remine": remine_payload,
                    "sharding": sharding_payload,
                    "prep": prep_payload,
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
        slow_handoff = handoff_failures(payload) + handoff_failures(
            numpy_payload, "numpy"
        )
        if slow_handoff:
            print(
                "REFUSING to commit a baseline: " + "; ".join(slow_handoff),
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
        # The baseline file is shared with bench_obs_overhead.py, which
        # records the telemetry overhead under "obs_overhead"; refreshing
        # the engine pins must not drop it.
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text(encoding="utf-8"))
            if "obs_overhead" in previous:
                payload["obs_overhead"] = previous["obs_overhead"]
        payload["numpy"] = numpy_payload
        payload["steal"] = steal_payload
        payload["remine"] = remine_payload
        payload["sharding"] = sharding_payload
        payload["prep"] = prep_payload
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures = check(payload, baseline)
    failures.extend(check(numpy_payload, baseline["numpy"], "numpy"))
    failures.extend(
        check_sharding(sharding_payload, baseline["sharding"], numpy_payload)
    )
    if "steal" in baseline:
        failures.extend(check_steal(steal_payload, baseline["steal"]))
    if "remine" in baseline:
        failures.extend(check_remine(remine_payload, baseline["remine"]))
    if "prep" in baseline:
        failures.extend(check_prep(prep_payload, baseline["prep"]))
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} problems):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed: pins exact, speeds above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
