"""Committed perf baseline + CI regression gate for the enumeration kernel.

Runs the pinned Figure-10-style LC minsup sweep with both engines (the
fused kernel and the pre-kernel ``reference`` cost model) and records,
per sweep point:

* **determinism pins** — node count, group count and the sha256 of the
  serialized ``.irgs`` output.  These are hardware-independent and are
  compared *exactly* in ``--check`` mode: any drift means the kernel
  changed mined output, which is a bug regardless of speed.  One sweep
  point is additionally re-mined sharded (``n_workers=2``) and must hash
  identically to the serial run.
* **speed** — best-of-N wall time and nodes/sec for both engines, the
  kernel/reference speedup, and the kernel cache hit rate.

A second sweep under ``"numpy"`` in the baseline does the same for the
vectorized numpy engine against the kernel — byte-identity fatal at
every point (serial plus one sharded re-mine), a committed
``NUMPY_MIN_SPEEDUP`` aggregate floor — at the larger ``NUMPY_SCALE``
replication where the item dimension is the workload (see the constant's
note).  When NumPy is absent the numpy sweep is skipped cleanly: a
refresh preserves the committed section, ``--check`` reports the skip
and checks only the kernel pins.

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
path carries ~3x headroom over it).  One *loosening* re-mine is also
pinned: its resumed node count is recorded exactly and must never
exceed the cold mine's node count, byte-identity again fatal for the
serial and the sharded resume.

``--check`` recomputes the pins, re-measures the speedup and fails if
the aggregate speedup falls below ``min_speedup * tolerance`` — the
tolerance is deliberately generous (CI machines are noisy; the gate
exists to catch the kernel *losing its reason to exist*, not 5% noise).
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
and its pass/fail contract (exact pins + a speedup floor) does not fit
the benchmark fixtures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.core.parallel import shutdown_workers
from repro.core.serialize import save_rule_groups
from repro.experiments.workloads import build_workload

#: The pinned sweep: LC at benchmark scale, Figure-10 minsup grid.
DATASET = "LC"
SCALE = 0.02
MINSUP_SWEEP = (14, 12, 11, 10, 9)
#: The sweep point re-run sharded for the parallel byte-identity pin.
SHARDED_MINSUP = 12
#: Required aggregate kernel/reference speedup when refreshing the
#: baseline, and the CI tolerance applied to it in ``--check``.
MIN_SPEEDUP = 2.0
TOLERANCE = 0.6

#: The numpy-engine sweep: the same Figure-10 minsup grid at the larger
#: LC replication, where the item dimension is wide enough to be the
#: engine's design-center workload (vectorization pays per item, the
#: scalar walk pays per node).  Timed through ``Farmer.mine_table`` on a
#: table built once per sweep: the dataset→table transpose is
#: engine-independent preprocessing shared verbatim by every engine, and
#: folding its constant into each point only dilutes the engine ratio
#: being gated.
NUMPY_SCALE = 0.2
#: Required aggregate numpy/kernel speedup when refreshing the baseline;
#: ``TOLERANCE`` applies to it in ``--check``.
NUMPY_MIN_SPEEDUP = 3.0

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
#: extra tolerance.  The loosening re-mine resumes below the base
#: capture and has its resumed node count pinned exactly.
REMINE_BASE_MINSUP = 9
REMINE_TIGHTEN_SWEEP = (10, 11, 12, 14)
REMINE_LOOSEN_MINSUP = 8
REMINE_MIN_SPEEDUP = 10.0
REMINE_SPEEDUP_FLOOR = 5.0

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"


def _irgs_sha256(result, tmp_dir: Path, tag: str) -> str:
    path = tmp_dir / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mine(workload, minsup: int, engine: str, n_workers: int | None = None):
    miner = Farmer(
        constraints=Constraints(minsup=minsup),
        engine=engine,
        n_workers=n_workers,
    )
    return miner.mine(workload.data, workload.consequent)


def _best_of(workload, minsup: int, engine: str, rounds: int):
    """(best wall seconds, last result) over ``rounds`` repeat mines."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = _mine(workload, minsup, engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def _mine_prebuilt(table, minsup: int, engine: str, n_workers=None):
    miner = Farmer(
        constraints=Constraints(minsup=minsup),
        engine=engine,
        n_workers=n_workers,
    )
    return miner.mine_table(table)


def _best_of_prebuilt(table, minsup: int, engine: str, rounds: int):
    """(best wall seconds, last result) mining a pre-transposed table."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = _mine_prebuilt(table, minsup, engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_sweep(rounds: int, tmp_dir: Path) -> dict:
    """The full two-engine sweep; returns the baseline payload."""
    workload = build_workload(DATASET, scale=SCALE)
    points = []
    kernel_total = 0.0
    reference_total = 0.0
    for minsup in MINSUP_SWEEP:
        kernel_s, kernel = _best_of(workload, minsup, "kernel", rounds)
        reference_s, reference = _best_of(workload, minsup, "reference", rounds)
        kernel_sha = _irgs_sha256(kernel, tmp_dir, f"kernel-{minsup}")
        reference_sha = _irgs_sha256(reference, tmp_dir, f"reference-{minsup}")
        if kernel_sha != reference_sha:
            raise SystemExit(
                f"FATAL: engines disagree at minsup={minsup}: "
                f"kernel {kernel_sha[:12]} != reference {reference_sha[:12]}"
            )
        if kernel.counters.nodes != reference.counters.nodes:
            raise SystemExit(
                f"FATAL: engines visited different node counts at "
                f"minsup={minsup}: {kernel.counters.nodes} != "
                f"{reference.counters.nodes}"
            )
        hits = kernel.counters.cache_hits
        misses = kernel.counters.cache_misses
        kernel_total += kernel_s
        reference_total += reference_s
        points.append(
            {
                "minsup": minsup,
                "nodes": kernel.counters.nodes,
                "groups": len(kernel.groups),
                "irgs_sha256": kernel_sha,
                "kernel_seconds": round(kernel_s, 4),
                "reference_seconds": round(reference_s, 4),
                "speedup": round(reference_s / kernel_s, 3),
                "kernel_nodes_per_second": round(
                    kernel.counters.nodes / kernel_s
                ),
                "reference_nodes_per_second": round(
                    reference.counters.nodes / reference_s
                ),
                "cache_hit_rate": round(
                    hits / (hits + misses) if hits + misses else 0.0, 4
                ),
            }
        )

    sharded = _mine(workload, SHARDED_MINSUP, "kernel", n_workers=2)
    shutdown_workers()
    sharded_sha = _irgs_sha256(sharded, tmp_dir, "sharded")
    serial_sha = next(
        p["irgs_sha256"] for p in points if p["minsup"] == SHARDED_MINSUP
    )
    if sharded_sha != serial_sha:
        raise SystemExit(
            f"FATAL: sharded (n_workers=2) output diverges from serial at "
            f"minsup={SHARDED_MINSUP}"
        )

    return {
        "dataset": DATASET,
        "scale": SCALE,
        "rounds": rounds,
        "min_speedup": MIN_SPEEDUP,
        "tolerance": TOLERANCE,
        "sharded_minsup": SHARDED_MINSUP,
        "aggregate_speedup": round(reference_total / kernel_total, 3),
        "points": points,
    }


def run_numpy_sweep(rounds: int, tmp_dir: Path) -> dict | None:
    """The numpy-vs-kernel sweep, or ``None`` when NumPy is absent.

    Byte-identity between the engines is fatal-checked at every point
    (serial) plus one sharded re-mine; speed is recorded per point with
    the aggregate speedup the ``--check`` floor applies to.
    """
    from repro.core.farmer import available_engines

    if "numpy" not in available_engines():
        return None
    from repro.data.transpose import TransposedTable

    workload = build_workload(DATASET, scale=NUMPY_SCALE)
    table = TransposedTable.build(workload.data, workload.consequent)
    points = []
    kernel_total = 0.0
    numpy_total = 0.0
    for minsup in MINSUP_SWEEP:
        kernel_s, kernel = _best_of_prebuilt(table, minsup, "kernel", rounds)
        numpy_s, numpy = _best_of_prebuilt(table, minsup, "numpy", rounds)
        kernel_sha = _irgs_sha256(kernel, tmp_dir, f"np-kernel-{minsup}")
        numpy_sha = _irgs_sha256(numpy, tmp_dir, f"np-numpy-{minsup}")
        if numpy_sha != kernel_sha:
            raise SystemExit(
                f"FATAL: numpy engine diverges from kernel at "
                f"minsup={minsup}: {numpy_sha[:12]} != {kernel_sha[:12]}"
            )
        if numpy.counters.nodes != kernel.counters.nodes:
            raise SystemExit(
                f"FATAL: engines visited different node counts at "
                f"minsup={minsup}: {numpy.counters.nodes} != "
                f"{kernel.counters.nodes}"
            )
        kernel_total += kernel_s
        numpy_total += numpy_s
        points.append(
            {
                "minsup": minsup,
                "nodes": numpy.counters.nodes,
                "groups": len(numpy.groups),
                "irgs_sha256": numpy_sha,
                "kernel_seconds": round(kernel_s, 4),
                "numpy_seconds": round(numpy_s, 4),
                "speedup": round(kernel_s / numpy_s, 3),
                "numpy_nodes_per_second": round(
                    numpy.counters.nodes / numpy_s
                ),
            }
        )

    sharded = _mine_prebuilt(table, SHARDED_MINSUP, "numpy", n_workers=2)
    shutdown_workers()
    sharded_sha = _irgs_sha256(sharded, tmp_dir, "np-sharded")
    serial_sha = next(
        p["irgs_sha256"] for p in points if p["minsup"] == SHARDED_MINSUP
    )
    if sharded_sha != serial_sha:
        raise SystemExit(
            f"FATAL: sharded numpy (n_workers=2) output diverges from "
            f"serial at minsup={SHARDED_MINSUP}"
        )

    return {
        "dataset": DATASET,
        "scale": NUMPY_SCALE,
        "rounds": rounds,
        "min_speedup": NUMPY_MIN_SPEEDUP,
        "tolerance": TOLERANCE,
        "sharded_minsup": SHARDED_MINSUP,
        "aggregate_speedup": round(kernel_total / numpy_total, 3),
        "points": points,
    }


def run_steal_sweep(rounds: int, tmp_dir: Path) -> dict:
    """The static-vs-stealing tail-latency point (see module docstring).

    Byte-identity against the serial run is fatal for both schedulers
    on every round; the recorded tails are best-of-``rounds``.
    """
    workload = build_workload(DATASET, scale=SCALE)
    serial = _mine(workload, STEAL_MINSUP, "kernel")
    serial_sha = _irgs_sha256(serial, tmp_dir, "steal-serial")
    static_tail = float("inf")
    steal_tail = float("inf")
    stealing = None
    for attempt in range(rounds):
        static = _mine(
            workload, STEAL_MINSUP, "kernel", n_workers=STEAL_WORKERS
        )
        if _irgs_sha256(static, tmp_dir, f"steal-static-{attempt}") != (
            serial_sha
        ):
            raise SystemExit(
                f"FATAL: static (n_workers={STEAL_WORKERS}) output "
                f"diverges from serial at minsup={STEAL_MINSUP}"
            )
        static_tail = min(static_tail, max(static.parallel.task_seconds))
        stealing = Farmer(
            constraints=Constraints(minsup=STEAL_MINSUP),
            n_workers=STEAL_WORKERS,
            steal=True,
            steal_quantum=STEAL_QUANTUM,
        ).mine(workload.data, workload.consequent)
        if _irgs_sha256(stealing, tmp_dir, f"steal-steal-{attempt}") != (
            serial_sha
        ):
            raise SystemExit(
                f"FATAL: stealing (n_workers={STEAL_WORKERS}) output "
                f"diverges from serial at minsup={STEAL_MINSUP}"
            )
        steal_tail = min(steal_tail, max(stealing.parallel.task_seconds))
    shutdown_workers()
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

    Captures the frontier once at ``REMINE_BASE_MINSUP``, answers every
    ``REMINE_TIGHTEN_SWEEP`` point warm (zero enumeration, byte-identity
    fatal, serial and sharded), then runs one loosening resume below the
    base with its node count recorded for the exact pin.
    """
    import shutil

    from repro.data.transpose import TransposedTable

    workload = build_workload(DATASET, scale=SCALE)
    table = TransposedTable.build(workload.data, workload.consequent)
    pristine = tmp_dir / "remine-pristine"

    def warm_mine(minsup: int, cache: Path, n_workers=None):
        miner = Farmer(
            constraints=Constraints(minsup=minsup),
            warm_cache=str(cache),
            n_workers=n_workers,
        )
        return miner.mine_table(table)

    start = time.perf_counter()
    warm_mine(REMINE_BASE_MINSUP, pristine)
    capture_seconds = time.perf_counter() - start

    # Steady-state timing: the first warm query against an entry pays
    # the one-time decode + index build; prime it out of the loop.
    warm_mine(REMINE_TIGHTEN_SWEEP[0], pristine)

    points = []
    cold_total = 0.0
    warm_total = 0.0
    for minsup in REMINE_TIGHTEN_SWEEP:
        cold_s, cold = _best_of_prebuilt(table, minsup, "kernel", rounds)
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
                f"FATAL: sharded warm tighten diverges from cold at "
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

    cold_s, cold = _best_of_prebuilt(
        table, REMINE_LOOSEN_MINSUP, "kernel", rounds
    )
    cold_sha = _irgs_sha256(cold, tmp_dir, "remine-loosen-cold")
    serial_cache = tmp_dir / "remine-loosen-serial"
    shutil.copytree(pristine, serial_cache)
    begin = time.perf_counter()
    resumed = warm_mine(REMINE_LOOSEN_MINSUP, serial_cache)
    resume_s = time.perf_counter() - begin
    if _irgs_sha256(resumed, tmp_dir, "remine-loosen-warm") != cold_sha:
        raise SystemExit(
            "FATAL: loosening resume diverges from cold at "
            f"minsup={REMINE_LOOSEN_MINSUP}"
        )
    if resumed.counters.nodes > cold.counters.nodes:
        raise SystemExit(
            f"FATAL: loosening resume expanded {resumed.counters.nodes} "
            f"nodes, more than the {cold.counters.nodes} a cold mine "
            "needs — the frontier is not saving work"
        )
    sharded_cache = tmp_dir / "remine-loosen-sharded"
    shutil.copytree(pristine, sharded_cache)
    sharded = warm_mine(REMINE_LOOSEN_MINSUP, sharded_cache, n_workers=2)
    shutdown_workers()
    if _irgs_sha256(sharded, tmp_dir, "remine-loosen-wsh") != cold_sha:
        raise SystemExit(
            "FATAL: sharded loosening resume diverges from cold at "
            f"minsup={REMINE_LOOSEN_MINSUP}"
        )

    return {
        "dataset": DATASET,
        "scale": SCALE,
        "rounds": rounds,
        "base_minsup": REMINE_BASE_MINSUP,
        "capture_seconds": round(capture_seconds, 4),
        "min_speedup": REMINE_MIN_SPEEDUP,
        "speedup_floor": REMINE_SPEEDUP_FLOOR,
        "aggregate_speedup": round(cold_total / warm_total, 3),
        "points": points,
        "loosen": {
            "minsup": REMINE_LOOSEN_MINSUP,
            "groups": len(resumed.groups),
            "irgs_sha256": cold_sha,
            "cold_nodes": cold.counters.nodes,
            "resume_nodes": resumed.counters.nodes,
            "sharded_resume_nodes": sharded.counters.nodes,
            "cold_seconds": round(cold_s, 4),
            "resume_seconds": round(resume_s, 4),
        },
    }


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
    for pin in (
        "groups",
        "irgs_sha256",
        "cold_nodes",
        "resume_nodes",
        "sharded_resume_nodes",
    ):
        if payload["loosen"][pin] != baseline["loosen"][pin]:
            failures.append(
                f"remine: loosen: {pin} drifted "
                f"({payload['loosen'][pin]!r} != pinned "
                f"{baseline['loosen'][pin]!r})"
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


def _diff_points(section: str, fresh: dict, committed: dict) -> list[str]:
    """Delta rows for one section's per-minsup point list + scalars."""
    lines = []
    scalar_keys = sorted(
        key
        for key, value in committed.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    for key in scalar_keys:
        if key in fresh:
            lines.append(
                _diff_line(section, "", key, committed[key], fresh[key])
            )
    fresh_points = {p["minsup"]: p for p in fresh.get("points", [])}
    for pinned in committed.get("points", []):
        point = fresh_points.get(pinned["minsup"])
        if point is None:
            lines.append(
                f"  {section}.minsup={pinned['minsup']}: missing from "
                "fresh sweep"
            )
            continue
        label = f"minsup={pinned['minsup']}"
        for key in sorted(pinned):
            if key == "minsup" or key not in point:
                continue
            lines.append(
                _diff_line(section, label, key, pinned[key], point[key])
            )
    return lines


def diff_report(sections: dict, baseline: dict) -> str:
    """The per-section delta table: committed baseline vs fresh run.

    Args:
        sections: fresh payloads keyed by section name (``core``,
            ``numpy``, ``steal``, ``remine``); ``None`` values (an
            unavailable engine) are reported as skipped.
        baseline: the committed ``BENCH_core.json`` payload.

    Returns:
        A printable table, one row per metric, with relative deltas for
        measurements and SAME/DIFFERENT verdicts for pins.
    """
    lines = ["perf delta vs committed baseline (old -> new):"]
    for name in ("core", "numpy", "steal", "remine"):
        committed = baseline if name == "core" else baseline.get(name)
        fresh = sections.get(name)
        if committed is None:
            lines.append(f"  {name}: not in committed baseline")
            continue
        if fresh is None:
            lines.append(f"  {name}: skipped in this run")
            continue
        if name == "steal":
            for key in sorted(committed):
                if key in fresh:
                    lines.append(
                        _diff_line(name, "", key, committed[key], fresh[key])
                    )
            continue
        lines.extend(_diff_points(name, fresh, committed))
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
    floor = baseline["min_speedup"] * baseline["tolerance"]
    if payload["aggregate_speedup"] < floor:
        failures.append(
            f"{prefix}aggregate speedup {payload['aggregate_speedup']}x is "
            f"below the gate floor {floor}x "
            f"(min_speedup {baseline['min_speedup']} x tolerance "
            f"{baseline['tolerance']})"
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
        default=3,
        help="best-of-N rounds per engine per sweep point (default: 3)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"baseline JSON path (default: {BASELINE_PATH.name})",
    )
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = run_sweep(args.rounds, Path(tmp))
        numpy_payload = run_numpy_sweep(args.rounds, Path(tmp))
        steal_payload = run_steal_sweep(args.rounds, Path(tmp))
        remine_payload = run_remine_sweep(args.rounds, Path(tmp))

    for point in payload["points"]:
        print(
            f"minsup={point['minsup']:>3}  nodes={point['nodes']:>7}  "
            f"groups={point['groups']:>3}  "
            f"kernel={point['kernel_seconds']:.3f}s  "
            f"reference={point['reference_seconds']:.3f}s  "
            f"speedup={point['speedup']:.2f}x  "
            f"cache={point['cache_hit_rate']:.1%}"
        )
    print(f"aggregate speedup: {payload['aggregate_speedup']:.2f}x")
    if numpy_payload is None:
        print("numpy engine unavailable — numpy sweep skipped")
    else:
        for point in numpy_payload["points"]:
            print(
                f"numpy minsup={point['minsup']:>3}  "
                f"nodes={point['nodes']:>7}  "
                f"groups={point['groups']:>3}  "
                f"kernel={point['kernel_seconds']:.3f}s  "
                f"numpy={point['numpy_seconds']:.3f}s  "
                f"speedup={point['speedup']:.2f}x"
            )
        print(
            f"numpy aggregate speedup: "
            f"{numpy_payload['aggregate_speedup']:.2f}x"
        )
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
    loosen = remine_payload["loosen"]
    print(
        f"remine loosen minsup={loosen['minsup']:>3}  "
        f"resume nodes={loosen['resume_nodes']} "
        f"(cold {loosen['cold_nodes']})  "
        f"cold={loosen['cold_seconds']:.4f}s  "
        f"resume={loosen['resume_seconds']:.4f}s"
    )
    print(
        f"remine aggregate warm speedup: "
        f"{remine_payload['aggregate_speedup']:.1f}x"
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
                "kernel first",
                file=sys.stderr,
            )
            return 1
        if (
            numpy_payload is not None
            and numpy_payload["aggregate_speedup"] < NUMPY_MIN_SPEEDUP
        ):
            print(
                f"REFUSING to commit a numpy baseline below "
                f"{NUMPY_MIN_SPEEDUP}x aggregate speedup — run on a "
                "quieter machine or fix the numpy engine first",
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
        # The baseline file is shared with bench_obs_overhead.py, which
        # records the telemetry overhead under "obs_overhead"; refreshing
        # the kernel pins must not drop it.  Likewise a refresh on a
        # machine without NumPy must not drop the committed numpy
        # section.
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text(encoding="utf-8"))
            if "obs_overhead" in previous:
                payload["obs_overhead"] = previous["obs_overhead"]
            if numpy_payload is None and "numpy" in previous:
                numpy_payload = previous["numpy"]
        if numpy_payload is not None:
            payload["numpy"] = numpy_payload
        payload["steal"] = steal_payload
        payload["remine"] = remine_payload
        args.baseline.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    failures = check(payload, baseline)
    if "numpy" in baseline:
        if numpy_payload is None:
            print("numpy engine unavailable — numpy pins not checked")
        else:
            failures.extend(check(numpy_payload, baseline["numpy"], "numpy"))
    if "steal" in baseline:
        failures.extend(check_steal(steal_payload, baseline["steal"]))
    if "remine" in baseline:
        failures.extend(check_remine(remine_payload, baseline["remine"]))
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} problems):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed: pins exact, speedup above floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
