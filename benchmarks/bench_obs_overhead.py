"""Telemetry overhead gate for the Fig-10 LC sweep.

The observability layer (:mod:`repro.obs`) carries two commitments made
when it was added: enabling it must not change mined output, and it must
cost at most :data:`MAX_OVERHEAD` (2%) single-worker wall time on the
pinned Figure-10-style LC minsup sweep.  This script measures both:

* **byte identity** — every sweep point is mined bare and instrumented
  (a full :class:`~repro.obs.telemetry.Telemetry` with a metrics
  registry, a JSONL run log and the background sampler, i.e. what
  ``farmer mine --metrics-out`` builds) and the serialized ``.irgs``
  files must hash identically.  This part is hardware-independent and
  always enforced exactly.
* **overhead** — the median, over N back-to-back (bare, instrumented)
  sweep pairs, of the paired wall-time ratio, minus one.  Pairing and
  the median matter: shared machines drift at the ±20% scale over
  seconds (frequency scaling, noisy neighbours), which swamps a 2%
  signal unless both arms run under the same machine state and outlier
  pairs are discarded.  The sweep also runs at a larger scale than
  ``perf_gate.py`` (:data:`SCALE`) so per-mine constant costs — file
  open, final snapshot, a handful of events — do not masquerade as
  hot-path overhead on 10 ms toy mines; the bar is about real runs.
  When refreshing the baseline the script refuses to record a number
  above :data:`MAX_OVERHEAD`; in ``--check`` mode the measured overhead
  must stay below ``MAX_OVERHEAD * TOLERANCE`` — the tolerance absorbs
  residual CI noise, the gate exists to catch telemetry becoming
  *hot-path* work, not scheduling jitter.

The measured number is recorded into the committed perf baseline
(``BENCH_core.json``, the file ``perf_gate.py`` owns) under the
``obs_overhead`` key, alongside the kernel speedup floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # record
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --check  # CI gate

Not a pytest module for the same reason as ``perf_gate.py``: a timed
sweep with an absolute pass/fail contract does not fit the benchmark
fixtures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.core.serialize import save_rule_groups
from repro.experiments.workloads import build_workload
from repro.obs import RunLog, Telemetry

#: The Fig-10 LC minsup sweep, single worker, at a scale where each
#: mine runs ~0.1-0.4 s (see the module docstring for why this is
#: larger than the ``perf_gate.py`` scale).
DATASET = "LC"
SCALE = 0.05
MINSUP_SWEEP = (12, 11, 10, 9, 8)

#: The committed acceptance bar: telemetry may cost at most this
#: fraction of bare wall time on the sweep.
MAX_OVERHEAD = 0.02
#: ``--check`` multiplier on the bar (CI runners are noisy at the 2%
#: scale; the gate catches order-of-magnitude regressions, the recorded
#: baseline documents the honest number).
TOLERANCE = 3.0

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"

#: Numbers the instrumented mines' run-log files.
_RUNLOG_NUMBERS = itertools.count()


def _irgs_sha256(result, tmp_dir: Path, tag: str) -> str:
    path = tmp_dir / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mine(workload, minsup: int, telemetry: Telemetry | None):
    miner = Farmer(
        constraints=Constraints(minsup=minsup), telemetry=telemetry
    )
    return miner.mine(workload.data, workload.consequent)


def _mine_point(
    workload, tmp_dir: Path, minsup: int, instrumented: bool
) -> tuple[float, str]:
    """One timed mine at one sweep point; returns (seconds, .irgs sha)."""
    telemetry = None
    if instrumented:
        # A new run-log file per mine, as a ``--metrics-out`` run has:
        # reopening the last round's file would charge the instrumented
        # arm for truncating it (~0.1 ms on ext4 mounted with discard).
        log = tmp_dir / f"obs-{minsup}-{next(_RUNLOG_NUMBERS)}.jsonl"
        telemetry = Telemetry(runlog=RunLog(log))
    start = time.perf_counter()
    result = _mine(workload, minsup, telemetry)
    seconds = time.perf_counter() - start
    if telemetry is not None:
        telemetry.close()
    tag = ("obs" if instrumented else "bare") + f"-{minsup}"
    return seconds, _irgs_sha256(result, tmp_dir, tag)


def measure(rounds: int, tmp_dir: Path) -> dict:
    """Paired per-point overhead of the instrumented sweep; the payload.

    Every round mines each sweep point twice back-to-back — bare and
    instrumented, order alternating — so both arms of a pair share the
    same machine state.  The per-point overhead is the median ratio over
    the rounds (outlier pairs carry a descheduling hiccup, not signal),
    and the sweep-level number is the bare-time-weighted mean of the
    per-point medians: exactly "how much longer would the sweep take",
    robust to any single pair going wrong.  ``per_mine_cost_ms`` is the
    median instrumented-minus-bare time over every pair: the fixed cost
    a mine pays for telemetry, which the ratio hides at small points.
    """
    workload = build_workload(DATASET, scale=SCALE)
    # Warm caches (imports, allocator, dataset) and pin byte identity
    # outside the timed pairs.
    for minsup in MINSUP_SWEEP:
        _, bare_sha = _mine_point(workload, tmp_dir, minsup, False)
        _, obs_sha = _mine_point(workload, tmp_dir, minsup, True)
        if bare_sha != obs_sha:
            raise SystemExit(
                f"FATAL: telemetry changed mined output at minsup={minsup}: "
                f"{obs_sha[:12]} != bare {bare_sha[:12]}"
            )
    ratios: dict[int, list[float]] = {minsup: [] for minsup in MINSUP_SWEEP}
    costs: list[float] = []
    bare_times: dict[int, float] = {
        minsup: float("inf") for minsup in MINSUP_SWEEP
    }
    obs_times: dict[int, float] = dict(bare_times)
    for index in range(rounds):
        for minsup in MINSUP_SWEEP:
            # GC pauses land on whichever arm happens to cross the
            # allocation threshold; collect up front and keep the
            # collector out of the timed pair so they cannot masquerade
            # as overhead.
            gc.collect()
            gc.disable()
            try:
                if index % 2 == 0:
                    bare_s = _mine_point(workload, tmp_dir, minsup, False)[0]
                    obs_s = _mine_point(workload, tmp_dir, minsup, True)[0]
                else:
                    obs_s = _mine_point(workload, tmp_dir, minsup, True)[0]
                    bare_s = _mine_point(workload, tmp_dir, minsup, False)[0]
            finally:
                gc.enable()
            ratios[minsup].append(obs_s / bare_s)
            costs.append(obs_s - bare_s)
            bare_times[minsup] = min(bare_times[minsup], bare_s)
            obs_times[minsup] = min(obs_times[minsup], obs_s)
    total_bare = sum(bare_times.values())
    overhead = (
        sum(
            statistics.median(ratios[minsup]) * bare_times[minsup]
            for minsup in MINSUP_SWEEP
        )
        / total_bare
        - 1.0
    )
    return {
        "dataset": DATASET,
        "scale": SCALE,
        "rounds": rounds,
        "max_overhead": MAX_OVERHEAD,
        "tolerance": TOLERANCE,
        "bare_seconds": round(total_bare, 4),
        "instrumented_seconds": round(sum(obs_times.values()), 4),
        "overhead_fraction": round(overhead, 4),
        "per_mine_cost_ms": round(statistics.median(costs) * 1e3, 3),
        "per_point_overhead": {
            str(minsup): round(statistics.median(ratios[minsup]) - 1.0, 4)
            for minsup in MINSUP_SWEEP
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="enforce the committed overhead bar instead of recording "
        "a fresh number into the baseline",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="paired rounds per sweep point (default: 5)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help=f"perf baseline JSON path (default: {BASELINE_PATH.name})",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        payload = measure(args.rounds, Path(tmp))

    print(
        f"bare={payload['bare_seconds']:.3f}s  "
        f"instrumented={payload['instrumented_seconds']:.3f}s  "
        f"overhead={payload['overhead_fraction']:+.2%}  "
        f"per mine {payload['per_mine_cost_ms']:+.2f} ms  "
        f"(bar {MAX_OVERHEAD:.0%}, .irgs byte-identical)"
    )

    if args.check:
        ceiling = MAX_OVERHEAD * TOLERANCE
        if payload["overhead_fraction"] > ceiling:
            print(
                f"OBS OVERHEAD GATE FAILED: {payload['overhead_fraction']:.2%} "
                f"exceeds {MAX_OVERHEAD:.0%} x tolerance {TOLERANCE} = "
                f"{ceiling:.0%}",
                file=sys.stderr,
            )
            return 1
        print("obs overhead gate passed: output byte-identical, cost in bar")
        return 0

    if payload["overhead_fraction"] > MAX_OVERHEAD:
        print(
            f"REFUSING to record {payload['overhead_fraction']:.2%} overhead "
            f"(bar is {MAX_OVERHEAD:.0%}) — re-run on a quieter machine or "
            "find the hot-path instrumentation first",
            file=sys.stderr,
        )
        return 1
    # Surgical update: only the obs_overhead key of the perf baseline is
    # this script's to write; the kernel pins belong to perf_gate.py.
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    baseline["obs_overhead"] = payload
    args.baseline.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"obs_overhead recorded into {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
