"""Checkpointing overhead for the fault-tolerant sharded miner.

The acceptance bar from the fault-tolerance design is <= 5% wall-clock
overhead versus the same sharded mine with checkpointing off, asserted
by ``test_overhead_bar`` on the shape-scale workloads at the batched
cadence (``checkpoint_every=4``); per-shard writes are measured too and
printed as an informational column.  The per-point benchmarks feed the
pytest-benchmark table (one row per (dataset, minsup) x {off, every
shard, batched}) at the fast ``BENCH_SCALE``.
``test_resume_skips_completed_work`` checks the flip side: a resume of a
finished checkpoint must do no shard work at all.
"""

import os

import pytest

from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.experiments.harness import timed

# The Figure 10 points used by the scaling benchmark, so overhead and
# speedup are measured on the same workloads.
GRID = [
    ("CT", 4),
    ("ALL", 4),
]

N_WORKERS = 2

#: Checkpoint cadences benchmarked against the no-checkpoint baseline:
#: ``1`` writes after every finished shard (worst case), ``4`` batches.
CADENCES = (None, 1, 4)


def _ids(grid):
    return [f"{name}-minsup{minsup}" for name, minsup in grid]


def _cadence_id(every):
    return "no-ckpt" if every is None else f"every{every}"


def _mine(workload, minsup, checkpoint=None, checkpoint_every=1, resume=None):
    miner = Farmer(
        constraints=Constraints(minsup=minsup),
        n_workers=N_WORKERS,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    return miner.mine(workload.data, workload.consequent)


@pytest.mark.parametrize(("name", "minsup"), GRID, ids=_ids(GRID))
@pytest.mark.parametrize("every", CADENCES, ids=[_cadence_id(e) for e in CADENCES])
def test_checkpointed_mine(benchmark, workloads, tmp_path, name, minsup, every):
    workload = workloads[name]
    serial = Farmer(constraints=Constraints(minsup=minsup)).mine(
        workload.data, workload.consequent
    )
    path = tmp_path / "bench.ckpt"

    def run():
        if path.exists():
            path.unlink()
        if every is None:
            return _mine(workload, minsup)
        return _mine(workload, minsup, checkpoint=str(path), checkpoint_every=every)

    result = benchmark(run)

    # Checkpointing must not perturb the differential guarantee.
    assert [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in result.groups
    ] == [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in serial.groups
    ]
    if every is not None and result.parallel.n_tasks:
        assert result.parallel.checkpoints_written >= 1
        assert path.exists()


#: Cadence the <= 5% bar is asserted at.  A write after every shard
#: (``checkpoint_every=1``) is also measured and printed; batching four
#: shards per write amortises the per-write cost while still bounding
#: re-work after a crash to four shards, and is what
#: ``--checkpoint-every`` exposes for short-shard runs.
BAR_CADENCE = 4

BAR_GRID = [
    ("CT", 4),
    ("ALL", 4),
]


def test_overhead_bar(shape_workloads, tmp_path, capsys):
    """<= 5% wall-clock overhead at the batched cadence.

    Measured on the shape-scale workloads (>= 600 genes) so shards do
    representative enumeration work; at ``BENCH_SCALE`` a shard finishes
    in microseconds and any fixed per-write cost dwarfs the mining it
    checkpoints, which measures the pathology rather than the design
    point.  Bare and checkpointed runs are interleaved so both sides see
    the same machine conditions, and each side keeps its best time.

    The assert needs a second core: the checkpoint writer is a
    background thread, and on a single-core host every byte it encodes,
    checksums and fsyncs displaces mining instead of overlapping it —
    and a saturated core times a ~1 s run with ~5% jitter, the size of
    the bar itself.  Mirrors the core-count guard on
    ``bench_parallel_scaling.py::test_speedup_curve``; the table is
    still printed for the record.
    """
    rows = []
    worst = 0.0
    for name, minsup in BAR_GRID:
        workload = shape_workloads[name]
        path = tmp_path / f"{name}.ckpt"

        def bare(w=workload, m=minsup):
            return _mine(w, m).groups

        def checkpointed(every, w=workload, m=minsup, p=path):
            if p.exists():
                p.unlink()
            return _mine(
                w, m, checkpoint=str(p), checkpoint_every=every
            ).groups

        bare()  # warm the worker pool and caches
        base_runs, per_shard_runs, batched_runs = [], [], []
        for _ in range(3):
            base_runs.append(timed(bare))
            per_shard_runs.append(timed(lambda: checkpointed(1)))
            batched_runs.append(timed(lambda: checkpointed(BAR_CADENCE)))
        base = min(base_runs, key=lambda r: r.seconds)
        per_shard = min(per_shard_runs, key=lambda r: r.seconds)
        batched = min(batched_runs, key=lambda r: r.seconds)
        overhead = batched.seconds / base.seconds - 1.0
        worst = max(worst, overhead)
        size = path.stat().st_size if path.exists() else 0
        rows.append(
            (
                name,
                minsup,
                base.seconds,
                per_shard.seconds / base.seconds - 1.0,
                batched.seconds,
                overhead,
                size,
            )
        )

    with capsys.disabled():
        print()
        print(
            "checkpoint overhead, shape-scale workloads "
            f"(bar at checkpoint_every={BAR_CADENCE}, n_workers={N_WORKERS})"
        )
        print(f"{'dataset':>8} {'minsup':>6} {'bare s':>9} {'every1':>8} "
              f"{'ckpt s':>9} {'overhead':>9} {'file B':>8}")
        for name, minsup, base_s, every1, ckpt_s, overhead, size in rows:
            print(f"{name:>8} {minsup:>6} {base_s:>9.4f} {every1:>7.1%} "
                  f"{ckpt_s:>9.4f} {overhead:>8.1%} {size:>8}")

    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            "overhead bar needs >= 2 cores so the background writer can "
            f"overlap mining; machine has {cores}"
        )
    assert worst <= 0.05, (
        f"checkpoint overhead {worst:.1%} at checkpoint_every="
        f"{BAR_CADENCE} exceeds the 5% bar"
    )


def test_resume_skips_completed_work(workloads, tmp_path):
    """Resuming a finished checkpoint replays without shard execution."""
    name, minsup = GRID[0]
    workload = workloads[name]
    path = tmp_path / "done.ckpt"

    first = _mine(workload, minsup, checkpoint=str(path))
    resumed = _mine(workload, minsup, resume=str(path))

    assert resumed.parallel.resumed_tasks == first.parallel.n_tasks
    # Restored shards carry their recorded counters, so the merged totals
    # match the original run's; nothing was re-enumerated.
    assert resumed.counters == first.counters
    assert [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in resumed.groups
    ] == [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in first.groups
    ]


def test_checkpoint_size_across_minsup(workloads, tmp_path, capsys):
    """Record checkpoint file size as minsup tightens (CT workload)."""
    workload = workloads["CT"]
    rows = []
    for minsup in (4, 5, 6):
        path = tmp_path / f"minsup{minsup}.ckpt"
        result = _mine(workload, minsup, checkpoint=str(path))
        size = path.stat().st_size if path.exists() else 0
        rows.append((minsup, len(result.groups), size))

    with capsys.disabled():
        print()
        print(f"checkpoint size — {workload.name}")
        print(f"{'minsup':>6} {'groups':>7} {'file B':>8}")
        for minsup, n_groups, size in rows:
            print(f"{minsup:>6} {n_groups:>7} {size:>8}")
