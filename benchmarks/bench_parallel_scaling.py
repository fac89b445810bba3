"""Worker-scaling curve for the sharded FARMER miner.

The sharded executor (:mod:`repro.core.parallel`) must (a) return exactly
the serial miner's groups at every worker count, and (b) actually scale:
the acceptance bar is >= 2x speedup at 4 workers on the largest Fig-10
workload.  The per-point benchmarks feed the pytest-benchmark table (one
row per (dataset, minsup, workers)); ``test_speedup_curve`` prints the
speedup/efficiency table via :func:`repro.experiments.format_scaling` and
asserts the bar — skipped on machines without 4 cores, where a process
pool cannot physically speed anything up.

Alongside aggregate speedup the curve reports each worker count's *tail
latency* — ``max(ParallelReport.task_seconds)``, the longest interval
any single dispatch held a worker.  Aggregate speedup hides stragglers:
a skewed shard split can post 2x while one worker carries half the
tree.  ``test_tail_latency_stealing`` pins the complement on the skewed
point below the sweep: work stealing must cut the tail against the static
scheduler (donations bound every part by the quantum), a per-dispatch
property that holds even on single-core machines, so it is not
core-count gated.  The committed reference numbers live in the
``"steal"`` section of ``BENCH_core.json`` (see ``perf_gate.py``).
"""

import os

import pytest

from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.experiments.harness import TimedRun, format_scaling, scaling_curve, timed

# The low-minsup (hard) Figure 10 points on the two widest fast datasets.
GRID = [
    ("CT", 4),
    ("ALL", 4),
]

WORKER_COUNTS = (1, 2, 4)

#: The skewed tail-latency point — keep in lockstep with the ``steal``
#: section constants in ``perf_gate.py``.
STEAL_MINSUP = 5
STEAL_QUANTUM = 512
STEAL_MIN_TAIL_IMPROVEMENT = 1.3


def _ids(grid):
    return [f"{name}-minsup{minsup}" for name, minsup in grid]


def _tail(result) -> float:
    """The run's tail latency: the longest single dispatch's wall time."""
    return max(result.parallel.task_seconds)


@pytest.mark.parametrize(("name", "minsup"), GRID, ids=_ids(GRID))
@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_parallel_farmer(benchmark, workloads, name, minsup, n_workers):
    workload = workloads[name]
    serial = Farmer(constraints=Constraints(minsup=minsup)).mine(
        workload.data, workload.consequent
    )
    miner = Farmer(constraints=Constraints(minsup=minsup), n_workers=n_workers)

    result = benchmark(miner.mine, workload.data, workload.consequent)

    # The differential guarantee, re-checked at benchmark scale: groups,
    # statistics and row sets identical to the serial miner.
    assert [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in result.groups
    ] == [
        (sorted(g.upper), g.support, g.antecedent_support, g.rows)
        for g in serial.groups
    ]
    assert result.parallel is not None
    assert result.parallel.n_workers == n_workers
    assert result.parallel.task_seconds


def test_speedup_curve(shape_workloads, capsys):
    """>= 2x at 4 workers on the largest Fig-10 workload (needs 4 cores)."""
    workload = shape_workloads["CT"]
    constraints = Constraints(minsup=4)

    serial = timed(
        lambda: Farmer(constraints=constraints)
        .mine(workload.data, workload.consequent)
        .groups
    )
    runs: list[tuple[int, TimedRun]] = []
    tails: dict[int, float] = {}

    def mine_and_tail(n: int):
        result = Farmer(constraints=constraints, n_workers=n).mine(
            workload.data, workload.consequent
        )
        tails[n] = _tail(result)
        return result.groups

    for n_workers in WORKER_COUNTS:
        runs.append(
            (n_workers, timed(lambda n=n_workers: mine_and_tail(n)))
        )
    points = scaling_curve(serial, runs)
    with capsys.disabled():
        print()
        print(
            format_scaling(
                f"FARMER worker scaling — {workload.name}, minsup=4",
                serial,
                points,
            )
        )
        print(
            "tail latency (max task wall): "
            + "  ".join(
                f"w={n} {tails[n]:.3f}s" for n in WORKER_COUNTS
            )
        )

    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup bar needs >= 4 cores, machine has {cores}")
    by_workers = {point.n_workers: point for point in points}
    assert by_workers[4].speedup >= 2.0


def test_tail_latency_stealing(workloads, capsys):
    """Stealing cuts the per-dispatch tail on the skewed point.

    Best-of-2 per scheduler damps single-dispatch noise; the measured
    improvement is 1.5x-2.2x on a 2-core machine (see
    ``BENCH_core.json``).
    """
    workload = workloads["LC"]
    constraints = Constraints(minsup=STEAL_MINSUP)

    def best_tail(**kwargs) -> float:
        return min(
            _tail(
                Farmer(constraints=constraints, n_workers=4, **kwargs).mine(
                    workload.data, workload.consequent
                )
            )
            for _ in range(2)
        )

    static_tail = best_tail()
    steal_tail = best_tail(steal=True, steal_quantum=STEAL_QUANTUM)
    improvement = static_tail / steal_tail
    with capsys.disabled():
        print()
        print(
            f"skewed tail latency — {workload.name}, "
            f"minsup={STEAL_MINSUP}, 4 workers: "
            f"static {static_tail:.4f}s, steal {steal_tail:.4f}s "
            f"({improvement:.2f}x)"
        )
    assert improvement >= STEAL_MIN_TAIL_IMPROVEMENT
