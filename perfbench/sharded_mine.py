"""Workload ``sharded-mine``: the numpy engine under the work-stealing executor.

Each operation is one search as ``farmer mine --engine numpy --workers 2
--steal`` runs it, then building the groups and writing the ``.irgs``
bytes.  The inputs are the numpy section of ``benchmarks/perf_gate.py``:
LC at scale 0.2 (``NUMPY_SCALE``), where the item dimension is wide
enough to be the numpy engine's design-center workload, mined at that
section's minsup sweep (``MINSUP_SWEEP``).  Like that section, each
input's table is built once and every operation mines the prepared
table, so the work measured is the sharded search: splitting the tree,
shipping shards to the worker processes, stealing, stitching the
results and the serial reduce.

The benchmark runs on two CPUs for the two workers.  Set-up is building
the table (generate, discretize, transpose), three times, and starting
the worker pool with one mine, ahead of every pass, so the pool start
is timed several times in a run.  ``setup_s`` is the median build plus the median pool start.  Every
distinct output must equal the serial mine's bytes for the same input.
"""

from __future__ import annotations

import statistics

from common import (
    Input,
    SpeedProbe,
    Trace,
    latency_metrics,
    layer_metrics,
    load_table,
    mine_to_bytes,
    shuffled,
    timed_passes,
)

DATASET = "LC"
SCALE = 0.2
MINSUP_SWEEP = (14, 12, 11, 10, 9)
WORKERS = 2
#: CPUs the benchmark pins itself to: one per worker.
CPUS = WORKERS
#: Table builds in set-up.
BUILDS = 3
KNOBS = {"engine": "numpy", "n_workers": WORKERS, "steal": True}


def run(seed: int, seconds: float, traced: bool, work) -> dict:
    from repro.core.constraints import Constraints
    from repro.core.parallel import shutdown_workers

    inp = Input(DATASET, SCALE)
    speed = SpeedProbe()
    out = work / "mine.irgs"
    preps = []
    for _ in range(BUILDS):
        (data, table), prep_s, _ = speed.timed(lambda: load_table(inp, Trace(False)))
        preps.append(prep_s)
    ops = shuffled(MINSUP_SWEEP, seed, "sharded-mine")
    trace = Trace(traced)
    firsts: dict = {}
    nodes: list[int] = []

    def one_mine(index: int, minsup) -> "str | None":
        trace.op = index
        payload, result = mine_to_bytes(
            data, table, Constraints(minsup=minsup), trace, out, **KNOBS
        )
        nodes.append(result.counters.nodes)
        if firsts.setdefault(minsup, payload) != payload:
            return f"minsup={minsup}: re-mine changed the output bytes"
        return None

    pools: list[float] = []

    def fresh_pool(op) -> None:
        """Start a new worker pool, with one mine, ahead of every pass."""
        if op is not ops[0]:
            return
        shutdown_workers()
        _, pool_s, _ = speed.timed(
            lambda: mine_to_bytes(
                data, table, Constraints(minsup=MINSUP_SWEEP[0]), Trace(False), out,
                **KNOBS,
            )
        )
        pools.append(pool_s)

    try:
        latencies, scales, failures = timed_passes(
            ops, seconds, one_mine, speed, before_op=fresh_pool
        )
    finally:
        shutdown_workers()
    setups = [statistics.median(preps) + statistics.median(pools)]

    # Outside the timed window: every output must equal the serial
    # mine's bytes.
    for minsup, payload in firsts.items():
        expected, _ = mine_to_bytes(
            data, table, Constraints(minsup=minsup), Trace(False), out, engine="numpy"
        )
        if expected != payload:
            failures.append(f"minsup={minsup}: differs from the serial mine")

    if traced:
        metrics = layer_metrics(trace, latencies, scales, nodes)
    else:
        metrics = latency_metrics(latencies, setups)
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": metrics,
    }
