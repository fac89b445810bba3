"""Workload ``cold-mine``: the whole ``farmer mine`` pipeline, no cache.

Each operation is one mine, exactly as the CLI runs it: generate the
registry dataset, discretize, transpose, search, build the groups and
write the ``.irgs`` bytes.  A pass mines the five paper datasets at
``benchmarks/perf_gate.py``'s scale, each at every point of its Figure
10 minsup grid: the sweep the paper's efficiency experiment runs.  No
warm cache is configured and nothing is reused between operations, so
this is the path every cache bypasses; a change to a cache predicts no
movement here.

Set-up is the interpreter start every CLI invocation pays: a fresh
Python process importing the package, timed eleven times.
"""

from __future__ import annotations

import os
import subprocess
import sys

from common import (
    DATASETS,
    MINSUP_GRIDS,
    ROOT,
    SCALE,
    SRC,
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

IMPORT_RUNS = 11


def import_cli() -> None:
    """Start a fresh interpreter that imports the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], cwd=ROOT, env=env, check=True
    )


def run(seed: int, seconds: float, traced: bool, work) -> dict:
    from repro.core.constraints import Constraints
    from repro.core.validate import validate_result

    speed = SpeedProbe()
    setups = [speed.timed(import_cli)[1] for _ in range(IMPORT_RUNS)]
    ops = shuffled(
        [
            (Input(dataset, SCALE), minsup)
            for dataset in DATASETS
            for minsup in MINSUP_GRIDS[dataset]
        ],
        seed,
        "cold-mine",
    )
    trace = Trace(traced)
    #: op -> (bytes, dataset, table, result) of its first mine
    firsts: dict = {}
    nodes: list[int] = []
    out = work / "mine.irgs"

    def one_mine(index: int, op) -> "str | None":
        inp, minsup = op
        trace.op = index
        data, table = load_table(inp, trace)
        payload, result = mine_to_bytes(
            data, table, Constraints(minsup=minsup), trace, out
        )
        nodes.append(result.counters.nodes)
        if firsts.setdefault(op, (payload, data, table, result))[0] != payload:
            return f"{inp.key} minsup={minsup}: re-mine changed the output bytes"
        return None

    latencies, scales, failures = timed_passes(ops, seconds, one_mine, speed)

    # Outside the timed window: every distinct output must satisfy the
    # paper's invariants, and the two highest grid points of every
    # dataset (cheap for the slow engine) must equal the reference
    # engine's bytes.
    for inp, minsup in ops:
        payload, data, table, result = firsts[(inp, minsup)]
        constraints = Constraints(minsup=minsup)
        if minsup in MINSUP_GRIDS[inp.dataset][:2]:
            expected, _ = mine_to_bytes(
                data, table, constraints, Trace(False), out, engine="reference"
            )
            if expected != payload:
                failures.append(f"{inp.key} minsup={minsup}: differs from the reference engine")
        problems = validate_result(
            data, result.groups, consequent=table.consequent, constraints=constraints
        )
        if problems:
            failures.append(f"{inp.key} minsup={minsup}: {problems[0]}")

    if traced:
        metrics = layer_metrics(trace, latencies, scales, nodes)
    else:
        metrics = latency_metrics(latencies, setups)
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": metrics,
    }
