"""Workload ``remine-explore``: interactive constraint exploration.

A user mines a dataset once, then keeps re-asking with other
thresholds, the way ``farmer remine --warm-cache DIR`` is meant to be
used.  Each operation is one such re-query run in-process exactly as
the CLI runs it: generate, discretize and transpose the dataset, answer
through the frontier cache, build the groups and write the ``.irgs``
bytes.  A pass holds one session on each paper dataset.  A session
asks the dataset's Figure 10 and Figure 11 sweeps
(``common.sweep_queries``):

* the captured thresholds, which loads the cached entry;
* the larger grid minsups, answered by filtering with no enumeration;
* the lowest grid minsup, answered by resuming enumeration from the
  cached pruned frontier and persisting the grown entry;
* the Figure 11 minconf sweep at that minsup, filters of the new entry.

Set-up is the cache-populating first mine of each session's dataset (a
cold mine in capture mode); every session starts from a copy of that
captured cache, so each pass sees the same cache state.
"""

from __future__ import annotations

import itertools
import shutil

from common import (
    DATASETS,
    WARM_SCALE,
    Input,
    SpeedProbe,
    Trace,
    cold_mismatches,
    latency_metrics,
    layer_metrics,
    load_table,
    mine_to_bytes,
    shuffled,
    sweep_queries,
    timed_passes,
)

def run(seed: int, seconds: float, traced: bool, work) -> dict:
    from repro.core.constraints import Constraints

    inputs = [Input(dataset, WARM_SCALE) for dataset in shuffled(DATASETS, seed, "remine")]
    speed = SpeedProbe()
    trace = Trace(traced)
    out = work / "query.irgs"
    # The current session's cache: a new path per session, so nothing
    # the program memoizes by path carries over between sessions.
    numbers = itertools.count(1)
    cache = [work / "session-0"]
    ops = []
    setups = []
    for index, inp in enumerate(inputs):
        base_dir = work / f"base-{index}"

        def capture(inp=inp, base_dir=base_dir) -> None:
            data, table = load_table(inp, Trace(False))
            constraints = Constraints(minsup=sweep_queries(inp.dataset)[0][0])
            mine_to_bytes(data, table, constraints, Trace(False), out, warm_cache=base_dir)

        setups.append(speed.timed(capture)[1])
        for position, query in enumerate(sweep_queries(inp.dataset)):
            ops.append((inp, base_dir if position == 0 else None, query))

    def fresh_cache(op) -> None:
        _inp, base_dir, _query = op
        if base_dir is not None:
            shutil.rmtree(cache[0], ignore_errors=True)
            cache[0] = work / f"session-{next(numbers)}"
            shutil.copytree(base_dir, cache[0])

    nodes: list[int] = []
    outputs: dict = {}

    def one_query(index: int, op) -> "str | None":
        inp, _base_dir, (minsup, minconf) = op
        trace.op = index
        data, table = load_table(inp, trace)
        payload, result = mine_to_bytes(
            data, table, Constraints(minsup=minsup, minconf=minconf), trace, out,
            warm_cache=cache[0],
        )
        nodes.append(result.counters.nodes)
        key = (inp, minsup, minconf)
        if outputs.setdefault(key, payload) != payload:
            return f"{inp.key} minsup={minsup} minconf={minconf}: answer changed"
        return None

    latencies, scales, failures = timed_passes(
        ops, seconds, one_query, speed, before_op=fresh_cache
    )

    # Outside the timed window: every warm answer must equal a cold mine.
    failures += cold_mismatches(outputs, out)

    if traced:
        metrics = layer_metrics(trace, latencies, scales, nodes)
    else:
        metrics = latency_metrics(latencies, setups)
    return {
        "attempted": len(latencies),
        "failures": failures,
        "metrics": metrics,
    }
