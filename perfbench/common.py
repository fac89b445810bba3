"""Shared pieces of the benchmark: inputs, the mine pipeline, tracing, timing.

Every workload drives the program through the same public entry points
the ``farmer`` CLI uses (registry load -> equal-depth discretization ->
transposed table -> ``Farmer.mine_table`` -> ``save_rule_groups``), so
the numbers describe what a user of the CLI, the library or the daemon
waits for.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Equal-depth buckets, the ``farmer mine`` default.
BUCKETS = 10

#: The program's telemetry phase that builds the rule groups from the
#: admitted candidates; every other phase is part of the answer.
BUILD_PHASE = "build"

#: The layers every workload times: dataset preparation (load,
#: discretize, transpose), the answer (enumeration or the warm cache),
#: building the rule groups, and writing the ``.irgs`` bytes.
LAYERS = ("prep", "search", "build", "serialize")


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the package.

    Raises:
        SystemExit: the checkout holds no program to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fails loudly when the tree is broken)


#: Gene-count scale of ``cold-mine`` (rows are always the paper's):
#: ``SCALE`` of ``benchmarks/perf_gate.py``, its pinned sweep.
SCALE = 0.02

#: Gene-count scale of the two warm workloads.  This is the one workload
#: parameter chosen for run time alone, not taken from a source: at
#: 0.02 one loosening resume on BC takes about 1.8 s, and a 10-second
#: run would hold a single pass.
WARM_SCALE = 0.008

#: Figure 10 minsup grids, copied from ``MINSUP_GRIDS`` in
#: ``src/repro/experiments/workloads.py``.  They track each dataset's
#: row count, which ``SCALE`` does not change.
MINSUP_GRIDS = {
    "LC": (16, 14, 12, 11),
    "BC": (9, 8, 7, 6),
    "PC": (12, 11, 10, 9),
    "ALL": (7, 6, 5, 4),
    "CT": (6, 5, 4, 3),
}

#: The Figure 11 minconf sweep, copied from ``MINCONF_GRID`` in the
#: same module.
MINCONF_GRID = (0.0, 0.5, 0.7, 0.8, 0.85, 0.9, 0.99)

#: Paper dataset order (``DATASET_ORDER`` in the same module).
DATASETS = ("LC", "BC", "PC", "ALL", "CT")


def sweep_queries(dataset: str) -> list:
    """A dataset's Figure 10 and 11 sweeps as one warm session asks them.

    The order follows the remine sweep of ``benchmarks/perf_gate.py``:
    capture at one minsup, tighten to every larger minsup, then loosen
    by one step, which resumes the search.  Here the capture is at the
    second-lowest grid point, so the tightenings and the loosening
    together cover the Figure 10 grid.  The loosened minsup is the
    lowest grid point, the one Figure 11 sweeps minconf at, so the
    session ends with that sweep.  Returns ``(minsup, minconf)`` pairs.
    The first pair is the captured query itself.
    """
    low, base, *tighter = sorted(MINSUP_GRIDS[dataset])
    return (
        [(base, 0.0)]
        + [(minsup, 0.0) for minsup in tighter]
        + [(low, minconf) for minconf in MINCONF_GRID]
    )


@dataclass(frozen=True)
class Input:
    """One registry dataset at a gene-count scale.

    It is generated at the registry's own seed for that dataset, as
    ``benchmarks/perf_gate.py`` and the experiments generate it.
    """

    dataset: str
    scale: float

    @property
    def key(self) -> tuple:
        return (self.dataset, self.scale)


def shuffled(items, seed: int, salt: str) -> list:
    """``items`` in an order drawn from ``seed``.

    The seed orders the work; it does not change the data.  A dataset's
    search cost swings by up to 5x between generation seeds, so data
    drawn from the seed made the figures depend on the draw.
    """
    items = list(items)
    random.Random(f"{salt}:{seed}").shuffle(items)
    return items


class Trace:
    """In-memory spans around the calls into each layer.

    A span is ``(op, layer, seconds)``; spans of one operation share the
    op id, so their durations can be scaled like that operation.  With
    tracing off every method is a cheap no-op, so the end-to-end run
    measures the program alone.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float]] = []
        self.counts: dict[str, int] = {}
        self.op = 0

    @contextmanager
    def span(self, layer: str):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(layer, time.perf_counter() - start)

    def add(self, layer: str, seconds: float) -> None:
        """Record a layer duration measured elsewhere (program events)."""
        if self.enabled:
            self.spans.append((self.op, layer, seconds))

    def count(self, name: str) -> None:
        """Count one occurrence of ``name`` (a cache hit, say)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + 1


def telemetry_for(trace: Trace):
    """A program telemetry sink for a traced mine, else ``None``."""
    if not trace.enabled:
        return None
    from repro.obs import EventTap, Telemetry

    return Telemetry(runlog=EventTap())


def phase_seconds(events: list, phase: str) -> float:
    """Summed ``phase_end`` seconds of ``phase`` in a run's events."""
    return sum(
        float(event.get("seconds", 0.0))
        for event in events
        if event.get("kind") == "phase_end" and event.get("phase") == phase
    )


def load_table(inp: Input, trace: Trace):
    """Load, discretize and transpose one input (the ``prep`` layer)."""
    from repro.data.discretize import EqualDepthDiscretizer
    from repro.data.registry import load
    from repro.data.transpose import TransposedTable

    with trace.span("prep"):
        matrix = load(inp.dataset, scale=inp.scale)
        data = EqualDepthDiscretizer(n_buckets=BUCKETS).fit_transform(matrix)
        table = TransposedTable.build(data, data.class_labels[0])
    return data, table


def mine_to_bytes(
    data, table, constraints, trace: Trace, out: Path, warm_cache=None, **knobs
) -> tuple:
    """Mine ``table`` and serialize the groups; returns ``(bytes, result)``.

    Traced runs split the mine into ``search`` (everything before the
    groups are built: enumeration, or the warm cache's plan, filter,
    resume and persist) and ``build``, using the program's own phase
    events.  ``knobs`` go to ``Farmer`` as they are (engine, workers).
    """
    from repro.core.farmer import Farmer
    from repro.core.serialize import save_rule_groups

    telemetry = telemetry_for(trace)
    miner = Farmer(
        constraints=constraints,
        telemetry=telemetry,
        warm_cache=None if warm_cache is None else str(warm_cache),
        **knobs,
    )
    started = time.perf_counter()
    result = miner.mine_table(table)
    mined = time.perf_counter() - started
    if telemetry is not None:
        events = telemetry.runlog.tail()
        build = phase_seconds(events, BUILD_PHASE)
        trace.add("search", mined - build)
        trace.add("build", build)
        if any(event["kind"] == "cache_hit" for event in events):
            trace.count("frontier_hit")
    with trace.span("serialize"):
        save_rule_groups(
            out, result.groups, constraints=result.constraints, dataset_name=data.name
        )
        payload = out.read_bytes()
    return payload, result


def cold_mismatches(outputs: dict, out: Path) -> list:
    """Check answers against a cold mine of the same input.

    ``outputs`` maps ``(input, minsup, minconf)`` to the ``.irgs`` bytes
    an operation returned; each must equal what a plain cold mine of
    that input writes.  Returns one message per mismatch.
    """
    from repro.core.constraints import Constraints

    tables: dict = {}
    failures = []
    for (inp, minsup, minconf), payload in outputs.items():
        if inp not in tables:
            tables[inp] = load_table(inp, Trace(False))
        data, table = tables[inp]
        constraints = Constraints(minsup=minsup, minconf=minconf)
        expected, _ = mine_to_bytes(data, table, constraints, Trace(False), out)
        if expected != payload:
            failures.append(f"{inp.key} minsup={minsup} minconf={minconf}: != cold mine")
    return failures


class SpeedProbe:
    """Scales wall times to a reference machine speed.

    The machines this runs on are shared: the same mine takes anywhere
    from 1x to 2x its best time depending on what else the host is
    doing, and the speed changes over seconds.  A fixed slice of
    interpreter and NumPy work (the probe) slows down by the same
    factor, so every time is reported as ``wall * REFERENCE_S / probe``
    with ``probe`` the mean of the probes run just before and just
    after it.  The ratio held within +-2% while the raw times swung by
    1.5x.  The probe is benchmark code: no change to the program can
    move it.
    """

    #: Probe duration that defines the reference speed (its fastest
    #: duration on an idle 2.1 GHz Xeon core).
    REFERENCE_S = 0.0027

    def __init__(self) -> None:
        import numpy as np

        self._array = np.random.default_rng(0).random(20_000)

    def probe(self) -> float:
        """Seconds the probe takes right now, averaged over the pinned CPUs.

        Work that runs in worker processes runs on every pinned CPU, and
        on a shared host each CPU can be slowed on its own, so the probe
        visits each one.
        """
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) == 1:
            return self._probe_here()
        total = 0.0
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                total += self._probe_here()
        finally:
            os.sched_setaffinity(0, cpus)
        return total / len(cpus)

    def _probe_here(self) -> float:
        started = time.perf_counter()
        acc = 0
        table = {}
        for i in range(12_000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
            table[i & 255] = acc.bit_count()
        sorted(table.values())
        self._array.copy().sort()
        return time.perf_counter() - started

    def timed(self, fn) -> tuple:
        """Run ``fn`` between two probes; ``(result, reference seconds, scale)``."""
        before = self.probe()
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        factor = 2 * self.REFERENCE_S / (before + self.probe())
        return result, wall * factor, factor


def timed_passes(ops, seconds: float, run_op, speed: SpeedProbe, before_op=None) -> tuple:
    """Run whole passes over ``ops`` until ``seconds`` have gone by.

    Every pass runs the same operations in the same order, so the mix a
    run measures does not depend on how fast it went.  ``before_op``
    runs untimed ahead of each operation.  Returns ``(latencies,
    scales, failures)``: reference-speed seconds per operation, the
    factor each was scaled by, and the error strings ``run_op``
    returned.
    """
    latencies: list[float] = []
    scales: list[float] = []
    failures: list[str] = []
    started = time.perf_counter()
    while not latencies or time.perf_counter() - started < seconds:
        for op in ops:
            if before_op is not None:
                before_op(op)
            error, latency, factor = speed.timed(lambda: run_op(len(latencies), op))
            latencies.append(latency)
            scales.append(factor)
            if error is not None:
                failures.append(error)
    return latencies, scales, failures


def latency_metrics(latencies: list, setups: list) -> dict:
    """The end-to-end metrics every workload reports.

    Both inputs are reference-speed seconds.  A sweep's operations span
    three orders of magnitude (a filter that admits nothing to a resume),
    so the typical operation is the geometric mean: every operation
    counts by its relative speed, where a median would jump between the
    clusters of the mix.  The arithmetic mean is dominated by the heavy
    few (captures, resumes, the lowest minsup).  Operations run one at a
    time, so it is also the reciprocal of throughput.
    """
    ms = [1e3 * value for value in latencies]
    return {
        "geomean_latency_ms": {"value": statistics.geometric_mean(ms), "unit": "ms"},
        "mean_latency_ms": {"value": statistics.fmean(ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def layer_metrics(trace: Trace, latencies: list, scales: list, nodes: list) -> dict:
    """The per-layer metrics every workload reports when traced.

    Span durations are scaled by their operation's factor, like the
    latencies.  ``other_ms`` is the part of an operation no layer span
    covers: glue in-process; HTTP round trips, queue wait and polling
    when served.  The hit shares count operations answered from the
    frontier cache (filter or resume) and served jobs whose table the
    daemon's dataset registry already held.
    """
    ops = len(latencies)
    totals = dict.fromkeys(LAYERS, 0.0)
    for op, layer, seconds in trace.spans:
        totals[layer] += seconds * scales[op]
    layers = {name: 1e3 * total / ops for name, total in totals.items()}
    mean_ms = 1e3 * sum(latencies) / ops
    metrics = {f"{name}_ms": {"value": value, "unit": "ms"} for name, value in layers.items()}
    metrics["other_ms"] = {
        "value": max(mean_ms - sum(layers.values()), 0.0),
        "unit": "ms",
    }
    metrics["nodes_per_op"] = {"value": sum(nodes) / ops, "unit": "count"}
    for name in ("frontier_hit", "registry_hit"):
        share = 100.0 * trace.counts.get(name, 0) / ops
        metrics[f"{name}_pct"] = {"value": share, "unit": "%"}
    return metrics
