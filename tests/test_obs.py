"""Observability suite: metrics merge laws, run-log integrity, and the
byte-identity guarantee (telemetry on == telemetry off, bit for bit).

The load-bearing invariant is the last one: a `Telemetry` must be a pure
observer.  Serial and sharded `.irgs` output are compared against
un-instrumented references.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from conftest import random_dataset

from repro import Constraints, Farmer, mine_irgs
from repro.cli import main
from repro.core.enumeration import NodeCounters, SearchBudget
from repro.core.farmer import (
    _PROGRESS_QUANTUM,
    FRONTIER_STATE,
    SearchContext,
    enumerate_frontier,
)
from repro.core.serialize import canonical_json, save_rule_groups
from repro.data.transpose import TransposedTable
from repro.errors import DataError, UsageError
from repro.experiments.workloads import build_workload
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    ProgressReporter,
    RunLog,
    Telemetry,
    merge_snapshots,
    read_runlog,
)
from repro.obs.progress import format_count, format_eta

MINSUP = 1


def _serialized(result, tmp_path, tag):
    """The exact bytes ``core.serialize`` writes for ``result``."""
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def _random_snapshot(seed: int) -> MetricsSnapshot:
    """A populated snapshot driven by a seeded registry workload."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for _ in range(rng.randrange(1, 30)):
        registry.inc(f"c.{rng.randrange(4)}", rng.randrange(1, 100))
    for _ in range(rng.randrange(0, 10)):
        registry.set_gauge(f"g.{rng.randrange(3)}", rng.uniform(0, 1000))
    for _ in range(rng.randrange(0, 20)):
        registry.observe(f"t.{rng.randrange(3)}", rng.uniform(0.0001, 10.0))
    return registry.snapshot()


# ----------------------------------------------------------------------
# MetricsRegistry and snapshot algebra
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_sum(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.snapshot().counters["hits"] == 5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(UsageError):
            registry.inc("hits", -1)

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 7.0)
        registry.set_gauge("depth", 3.0)
        assert registry.snapshot().gauges["depth"] == 3.0

    def test_timer_context_and_buckets(self):
        registry = MetricsRegistry()
        with registry.time("step.seconds") as timer:
            pass
        assert timer.elapsed >= 0.0
        stats = registry.snapshot().timers["step.seconds"]
        assert stats.count == 1
        assert stats.minimum == stats.maximum == stats.total
        assert sum(stats.buckets) == 1

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.inc("name")
        with pytest.raises(UsageError):
            registry.set_gauge("name", 1.0)
        with pytest.raises(UsageError):
            registry.observe("name", 0.5)

    def test_snapshot_is_decoupled_from_registry(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        snapshot = registry.snapshot()
        registry.inc("hits")
        assert snapshot.counters["hits"] == 1


def _assert_snapshots_close(left: MetricsSnapshot, right: MetricsSnapshot):
    """Equality up to float rounding in timer totals.

    Counters, gauges, timer counts and histogram buckets are integers or
    max-folds and must match exactly; timer ``total`` is a float sum, so
    re-association may differ in the last ulp.
    """
    assert left.counters == right.counters
    assert left.gauges == right.gauges
    assert sorted(left.timers) == sorted(right.timers)
    for name, stats in left.timers.items():
        other = right.timers[name]
        assert stats.count == other.count, name
        assert stats.buckets == other.buckets, name
        assert stats.minimum == other.minimum, name
        assert stats.maximum == other.maximum, name
        assert stats.total == pytest.approx(other.total), name


class TestSnapshotMergeLaws:
    """merge is associative and commutative with ``empty`` as identity —
    the properties the sharded reduce relies on for scheduling freedom.
    (Associativity of timer totals holds up to float rounding.)"""

    SEEDS = range(12)

    def test_identity(self):
        empty = MetricsSnapshot.empty()
        for seed in self.SEEDS:
            snapshot = _random_snapshot(seed)
            assert snapshot.merge(empty) == snapshot, seed
            assert empty.merge(snapshot) == snapshot, seed

    def test_associativity(self):
        for seed in self.SEEDS:
            a = _random_snapshot(seed)
            b = _random_snapshot(seed + 100)
            c = _random_snapshot(seed + 200)
            _assert_snapshots_close(a.merge(b).merge(c), a.merge(b.merge(c)))

    def test_commutativity(self):
        for seed in self.SEEDS:
            a = _random_snapshot(seed)
            b = _random_snapshot(seed + 100)
            _assert_snapshots_close(a.merge(b), b.merge(a))

    def test_merge_semantics(self):
        left = MetricsRegistry()
        left.inc("n", 2)
        left.set_gauge("peak", 5.0)
        right = MetricsRegistry()
        right.inc("n", 3)
        right.set_gauge("peak", 9.0)
        merged = left.snapshot().merge(right.snapshot())
        assert merged.counters["n"] == 5  # counters sum
        assert merged.gauges["peak"] == 9.0  # gauges keep the peak

    def test_merge_snapshots_folds_many(self):
        parts = [_random_snapshot(seed) for seed in self.SEEDS]
        folded = merge_snapshots(parts)
        expected = MetricsSnapshot.empty()
        for part in parts:
            expected = expected.merge(part)
        _assert_snapshots_close(folded, expected)
        assert merge_snapshots([]) == MetricsSnapshot.empty()

    def test_payload_round_trip_is_json_stable(self):
        payload = _random_snapshot(3).to_payload()
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# RunLog integrity
# ----------------------------------------------------------------------


class TestRunLog:
    def _write(self, tmp_path, events):
        path = tmp_path / "run.jsonl"
        with RunLog(path) as log:
            for kind, fields in events:
                log.emit(kind, **fields)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path,
            [("run_start", {"minsup": 3}), ("phase_start", {"phase": "search"})],
        )
        events = read_runlog(path)
        assert [event["kind"] for event in events] == [
            "run_start",
            "phase_start",
        ]
        assert events[0]["minsup"] == 3
        times = [event["t"] for event in events]
        assert times == sorted(times)

    def test_envelope_is_canonical_json(self, tmp_path):
        """Each line is byte for byte the canonical JSON of its envelope."""
        path = self._write(
            tmp_path,
            [
                ("run_start", {"minsup": 3, "prunings": ["p1", "p3"]}),
                ("metrics", {"counters": {"b": 2, "a": 1}, "note": 'q"\\u00e9'}),
                ("phase_end", {"phase": "search", "seconds": 0.25}),
            ],
        )
        for seq, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            envelope = json.loads(line)
            assert envelope["seq"] == seq
            assert line == canonical_json(envelope)
            assert envelope["sha256"] == hashlib.sha256(
                canonical_json(envelope["event"]).encode("utf-8")
            ).hexdigest()

    def test_reserved_envelope_field_rejected(self, tmp_path):
        # 'kind' is the positional parameter itself, so passing it as a
        # field is a TypeError at call time; 't' reaches the guard.
        with RunLog(tmp_path / "run.jsonl") as log:
            with pytest.raises(UsageError):
                log.emit("evt", t=1.0)

    def test_no_file_until_first_emit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path)
        assert not path.exists()
        log.close()
        assert not path.exists()

    def test_checksum_corruption_detected(self, tmp_path):
        path = self._write(tmp_path, [("run_start", {"minsup": 3})])
        text = path.read_text()
        path.write_text(text.replace('"minsup":3', '"minsup":4'))
        with pytest.raises(DataError):
            read_runlog(path)

    def test_sequence_gap_detected(self, tmp_path):
        path = self._write(
            tmp_path,
            [("a", {}), ("b", {}), ("c", {})],
        )
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(DataError):
            read_runlog(path)

    def test_newer_format_version_rejected_as_usage(self, tmp_path):
        path = self._write(tmp_path, [("a", {})])
        path.write_text(path.read_text().replace("repro-runlog/1", "repro-runlog/2"))
        with pytest.raises(UsageError):
            read_runlog(path)

    def test_foreign_format_rejected_as_data(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"not": "a runlog"}\n')
        with pytest.raises(DataError):
            read_runlog(path)

    def test_torn_final_line_dropped(self, tmp_path):
        path = self._write(tmp_path, [("a", {}), ("b", {})])
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # tear the last record
        events = read_runlog(path)
        assert [event["kind"] for event in events] == ["a"]

    def test_close_idempotent(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl")
        log.emit("a")
        log.close()
        log.close()
        assert len(read_runlog(tmp_path / "run.jsonl")) == 1


# ----------------------------------------------------------------------
# Progress rendering
# ----------------------------------------------------------------------


class _TtyStream(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestProgress:
    def test_format_count(self):
        assert format_count(999) == "999"
        assert format_count(12480) == "12,480"
        assert format_count(310_200) == "310.2k"
        assert format_count(1_500_000) == "1.5M"

    def test_format_eta(self):
        assert format_eta(None) == "--:--"
        assert format_eta(-3) == "--:--"
        assert format_eta(122) == "2:02"
        assert format_eta(3723) == "1:02:03"

    def test_non_tty_plain_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream)
        reporter.update(
            "search", nodes=12480, rate=310_200.0,
            pruned_fraction=0.613, groups=18, eta_seconds=122, force=True,
        )
        text = stream.getvalue()
        assert "\r" not in text
        assert "search" in text
        assert "12,480" in text
        assert "310.2k/s" in text
        assert "61.3%" in text
        assert "2:02" in text

    def test_tty_rewrites_line(self):
        stream = _TtyStream()
        reporter = ProgressReporter(stream)
        reporter.update("search", nodes=1, rate=1.0, force=True)
        reporter.update("search", nodes=2, rate=1.0, force=True)
        reporter.finish("done")
        text = stream.getvalue()
        assert "\r" in text
        assert text.rstrip().endswith("done")

    def test_throttle_without_force(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream)
        reporter.update("search", nodes=1, rate=1.0, force=True)
        reporter.update("search", nodes=2, rate=1.0)  # within interval
        assert stream.getvalue().count("nodes") == 1

    def test_serial_counters_move_mid_mine(self):
        """A live snapshot taken inside the largest root subtree sees
        the nodes walked so far (to within one progress quantum), and
        never more pruned nodes than visited ones."""
        workload = build_workload("LC", scale=0.02)
        telemetry = Telemetry()
        samples = []

        class PollingBudget(SearchBudget):
            # Every 500th node, read the snapshot a `farmer serve`
            # job-status request would, next to the true node count:
            # the walk's chunks end there, where it charges the budget.
            def until_check(self):
                return min(super().until_check(), 499 - self.nodes % 500)

            def check(self, counters):
                span = super().check(counters)
                if self.nodes % 500 == 0:
                    samples.append((self.nodes, telemetry.sample()))
                return span

        # Minsup 4: 144,284 nodes, over four quanta (minsup 5 walks
        # 65,019).
        result = Farmer(
            constraints=Constraints(minsup=4),
            budget=PollingBudget(max_nodes=10**9),
            telemetry=telemetry,
        ).mine(workload.data, workload.consequent)
        assert result.counters.nodes > 4 * _PROGRESS_QUANTUM
        for ticked, snapshot in samples:
            assert snapshot is not None
            assert 0 < snapshot["nodes"] <= ticked
            assert ticked - snapshot["nodes"] < _PROGRESS_QUANTUM
            assert snapshot["pruned"] <= snapshot["nodes"]
        assert samples[-1][1]["nodes"] <= result.counters.nodes

    def test_serial_coverage_weighs_finished_root_children(self):
        """Mid-mine coverage is the candidate-row weight of the root's
        finished children against all of them: the total is the sum of
        the root children's ``estimate()``, and every reading is a
        prefix of those weights in ORD order, growing as the walk
        moves."""
        workload = build_workload("LC", scale=0.02)
        constraints = Constraints(minsup=5)
        miner = Farmer(constraints=constraints)
        table = TransposedTable.build(workload.data, workload.consequent)
        ctx = SearchContext.for_table(table, constraints, miner.prunings)
        children = enumerate_frontier(
            ctx, [(FRONTIER_STATE, ctx.root_state(table))], NodeCounters(),
            [], 1,
        )
        prefixes = [0.0]
        for tag, payload in children:
            if tag == FRONTIER_STATE:
                prefixes.append(prefixes[-1] + payload.estimate())
        telemetry = Telemetry()
        readings = []

        class PollingBudget(SearchBudget):
            def until_check(self):
                return min(super().until_check(), 499 - self.nodes % 500)

            def check(self, counters):
                span = super().check(counters)
                sample = telemetry.sample()
                readings.append(
                    (sample["done_weight"], sample["total_weight"])
                )
                return span

        Farmer(
            constraints=constraints,
            budget=PollingBudget(max_nodes=10**9),
            telemetry=telemetry,
        ).mine(workload.data, workload.consequent)
        # The first check charges the root, before any coverage.
        assert readings[0] == (0.0, 0.0)
        done = [reading[0] for reading in readings[1:]]
        assert {reading[1] for reading in readings[1:]} == {prefixes[-1]}
        assert set(done) <= set(prefixes)
        assert done == sorted(done)
        assert any(0.0 < value < prefixes[-1] for value in done)


# ----------------------------------------------------------------------
# Byte-identity: telemetry is a pure observer
# ----------------------------------------------------------------------


def _telemetry(tmp_path, tag):
    return Telemetry(
        runlog=RunLog(tmp_path / f"{tag}.jsonl"),
        progress=ProgressReporter(io.StringIO(), interval=0.0),
        sample_interval=0.01,
    )


class TestByteIdentity:
    def test_serial_output_identical(self, paper_dataset, tmp_path):
        reference = _serialized(
            mine_irgs(paper_dataset, "C", minsup=MINSUP), tmp_path, "ref"
        )
        telemetry = _telemetry(tmp_path, "serial")
        observed = Farmer(
            Constraints(minsup=MINSUP), telemetry=telemetry
        ).mine(paper_dataset, "C")
        telemetry.close()
        assert _serialized(observed, tmp_path, "obs") == reference
        events = read_runlog(tmp_path / "serial.jsonl")
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "metrics" in kinds

    def test_serial_random_datasets_identical(self, tmp_path):
        for seed in range(6):
            data = random_dataset(seed, max_rows=11)
            reference = _serialized(
                mine_irgs(data, "C", minsup=MINSUP), tmp_path, f"r{seed}"
            )
            telemetry = _telemetry(tmp_path, f"rand-{seed}")
            observed = Farmer(
                Constraints(minsup=MINSUP), telemetry=telemetry
            ).mine(data, "C")
            telemetry.close()
            assert _serialized(observed, tmp_path, f"o{seed}") == reference, seed

    def test_sharded_output_identical(self, paper_dataset, tmp_path):
        reference = _serialized(
            mine_irgs(paper_dataset, "C", minsup=MINSUP, n_workers=2),
            tmp_path,
            "bare",
        )
        telemetry = _telemetry(tmp_path, "sharded")
        observed = Farmer(
            Constraints(minsup=MINSUP), n_workers=2, telemetry=telemetry
        ).mine(paper_dataset, "C")
        telemetry.close()
        assert _serialized(observed, tmp_path, "shobs") == reference
        kinds = {event["kind"] for event in read_runlog(tmp_path / "sharded.jsonl")}
        assert {"run_start", "task_done", "run_end"} <= kinds

    def test_run_end_snapshot_has_search_counters(self, paper_dataset, tmp_path):
        telemetry = _telemetry(tmp_path, "counters")
        result = Farmer(
            Constraints(minsup=MINSUP), telemetry=telemetry
        ).mine(paper_dataset, "C")
        telemetry.close()
        events = read_runlog(tmp_path / "counters.jsonl")
        metrics = next(e for e in events if e["kind"] == "metrics")
        assert metrics["counters"]["search.nodes"] == result.counters.nodes
        assert "phase.search.seconds" in metrics["timers"]


# ----------------------------------------------------------------------
# Kernel bound-scan counters
# ----------------------------------------------------------------------

#: The ``kernel.*`` counters of an observed mine per sweep point
#: ``(dataset, minsup, minconf, prunings, n_workers)``, all at scale
#: 0.02.  The walk counts the scans and their tables' rows, the tables
#: their early exits, and ``n_workers=1`` counts the sharded
#: coordinator's expansions too.  With Pruning 2 on, every table holds
#: only the items that can still reach minsup at its node, so the tight
#: support bound cannot fire and the walk scans only for the confidence
#: bound: none at minconf 0 (LC, BC, CT), some at ALL's 0.9.  PC runs
#: without Pruning 2, so every positive node with candidates scans.
KERNEL_COUNTERS = {
    ("LC", 14, 0.0, ("p1", "p2", "p3"), None): (0, 0, 0, 0),
    ("BC", 6, 0.0, ("p1", "p2", "p3"), None): (0, 0, 0, 0),
    ("ALL", 5, 0.9, ("p1", "p2", "p3"), None): (1640, 6012, 6022, 36),
    ("PC", 9, 0.0, ("p1", "p3"), None): (9453, 19471, 19492, 380),
    ("CT", 3, 0.0, ("p1", "p2", "p3"), 1): (0, 0, 0, 0),
}


@pytest.mark.parametrize("point", sorted(KERNEL_COUNTERS))
def test_kernel_counters_are_pinned(point):
    dataset, minsup, minconf, prunings, n_workers = point
    workload = build_workload(dataset, scale=0.02)
    telemetry = Telemetry()
    Farmer(
        Constraints(minsup=minsup, minconf=minconf),
        prunings=prunings,
        telemetry=telemetry,
        n_workers=n_workers,
    ).mine(workload.data, workload.consequent)
    counters = telemetry.registry.snapshot().counters
    assert tuple(
        counters[f"kernel.{name}"]
        for name in (
            "bound_scans", "bound_rows_scanned", "bound_rows_total",
            "bound_early_exits",
        )
    ) == KERNEL_COUNTERS[point]


def _walk_readings(miner_class=Farmer, **knobs):
    """An observed mine of ALL at scale 0.02, minsup 5, minconf 0.8 (the
    confidence bound makes the walk scan): its ``search.*`` and
    ``kernel.*`` counters, its gauges and the miner."""
    workload = build_workload("ALL", scale=0.02)
    telemetry = Telemetry()
    miner = miner_class(
        Constraints(minsup=5, minconf=0.8), telemetry=telemetry, **knobs
    )
    miner.mine(workload.data, workload.consequent)
    snapshot = telemetry.registry.snapshot()
    counters = {
        name: value
        for name, value in snapshot.counters.items()
        if name.startswith(("search.", "kernel."))
    }
    return counters, snapshot.gauges, miner


def test_warm_capture_reports_the_cold_walk(tmp_path):
    """A warm-cache capture is the cold mine's serial search: under
    telemetry it reports the same node and bound-scan counters and the
    enumeration rate."""
    cold, _, _ = _walk_readings()
    capture, gauges, _ = _walk_readings(warm_cache=str(tmp_path / "cache"))
    assert cold["search.nodes"] == 11052
    assert cold["kernel.bound_scans"] > 0
    assert capture == cold
    assert gauges["progress.nodes_per_sec"] > 0
    assert gauges["frontier.reuse_fraction"] == 0.0


def test_trace_unchanged_by_telemetry(paper_dataset, monkeypatch):
    """The tracer's walk under telemetry reports progress, every few
    nodes here, and records the same tree and counters as without."""
    from repro.core import farmer
    from repro.core.trace import TracingFarmer

    monkeypatch.setattr(farmer, "_PROGRESS_QUANTUM", 3)

    def traced(telemetry):
        miner = TracingFarmer(
            constraints=Constraints(minsup=1), telemetry=telemetry
        )
        result = miner.mine(paper_dataset, "C")
        return miner.trace_root, result.counters

    telemetry = Telemetry()
    root, counters = traced(telemetry)
    assert root.size() > 3 * 3
    assert (root, counters) == traced(None)
    assert telemetry.registry.snapshot().counters["search.nodes"] == counters.nodes


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------


class TestCliEndToEnd:
    def test_mine_with_progress_and_metrics_out(self, tmp_path, capsys):
        bare = tmp_path / "bare.irgs"
        code = main(
            [
                "mine",
                "--dataset",
                "LC",
                "--scale",
                "0.01",
                "--minsup",
                "8",
                "--save",
                str(bare),
            ]
        )
        assert code == 0
        observed = tmp_path / "observed.irgs"
        runlog = tmp_path / "run.jsonl"
        code = main(
            [
                "mine",
                "--dataset",
                "LC",
                "--scale",
                "0.01",
                "--minsup",
                "8",
                "--save",
                str(observed),
                "--progress",
                "--metrics-out",
                str(runlog),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert observed.read_bytes() == bare.read_bytes()
        assert f"wrote run log to {runlog}" in captured.out
        assert "mined" in captured.err  # progress summary on stderr
        events = read_runlog(runlog)
        assert events[0] == {**events[0], "kind": "phase_start", "phase": "load"}
        assert events[-1] == {
            **events[-1], "kind": "phase_end", "phase": "serialize"
        }
        kinds = [event["kind"] for event in events]
        assert kinds.count("run_start") == kinds.count("run_end") == 1

    @pytest.mark.parametrize(
        "command, answer",
        [
            ("mine", ["search"]),
            ("remine", ["plan", "capture", "persist"]),
        ],
    )
    @pytest.mark.parametrize("save", [True, False])
    def test_run_log_phase_order(self, command, answer, save, tmp_path):
        """Prep phases open the log and serialization closes it: load,
        discretize and transpose run before the miner's ``run_start``,
        and ``serialize`` (only with ``--save``) after its ``run_end``."""
        runlog = tmp_path / "run.jsonl"
        argv = [
            command, "--dataset", "CT", "--scale", "0.02", "--minsup", "5",
            "--top", "0", "--metrics-out", str(runlog),
        ]
        if command == "remine":
            argv += ["--warm-cache", str(tmp_path / "cache")]
        if save:
            argv += ["--save", str(tmp_path / "out.irgs")]
        assert main(argv) == 0
        order = []
        for event in read_runlog(runlog):
            if event["kind"] == "phase_start":
                order.append(event["phase"])
            elif event["kind"] in ("run_start", "run_end"):
                order.append(event["kind"])
        assert order == [
            "load", "discretize", "transpose", "run_start", *answer,
            "build", "run_end", *(["serialize"] if save else []),
        ]

    def test_bad_run_log_path_fails_before_load(self, tmp_path, monkeypatch):
        import repro.cli

        def must_not_load(args):
            raise AssertionError("loaded before the run log opened")

        monkeypatch.setattr(repro.cli, "_load_matrix", must_not_load)
        with pytest.raises(OSError):
            main([
                "mine", "--dataset", "CT", "--scale", "0.02", "--minsup", "5",
                "--metrics-out", str(tmp_path / "missing" / "run.jsonl"),
            ])


# ----------------------------------------------------------------------
# Documentation catalogue coverage
# ----------------------------------------------------------------------


class TestDocsCatalogue:
    """Every emitted metric and event name is documented."""

    @pytest.fixture(scope="class")
    def catalogue(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("catalogue")
        data_holder = {}

        def run(tag, **farmer_kwargs):
            from conftest import letter_items  # paper fixture is function-scoped

            from repro.data.dataset import ItemizedDataset

            if "data" not in data_holder:
                rows = [
                    letter_items("abclos"),
                    letter_items("adehplr"),
                    letter_items("acehoqt"),
                    letter_items("aefhpr"),
                    letter_items("bdfglqst"),
                ]
                data_holder["data"] = ItemizedDataset.from_lists(
                    rows,
                    ["C", "C", "C", "N", "N"],
                    n_items=20,
                    name="figure1",
                )
            telemetry = _telemetry(tmp_path, tag)
            Farmer(
                Constraints(minsup=MINSUP), telemetry=telemetry, **farmer_kwargs
            ).mine(data_holder["data"], "C")
            telemetry.close()
            return read_runlog(tmp_path / f"{tag}.jsonl")

        serial = run("serial")
        sharded = run("sharded", n_workers=2)
        kinds, names = set(), set()
        for event in serial + sharded:
            kinds.add(event["kind"])
            if event["kind"] == "metrics":
                for section in ("counters", "gauges", "timers"):
                    names.update(event.get(section, {}))
        return kinds, names

    def test_all_emitted_names_documented(self, catalogue):
        doc = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "observability.md"
        ).read_text()
        kinds, names = catalogue
        missing = sorted(
            {kind for kind in kinds if f"`{kind}`" not in doc}
            | {name for name in names if f"`{name}`" not in doc}
        )
        assert not missing, f"undocumented metrics/events: {missing}"

    def test_catalogue_is_substantial(self, catalogue):
        kinds, names = catalogue
        assert {"run_start", "phase_start", "phase_end", "metrics", "run_end"} <= kinds
        assert any(name.startswith("search.") for name in names)
        assert any(name.startswith("parallel.") for name in names)
        assert any(name.startswith("kernel.") for name in names)
