"""Randomized-schedule stress suite for the work-stealing scheduler.

Two layers:

* **Virtual scheduler** (:mod:`scheduling`) — hypothesis draws datasets
  *and* adversarial schedules (dispatch order, quanta, split points,
  kills, advisory races) and asserts the stitched/replayed output is
  byte-identical to the serial miner, with shrinking down to a minimal
  interleaving on failure.  Traces round-trip through the checksummed
  envelope so a failing schedule can be replayed bit-for-bit.
* **End-to-end sweep** — the real process-pool scheduler under
  ``--steal`` for worker counts {1,2,4}, a seeded kill-anywhere ×
  steal-anywhere chaos sweep (donor deaths, thief deaths, plain worker
  deaths at every shard coordinate); all must serialize the serial
  miner's exact bytes.

Run the nightly profile for the deep sweep:
``pytest tests/test_scheduling.py --hypothesis-profile=nightly``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import MINEABLE_SHAPES, assert_fault_free, handoff, random_dataset
from scheduling import (
    MAX_ATTEMPTS,
    Schedule,
    load_trace,
    run_schedule,
    save_trace,
    serialized_store,
)
from strategies import skewed_datasets

from repro import Constraints, Farmer, mine_irgs
from repro.core.serialize import save_rule_groups
from repro.errors import DataError

CONSTRAINTS = Constraints(minsup=1, minconf=0.0)

WORKER_COUNTS = (1, 2, 4)


def _serial_bytes(data, path, constraints=CONSTRAINTS):
    result = Farmer(constraints=constraints).mine(data, "C")
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes(), result


def _result_bytes(result, path):
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


#: Short lists of small ints explore long interleavings because each
#: decision stream cycles independently (see ``scheduling.Schedule``).
schedules = st.builds(
    Schedule,
    picks=st.lists(st.integers(0, 64), max_size=8).map(tuple),
    quanta=st.lists(st.integers(1, 9), max_size=4).map(tuple),
    splits=st.lists(st.integers(0, 8), max_size=4).map(tuple),
    kills=st.lists(st.integers(0, 1), max_size=5).map(tuple),
    advisories=st.lists(st.integers(0, 1), max_size=3).map(tuple),
)


class TestVirtualScheduler:
    """Byte-identity under adversarial schedules, with shrinking."""

    @given(
        seed=st.integers(0, 2**16),
        shape=st.sampled_from((None,) + MINEABLE_SHAPES),
        schedule=schedules,
    )
    def test_any_schedule_matches_serial(
        self, seed, shape, schedule, tmp_path_factory
    ):
        data = random_dataset(seed, shape=shape)
        workdir = tmp_path_factory.mktemp("vsched")
        reference, serial = _serial_bytes(data, workdir / "serial.irgs")
        run = run_schedule(data, "C", CONSTRAINTS, schedule)
        virtual = serialized_store(
            data, "C", CONSTRAINTS, run.store, workdir / "virtual.irgs"
        )
        assert virtual == reference
        # Every node expanded exactly once somewhere, advisory drops and
        # replay rejects partition the serial rejects — so the counters
        # (minus the emission count the harness skips) match.
        assert replace(run.counters, groups_emitted=0) == replace(
            serial.counters, groups_emitted=0
        )

    @given(data=skewed_datasets(), schedule=schedules)
    def test_skewed_workloads_match_serial(
        self, data, schedule, tmp_path_factory
    ):
        workdir = tmp_path_factory.mktemp("vskew")
        reference, _ = _serial_bytes(data, workdir / "serial.irgs")
        run = run_schedule(data, "C", CONSTRAINTS, schedule)
        virtual = serialized_store(
            data, "C", CONSTRAINTS, run.store, workdir / "virtual.irgs"
        )
        assert virtual == reference

    @given(schedule=schedules)
    def test_numpy_engine_steals_identically(
        self, schedule, tmp_path_factory
    ):
        """The frontier walker is representation-generic: all packed
        tables, and frontiers that mix packed and int-mask tables (a
        hand-off cutoff inside the tree's widths), survive the same
        adversarial schedules byte-for-byte."""
        data = random_dataset(5, max_rows=8)
        workdir = tmp_path_factory.mktemp("vnumpy")
        reference, _ = _serial_bytes(data, workdir / "serial.irgs")
        for cutoff in (0, data.n_items // 2):
            with handoff(cutoff):
                run = run_schedule(data, "C", CONSTRAINTS, schedule)
            virtual = serialized_store(
                data, "C", CONSTRAINTS, run.store, workdir / "virtual.irgs"
            )
            assert virtual == reference, cutoff

    def test_trace_round_trip_replays_identically(self, tmp_path):
        """A persisted schedule replays to the same bytes and the same
        decision trace — the trace envelope is the frontier entries'
        one."""
        data = random_dataset(3, max_rows=9)
        schedule = Schedule(
            picks=(3, 0, 5), quanta=(2, 7), splits=(1, 0, 4), kills=(0, 1)
        )
        first = run_schedule(data, "C", CONSTRAINTS, schedule)
        save_trace(tmp_path / "trace.ckpt", schedule)
        replayed = run_schedule(
            data, "C", CONSTRAINTS, load_trace(tmp_path / "trace.ckpt")
        )
        assert first.trace == replayed.trace
        assert serialized_store(
            data, "C", CONSTRAINTS, first.store, tmp_path / "a.irgs"
        ) == serialized_store(
            data, "C", CONSTRAINTS, replayed.store, tmp_path / "b.irgs"
        )
        assert first.counters == replayed.counters

    def test_corrupt_trace_rejected(self, tmp_path):
        """The envelope checksum guards replays like cache entries."""
        path = tmp_path / "trace.ckpt"
        save_trace(path, Schedule(picks=(1,)))
        text = path.read_text()
        tampered = text.replace("[1]", "[2]")
        assert tampered != text
        path.write_text(tampered)
        with pytest.raises(DataError):
            load_trace(path)

    def test_kill_everything_still_terminates(self, tmp_path):
        """An all-kill schedule exhausts attempts and completes."""
        data = random_dataset(11, max_rows=9)
        reference, _ = _serial_bytes(data, tmp_path / "serial.irgs")
        run = run_schedule(
            data, "C", CONSTRAINTS, Schedule(quanta=(1,), kills=(1,))
        )
        assert run.kills > 0
        assert serialized_store(
            data, "C", CONSTRAINTS, run.store, tmp_path / "v.irgs"
        ) == reference

    def test_max_attempts_bounds_each_part(self):
        data = random_dataset(11, max_rows=9)
        run = run_schedule(
            data, "C", CONSTRAINTS, Schedule(quanta=(1,), kills=(1,))
        )
        per_part = {}
        for event in run.trace:
            if event["killed"]:
                per_part[event["part"]] = per_part.get(event["part"], 0) + 1
        assert per_part and all(
            kills <= MAX_ATTEMPTS - 1 for kills in per_part.values()
        )


def _skew_dataset():
    """A deterministic dominant-subtree dataset (the Fig-10 skew)."""
    import random as _random

    rng = _random.Random(11)
    rows, labels = [], []
    for index in range(12):
        rows.append(sorted(rng.sample(range(16), 13)))
        labels.append("C" if index % 4 else "N")
    for index in range(12):
        rows.append(sorted(rng.sample(range(16, 36), rng.randint(2, 3))))
        labels.append("C" if index % 3 else "N")
    from repro.data.dataset import ItemizedDataset

    return ItemizedDataset.from_lists(rows, labels, n_items=36)


class TestEndToEndStealing:
    """The real pool scheduler: bytes pinned against the serial miner."""

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_stealing_is_byte_identical(self, n_workers, tmp_path):
        data = _skew_dataset()
        constraints = Constraints(minsup=3, minconf=0.5)
        reference, serial = _serial_bytes(
            data, tmp_path / "serial.irgs", constraints
        )
        stealing = mine_irgs(
            data, "C", minsup=3, minconf=0.5, n_workers=n_workers, steal=True
        )
        assert _result_bytes(stealing, tmp_path / "steal.irgs") == reference
        assert stealing.counters == serial.counters
        assert_fault_free(stealing)
        static = mine_irgs(
            data, "C", minsup=3, minconf=0.5, n_workers=n_workers
        )
        assert _result_bytes(static, tmp_path / "static.irgs") == reference
        assert_fault_free(static)

    def test_stealing_actually_steals_on_skew(self, tmp_path):
        """The dominant subtree keeps fissioning while the queue drains
        — donations must occur, and with enough workers, splits too."""
        data = _skew_dataset()
        result = Farmer(
            constraints=Constraints(minsup=3, minconf=0.5),
            n_workers=4,
            steal=True,
            steal_quantum=256,
        ).mine(data, "C")
        assert result.parallel.stealing
        assert result.parallel.donations > 0
        assert result.parallel.parts > result.parallel.n_tasks
        assert_fault_free(result)

    def test_kill_anywhere_steal_anywhere_sweep(self, tmp_path, chaos):
        """Seeded sweep: every fault family × every early shard, under
        stealing — donor deaths, thief deaths, plain worker deaths."""
        data = _skew_dataset()
        constraints = Constraints(minsup=3, minconf=0.5)
        reference, serial = _serial_bytes(
            data, tmp_path / "serial.irgs", constraints
        )
        for mode in ("donor-raise", "steal-raise", "raise", "kill"):
            for shard in (0, 1, 2):
                chaos.arm(f"{mode}:shard={shard}:times=1")
                result = mine_irgs(
                    data,
                    "C",
                    minsup=3,
                    minconf=0.5,
                    n_workers=4,
                    steal=True,
                )
                chaos.disarm()
                tag = f"{mode}-{shard}"
                assert (
                    _result_bytes(result, tmp_path / f"{tag}.irgs")
                    == reference
                ), tag
                assert result.counters == serial.counters, tag
