"""Checkpoint/resume and fault-injection suite for the sharded miner.

Three contracts are pinned here:

* **Kill-anywhere determinism** — a run killed after *any* checkpoint
  write and resumed from that checkpoint produces byte-identical
  serialized output (and identical merged counters) to an uninterrupted
  run, for every checkpoint index and worker count.
* **Fault tolerance** — a worker that is SIGKILLed, stalls forever, or
  raises is retried/requeued/degraded per
  :class:`~repro.core.parallel.RetryPolicy` and the run still completes
  with byte-identical output; a worker death is surfaced immediately
  (child exit code ``-9`` recorded), not treated as a hang.
* **Checkpoint integrity** — corrupt, truncated or wrong-run checkpoint
  files are rejected with :class:`~repro.errors.DataError`; files from a
  newer format version with :class:`~repro.errors.UsageError`; state
  round-trips serialize -> deserialize -> serialize to identical bytes.

All faults are injected at logical coordinates (shard index, attempt
number, checkpoint write count) via :mod:`repro.testing.chaos` — no
sleeps, no wall-clock coupling, no randomness in what fires when.
"""

import dataclasses
import hashlib
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_dataset

import repro
from repro.core.checkpoint import (
    Checkpointer,
    CheckpointState,
    TaskRecord,
    candidate_from_row,
    run_fingerprint,
)
from repro.core.constraints import Constraints
from repro.core.enumeration import NodeCounters, SearchBudget
from repro.core.farmer import Candidate, Farmer, mine_irgs
from repro.core.parallel import RetryPolicy
from repro.core.serialize import (
    CHECKPOINT_FORMAT,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    save_rule_groups,
)
from repro.data.transpose import TransposedTable
from repro.errors import DataError, UsageError
from repro.testing.chaos import ChaosSpec, InjectedFault, active_spec, _parse

MINSUP = 1
NO_BACKOFF = RetryPolicy(backoff_base=0.0)


def _serialized(result, tmp_path, tag):
    """The exact bytes ``core.serialize`` writes for ``result``."""
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def _baseline(data, tmp_path, tag="baseline"):
    """Serial reference run (no pools, no checkpoints, no chaos)."""
    result = mine_irgs(data, "C", minsup=MINSUP)
    return result, _serialized(result, tmp_path, tag)


# ----------------------------------------------------------------------
# The chaos harness itself
# ----------------------------------------------------------------------


class TestChaosSpec:
    """Spec parsing and matching are exact and fail loudly."""

    def test_unset_means_no_faults(self, monkeypatch):
        monkeypatch.delenv("FARMER_CHAOS", raising=False)
        assert active_spec() is None

    def test_parses_fields(self):
        spec = _parse("kill:shard=2:times=1")
        assert spec == ChaosSpec(mode="kill", shard=2, times=1)
        assert spec.matches_worker(2, 0)
        assert not spec.matches_worker(2, 1)  # second attempt survives
        assert not spec.matches_worker(1, 0)  # other shards untouched

    def test_unscoped_worker_spec_matches_everything(self):
        spec = _parse("raise")
        assert spec.matches_worker(0, 0) and spec.matches_worker(7, 5)
        assert not spec.matches_checkpoint(1)

    def test_checkpoint_spec(self):
        spec = _parse("ckpt-raise:after=3")
        assert spec.matches_checkpoint(3)
        assert not spec.matches_checkpoint(2)
        assert not spec.matches_worker(0, 0)

    @pytest.mark.parametrize(
        "bad",
        ["explode", "kill:shards=1", "kill:shard=x", "raise:times=2", ""],
    )
    def test_bad_specs_rejected(self, bad, monkeypatch):
        if bad == "":
            monkeypatch.setenv("FARMER_CHAOS", bad)
            assert active_spec() is None  # empty = unset, not an error
            return
        with pytest.raises(UsageError):
            _parse(bad)


class TestWorkerFaults:
    """Crashed / stalled / raising workers never change the output."""

    def _mine(self, data, n_workers=2, retry=NO_BACKOFF):
        miner = Farmer(
            constraints=Constraints(minsup=MINSUP),
            n_workers=n_workers,
            retry=retry,
        )
        return miner.mine(data, "C")

    def test_sigkilled_worker_is_requeued(self, paper_dataset, tmp_path, chaos):
        _, reference = _baseline(paper_dataset, tmp_path)
        chaos.arm("kill:shard=1:times=1")
        result = self._mine(paper_dataset)
        assert result.parallel.n_tasks > 1
        assert _serialized(result, tmp_path, "kill") == reference
        # The death was surfaced immediately as a broken pool, with the
        # child's SIGKILL exit code recorded — not sat out as a hang.
        assert result.parallel.pool_failures >= 1
        assert result.parallel.retries >= 1
        assert -signal.SIGKILL in result.parallel.worker_exit_codes

    def test_raising_task_is_retried_without_pool_loss(
        self, paper_dataset, tmp_path, chaos
    ):
        _, reference = _baseline(paper_dataset, tmp_path)
        chaos.arm("raise:shard=0:times=1")
        result = self._mine(paper_dataset)
        assert _serialized(result, tmp_path, "raise") == reference
        assert result.parallel.retries >= 1
        assert result.parallel.pool_failures == 0  # the worker survived

    def test_stalled_worker_is_reaped_by_heartbeat(
        self, paper_dataset, tmp_path, chaos
    ):
        _, reference = _baseline(paper_dataset, tmp_path)
        chaos.arm("stall:shard=1:times=1")
        result = self._mine(
            paper_dataset,
            retry=RetryPolicy(backoff_base=0.0, shard_timeout=0.25),
        )
        assert _serialized(result, tmp_path, "stall") == reference
        assert result.parallel.pool_failures >= 1

    def test_permanently_crashing_worker_degrades_to_inline(
        self, paper_dataset, tmp_path, chaos
    ):
        """Every pool attempt dies; the run must still complete (exit 0
        semantics) via the degradation ladder's inline fallback."""
        _, reference = _baseline(paper_dataset, tmp_path)
        chaos.arm("kill")
        result = self._mine(
            paper_dataset,
            retry=RetryPolicy(backoff_base=0.0, max_attempts=2, degrade_after=1),
        )
        assert _serialized(result, tmp_path, "perm") == reference
        assert result.parallel.inline_tasks > 0
        assert result.parallel.pool_failures >= 1

    def test_permanently_raising_task_falls_back_inline(
        self, paper_dataset, tmp_path, chaos
    ):
        _, reference = _baseline(paper_dataset, tmp_path)
        chaos.arm("raise")
        result = self._mine(
            paper_dataset, retry=RetryPolicy(backoff_base=0.0, max_attempts=2)
        )
        assert _serialized(result, tmp_path, "raise-perm") == reference
        assert result.parallel.inline_tasks > 0

    def test_counters_identical_under_faults(self, paper_dataset, chaos):
        serial = mine_irgs(paper_dataset, "C", minsup=MINSUP)
        clean = self._mine(paper_dataset)
        chaos.arm("kill:shard=0:times=1")
        result = self._mine(paper_dataset)
        # A retried shard reruns from its root, so the counters match
        # the serial run and the fault-free sharded run exactly.
        assert result.counters == serial.counters
        assert result.counters == clean.counters


# ----------------------------------------------------------------------
# Kill-anywhere differential resume
# ----------------------------------------------------------------------


class TestKillAnywhere:
    """Crash after the k-th checkpoint write, resume, compare bytes —
    for every k and several worker counts."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_resume_is_byte_identical_at_every_checkpoint(
        self, paper_dataset, tmp_path, chaos, n_workers
    ):
        serial, reference = _baseline(paper_dataset, tmp_path)
        full = mine_irgs(
            paper_dataset,
            "C",
            minsup=MINSUP,
            n_workers=n_workers,
            checkpoint=str(tmp_path / "full.ckpt"),
        )
        writes = full.parallel.checkpoints_written
        assert writes >= 2, "dataset too small to exercise the sweep"
        assert _serialized(result=full, tmp_path=tmp_path, tag="full") == reference

        for k in range(1, writes + 1):
            ckpt = str(tmp_path / f"crash-{n_workers}-{k}.ckpt")
            chaos.arm(f"ckpt-raise:after={k}")
            with pytest.raises(InjectedFault):
                mine_irgs(
                    paper_dataset,
                    "C",
                    minsup=MINSUP,
                    n_workers=n_workers,
                    checkpoint=ckpt,
                )
            chaos.disarm()
            resumed = mine_irgs(
                paper_dataset,
                "C",
                minsup=MINSUP,
                n_workers=n_workers,
                resume=ckpt,
            )
            tag = f"resumed-{n_workers}-{k}"
            assert _serialized(resumed, tmp_path, tag) == reference, k
            # Counters ride in the checkpoint's task records, so a
            # resumed run reports the uninterrupted runs' counters.
            assert resumed.counters == serial.counters, k
            assert resumed.counters == full.counters, k
            assert resumed.parallel.resumed_tasks >= k

    def test_resume_with_different_worker_count(
        self, paper_dataset, tmp_path, chaos
    ):
        """The checkpoint pins the decomposition, so the shard structure
        (and the output) survives a worker-count change on resume."""
        _, reference = _baseline(paper_dataset, tmp_path)
        for resume_workers in (1, 4):
            ckpt = str(tmp_path / f"w-{resume_workers}.ckpt")
            chaos.arm("ckpt-raise:after=2")
            with pytest.raises(InjectedFault):
                mine_irgs(
                    paper_dataset,
                    "C",
                    minsup=MINSUP,
                    n_workers=2,
                    checkpoint=ckpt,
                )
            chaos.disarm()
            resumed = mine_irgs(
                paper_dataset,
                "C",
                minsup=MINSUP,
                n_workers=resume_workers,
                resume=ckpt,
            )
            tag = f"reworkered-{resume_workers}"
            assert _serialized(resumed, tmp_path, tag) == reference

    def test_resume_of_complete_checkpoint_runs_nothing(
        self, paper_dataset, tmp_path
    ):
        _, reference = _baseline(paper_dataset, tmp_path)
        ckpt = str(tmp_path / "complete.ckpt")
        full = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2, checkpoint=ckpt
        )
        resumed = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2, resume=ckpt
        )
        assert _serialized(resumed, tmp_path, "complete") == reference
        assert resumed.parallel.resumed_tasks == full.parallel.n_tasks

    def test_parent_task_records_with_cache_counters_resume(
        self, paper_dataset, tmp_path, chaos
    ):
        """``repro-checkpoint/2`` task records written while the walk
        still memoized its bounds carry ``cache_hits``/``cache_misses``
        counters.  They still load, the extra keys are ignored, and the
        resume is byte-identical."""
        serial, reference = _baseline(paper_dataset, tmp_path)
        ckpt = tmp_path / "parent.ckpt"
        chaos.arm("ckpt-raise:after=1")
        with pytest.raises(InjectedFault):
            mine_irgs(
                paper_dataset, "C", minsup=MINSUP, n_workers=2,
                checkpoint=str(ckpt),
            )
        chaos.disarm()
        payload = load_checkpoint(ckpt)
        assert payload["completed"]
        for record in payload["completed"]:
            record["counters"].update(cache_hits=6204, cache_misses=14414)
        save_checkpoint(ckpt, payload)
        for record in payload["completed"]:
            assert TaskRecord.from_payload(record).counters == NodeCounters(
                **{
                    name: value
                    for name, value in record["counters"].items()
                    if not name.startswith("cache_")
                }
            )
        resumed = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2, resume=str(ckpt)
        )
        assert _serialized(resumed, tmp_path, "resumed") == reference
        assert resumed.counters == serial.counters
        assert resumed.parallel.resumed_tasks >= 1

    def test_random_datasets_resume_identically(self, tmp_path, chaos):
        """The invariant is not special to the paper example."""
        exercised = 0
        for seed in range(6):
            data = random_dataset(seed + 40)
            result, reference = _baseline(data, tmp_path, f"rand-{seed}")
            probe = mine_irgs(
                data, "C", minsup=MINSUP, n_workers=2,
                checkpoint=str(tmp_path / f"probe-{seed}.ckpt"),
            )
            if probe.parallel.checkpoints_written == 0:
                # Tiny tree: the coordinator expanded everything during
                # decomposition, so there are no shards to checkpoint.
                continue
            exercised += 1
            ckpt = str(tmp_path / f"rand-{seed}.ckpt")
            chaos.arm("ckpt-raise:after=1")
            with pytest.raises(InjectedFault):
                mine_irgs(
                    data, "C", minsup=MINSUP, n_workers=2, checkpoint=ckpt
                )
            chaos.disarm()
            resumed = mine_irgs(
                data, "C", minsup=MINSUP, n_workers=2, resume=ckpt
            )
            assert (
                _serialized(resumed, tmp_path, f"rand-resumed-{seed}")
                == reference
            ), seed
        assert exercised >= 2, "too few seeds decomposed into shards"


class TestTrueSigkill:
    """One end-to-end crash: the coordinator process is SIGKILLed after
    the first durable checkpoint write, then resumed in this process."""

    ROWS = [[0, 1, 2], [0, 3, 4], [0, 2, 5], [3, 4, 5], [1, 2, 3, 4]]
    LABELS = ["C", "C", "C", "N", "N"]

    def _dataset(self):
        from repro.data.dataset import ItemizedDataset

        return ItemizedDataset.from_lists(self.ROWS, self.LABELS, n_items=6)

    def test_sigkilled_run_resumes_byte_identical(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "killed.ckpt"
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.data.dataset import ItemizedDataset\n"
            "from repro.core.farmer import mine_irgs\n"
            f"data = ItemizedDataset.from_lists({self.ROWS!r}, "
            f"{self.LABELS!r}, n_items=6)\n"
            f"mine_irgs(data, 'C', minsup=1, n_workers=1, "
            f"checkpoint={str(ckpt)!r})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["FARMER_CHAOS"] = "ckpt-kill:after=1"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert ckpt.exists()

        monkeypatch.delenv("FARMER_CHAOS", raising=False)
        data = self._dataset()
        serial = mine_irgs(data, "C", minsup=1)
        reference = _serialized(serial, tmp_path, "sigkill-serial")
        resumed = mine_irgs(data, "C", minsup=1, n_workers=1, resume=str(ckpt))
        assert resumed.parallel.resumed_tasks >= 1
        assert _serialized(resumed, tmp_path, "sigkill-resumed") == reference


# ----------------------------------------------------------------------
# Checkpoint file integrity
# ----------------------------------------------------------------------


class TestCheckpointRobustness:
    """Corrupt or mismatched checkpoints fail loudly, never silently."""

    def _written(self, paper_dataset, tmp_path) -> Path:
        ckpt = tmp_path / "good.ckpt"
        mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2,
            checkpoint=str(ckpt),
        )
        assert ckpt.exists()
        return ckpt

    def test_missing_file_is_data_error_on_load(self, tmp_path):
        with pytest.raises(DataError):
            CheckpointState.load(tmp_path / "nope.ckpt")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, paper_dataset, tmp_path):
        ckpt = self._written(paper_dataset, tmp_path)
        lines = ckpt.read_text().splitlines()
        ckpt.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(ckpt)

    def test_missing_payload_line_rejected(self, paper_dataset, tmp_path):
        ckpt = self._written(paper_dataset, tmp_path)
        ckpt.write_text(ckpt.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(ckpt)

    def test_flipped_byte_rejected(self, paper_dataset, tmp_path):
        ckpt = self._written(paper_dataset, tmp_path)
        raw = bytearray(ckpt.read_bytes())
        # Flip a byte well inside the payload line.
        position = len(raw) - 10
        raw[position] = raw[position] ^ 0x01
        ckpt.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            load_checkpoint(ckpt)

    def test_non_checkpoint_file_rejected(self, paper_dataset, tmp_path):
        irgs = tmp_path / "groups.irgs"
        result = mine_irgs(paper_dataset, "C", minsup=MINSUP)
        save_rule_groups(irgs, result.groups, constraints=result.constraints)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(irgs)

    def test_newer_format_version_is_usage_error(self, tmp_path):
        path = tmp_path / "future.ckpt"
        body = canonical_json({"from": "the future"})
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        header = canonical_json(
            {"format": "repro-checkpoint/99", "sha256": digest}
        )
        path.write_text(header + "\n" + body + "\n")
        with pytest.raises(UsageError, match="not supported"):
            load_checkpoint(path)

    def test_previous_format_version_is_usage_error(self, tmp_path):
        """A ``/1`` file stored item-mask advisory triples; reading them
        as row masks could drop a candidate that belongs in the output,
        so it is refused like any other version."""
        path = tmp_path / "old.ckpt"
        body = canonical_json({"advisory": [[-0.5, 6, 2]]})
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        header = canonical_json({"format": "repro-checkpoint/1", "sha256": digest})
        path.write_text(header + "\n" + body + "\n")
        with pytest.raises(UsageError, match="re-run without --resume"):
            load_checkpoint(path)

    def test_resume_rejects_other_dataset(self, paper_dataset, tmp_path):
        ckpt = self._written(paper_dataset, tmp_path)
        other = random_dataset(7)
        with pytest.raises(DataError, match="different run"):
            mine_irgs(other, "C", minsup=MINSUP, n_workers=2, resume=str(ckpt))

    def test_resume_rejects_other_constraints(self, paper_dataset, tmp_path):
        ckpt = self._written(paper_dataset, tmp_path)
        with pytest.raises(DataError, match="different run"):
            mine_irgs(
                paper_dataset, "C", minsup=MINSUP + 1, n_workers=2,
                resume=str(ckpt),
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # every key missing
            {  # task index out of range
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": None,
                "completed": [{
                    "task": 5, "candidates": [], "drops": 0,
                    "counters": {},
                }],
            },
            {  # duplicate task index
                "fingerprint": "f", "n_tasks": 2, "target": 2,
                "expansion_cap": 4, "advisory": None,
                "completed": [
                    {"task": 0, "candidates": [], "drops": 0, "counters": {}},
                    {"task": 0, "candidates": [], "drops": 0, "counters": {}},
                ],
            },
            {  # malformed candidate entry
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": None,
                "completed": [{
                    "task": 0, "candidates": [[1, 2]], "drops": 0,
                    "counters": {},
                }],
            },
            {  # non-integer counter
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": None,
                "completed": [{
                    "task": 0, "candidates": [], "drops": 0,
                    "counters": {"nodes": "many"},
                }],
            },
            {  # malformed advisory entry
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": [[0.5]],
                "completed": [],
            },
            {  # a version-1 (neg_confidence, item mask, size) triple
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": [[-0.5, 6, 2]],
                "completed": [],
            },
            {  # a candidate with no item ids
                "fingerprint": "f", "n_tasks": 1, "target": 2,
                "expansion_cap": 4, "advisory": None,
                "completed": [{
                    "task": 0, "candidates": [[[], 2, 1, 7]], "drops": 0,
                    "counters": {},
                }],
            },
        ],
    )
    def test_malformed_payloads_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, payload)  # envelope is fine, payload is not
        with pytest.raises(DataError):
            CheckpointState.load(path)


# ----------------------------------------------------------------------
# Serialization round-trip properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [True, -1, "3", 1.0])
@pytest.mark.parametrize("position", [0, 2])
def test_candidate_from_row_checks_every_item_id(bad, position):
    item_ids = [4, 7, 9]
    item_ids[position] = bad
    with pytest.raises(DataError, match="malformed candidate item id"):
        candidate_from_row([item_ids, 3, 1, 0b1011], "entry")


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
@pytest.mark.parametrize("field", [1, 2, 3])
def test_candidate_from_row_checks_every_count(bad, field):
    row = [[4, 7], 3, 1, 0b1011]
    row[field] = bad
    with pytest.raises(DataError, match="malformed candidate count"):
        candidate_from_row(row, "entry")


def test_candidate_from_row_refuses_an_empty_antecedent():
    """No walk emits a candidate without items, and Step 7's store has
    no chain for one: a crafted entry or checkpoint row is refused."""
    with pytest.raises(DataError, match="candidate has no item ids"):
        candidate_from_row([[], 3, 1, 0b1011], "entry")


def _random_state(seed: int) -> CheckpointState:
    rng = random.Random(seed)
    # Candidates and advisory bounds are closed pairs of one small table:
    # the row set X drawn, then I(X) and R(I(X)).  A walk never emits an
    # empty I(X), and a checkpoint holding one is refused, so candidates
    # skip it.
    table = TransposedTable.build(random_dataset(seed, max_rows=10, max_items=16), "C")
    n_tasks = rng.randint(1, 12)
    completed = {}
    for index in rng.sample(range(n_tasks), rng.randint(0, n_tasks)):
        candidates = []
        for _ in range(rng.randint(0, 5)):
            ids = table.items_of_rows(rng.randint(1, table.all_rows_mask))
            if not ids:
                continue
            candidates.append(
                Candidate(
                    item_ids=tuple(sorted(ids)),
                    supp=rng.randint(0, 9),
                    supn=rng.randint(0, 9),
                    row_mask=table.rows_of_itemset(ids),
                )
            )
        counters = NodeCounters()
        for spec in dataclasses.fields(NodeCounters):
            setattr(counters, spec.name, rng.randint(0, 1000))
        completed[index] = TaskRecord(
            index=index,
            candidates=candidates,
            counters=counters,
            drops=rng.randint(0, 4),
        )
    advisory = None
    if rng.random() < 0.7:
        advisory = sorted(
            (
                -rng.randint(0, 100) / 100,
                table.rows_of_itemset(
                    table.items_of_rows(rng.randint(1, table.all_rows_mask))
                ),
            )
            for _ in range(rng.randint(0, 8))
        )
    return CheckpointState(
        fingerprint=hashlib.sha256(str(seed).encode()).hexdigest(),
        n_tasks=n_tasks,
        target=rng.randint(2, 16),
        expansion_cap=rng.randint(16, 128),
        completed=completed,
        advisory=advisory,
    )


class TestRoundTrip:
    """serialize -> deserialize -> serialize is the identity on bytes."""

    @pytest.mark.parametrize("seed", range(20))
    def test_state_round_trips_to_identical_bytes(self, tmp_path, seed):
        state = _random_state(seed)
        first = tmp_path / "first.ckpt"
        second = tmp_path / "second.ckpt"
        state.save(first)
        reloaded = CheckpointState.load(first)
        reloaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.to_payload() == state.to_payload()

    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_body_matches_full_encode(self, seed):
        """The fragment-joining assembler and the full encoder agree."""
        from repro.core.checkpoint import _assemble_body
        from repro.core.serialize import canonical_json

        state = _random_state(seed)
        fragments = {
            index: canonical_json(record.to_payload())
            for index, record in state.completed.items()
        }
        body = _assemble_body(
            fragments,
            state.advisory,
            {},
            fingerprint=state.fingerprint,
            n_tasks=state.n_tasks,
            target=state.target,
            expansion_cap=state.expansion_cap,
        )
        assert body == canonical_json(state.to_payload())

    @pytest.mark.parametrize("seed", range(5))
    def test_incremental_writes_match_full_saves(self, tmp_path, seed):
        """Files written through the writer equal CheckpointState.save's."""
        state = _random_state(seed)
        records = list(state.completed.values())
        empty = CheckpointState(
            fingerprint=state.fingerprint,
            n_tasks=state.n_tasks,
            target=state.target,
            expansion_cap=state.expansion_cap,
        )
        incremental = tmp_path / "incremental.ckpt"
        writer = Checkpointer(incremental, empty)
        for record in records:
            writer.record(record, state.advisory)
        writer.close()
        if not records:
            return  # nothing recorded: the writer never writes
        full = tmp_path / "full.ckpt"
        state.save(full)
        assert incremental.read_bytes() == full.read_bytes()

    def test_insertion_order_does_not_leak_into_bytes(self, tmp_path):
        state = _random_state(3)
        shuffled = CheckpointState(
            fingerprint=state.fingerprint,
            n_tasks=state.n_tasks,
            target=state.target,
            expansion_cap=state.expansion_cap,
            completed=dict(reversed(list(state.completed.items()))),
            advisory=state.advisory,
        )
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        state.save(a)
        shuffled.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_fingerprint_is_sensitive_to_every_input(self):
        base = dict(
            n=5, m=3, consequent="C", item_masks=[1, 3, 7],
            positive_mask=7, constraints=Constraints(minsup=1),
            prunings=("p1", "p2"), target=4, expansion_cap=16,
            task_masks=[1, 2],
        )
        reference = run_fingerprint(**base)
        assert run_fingerprint(**base) == reference  # stable
        for key, value in [
            ("n", 6), ("m", 2), ("consequent", "D"),
            ("item_masks", [1, 3, 6]), ("positive_mask", 3),
            ("constraints", Constraints(minsup=2)),
            ("prunings", ("p1",)), ("target", 5),
            ("expansion_cap", 17), ("task_masks", [1, 4]),
        ]:
            changed = dict(base)
            changed[key] = value
            assert run_fingerprint(**changed) != reference, key


# ----------------------------------------------------------------------
# API surface
# ----------------------------------------------------------------------


class TestApi:
    def test_checkpoint_every_batches_writes(self, paper_dataset, tmp_path):
        ckpt = tmp_path / "batched.ckpt"
        eager = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2,
            checkpoint=str(tmp_path / "eager.ckpt"),
        )
        batched = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2,
            checkpoint=str(ckpt), checkpoint_every=4,
        )
        assert (
            batched.parallel.checkpoints_written
            < eager.parallel.checkpoints_written
        )
        # The final flush still leaves a complete state on disk.
        state = CheckpointState.load(ckpt)
        assert len(state.completed) == batched.parallel.n_tasks

    def test_missing_resume_file_starts_fresh_and_checkpoints(
        self, paper_dataset, tmp_path
    ):
        ckpt = tmp_path / "fresh.ckpt"
        result = mine_irgs(
            paper_dataset, "C", minsup=MINSUP, n_workers=2, resume=str(ckpt)
        )
        assert result.parallel.resumed_tasks == 0
        assert ckpt.exists()  # resume= doubles as the checkpoint target

    def test_checkpoint_implies_sharded_pipeline(self, paper_dataset, tmp_path):
        result = mine_irgs(
            paper_dataset, "C", minsup=MINSUP,
            checkpoint=str(tmp_path / "implied.ckpt"),
        )
        assert result.parallel is not None
        assert result.parallel.n_workers == 1

    def test_checkpoint_with_node_budget_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="max_nodes"):
            Farmer(
                checkpoint=str(tmp_path / "x.ckpt"),
                budget=SearchBudget(max_nodes=100),
            )

    def test_checkpoint_on_unshardable_miner_is_usage_error(self, tmp_path):
        class Tracer(Farmer):
            _supports_sharding = False

        with pytest.raises(UsageError, match="cannot shard"):
            Tracer(checkpoint=str(tmp_path / "x.ckpt"))

    def test_checkpoint_every_must_be_positive(self, paper_dataset, tmp_path):
        from repro.errors import ConstraintError

        with pytest.raises(ConstraintError, match="checkpoint_every"):
            mine_irgs(
                paper_dataset, "C", minsup=MINSUP, n_workers=2,
                checkpoint=str(tmp_path / "x.ckpt"), checkpoint_every=0,
            )

    def test_cli_exposes_checkpoint_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "mine", "--tsv", "data.tsv",
                "--checkpoint", "run.ckpt",
                "--checkpoint-every", "3",
                "--resume", "old.ckpt",
            ]
        )
        assert args.checkpoint == "run.ckpt"
        assert args.checkpoint_every == 3
        assert args.resume == "old.ckpt"

    def test_checkpointer_records_then_flushes(self, tmp_path):
        state = CheckpointState(
            fingerprint="f", n_tasks=3, target=2, expansion_cap=8
        )
        writer = Checkpointer(tmp_path / "c.ckpt", state, every=2)
        record = TaskRecord(index=0, candidates=[], counters=NodeCounters())
        writer.record(record, None)
        assert writer.writes == 0  # below the batch threshold
        writer.record(
            TaskRecord(index=1, candidates=[], counters=NodeCounters()), None
        )
        assert writer.writes == 1
        writer.flush()
        assert writer.writes == 1  # nothing unsaved: no-op
        loaded = CheckpointState.load(tmp_path / "c.ckpt")
        assert sorted(loaded.completed) == [0, 1]
