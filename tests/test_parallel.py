"""Differential harness for the sharded miner (:mod:`repro.core.parallel`).

The contract under test is strict: for every worker count, every
constraint setting, every pruning combination and every dataset shape,
``mine_irgs(..., n_workers=k)`` must produce *bit-identical* output to
the serial miner — same groups, same statistics, same row sets, same
order, same serialized bytes — and both must match the brute-force
oracle.  Scheduling may vary; the output may not.
"""


import pytest

import test_farmer_oracle
from conftest import MINEABLE_SHAPES, assert_fault_free, random_dataset

from repro import Constraints, Farmer, SearchBudget, mine_irgs
from repro.baselines import interesting_rule_groups
from repro.core.enumeration import (
    NodeCounters,
    merge_counters,
)
from repro.core.parallel import AdvisoryBounds, mine_table_parallel
from repro.core.serialize import save_rule_groups
from repro.data.dataset import ItemizedDataset
from repro.data.transpose import TransposedTable

# Shared with the oracle suite (imported via the module so pytest does
# not re-collect that module's test classes here).
CONSTRAINT_GRID = test_farmer_oracle.CONSTRAINT_GRID
PRUNING_COMBOS = test_farmer_oracle.TestPruningAblation.PRUNING_COMBOS

WORKER_COUNTS = (1, 2, 4)


def _serialized(result, tmp_path, tag):
    """The exact bytes ``core.serialize`` writes for ``result``."""
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def _group_key(group):
    return (sorted(group.upper), group.support, group.antecedent_support, group.rows)


class TestDifferential:
    """Parallel output equals serial output and the oracle."""

    @pytest.mark.parametrize("params", CONSTRAINT_GRID, ids=str)
    def test_bit_identical_to_serial(self, params, tmp_path):
        for seed in range(6):
            data = random_dataset(seed)
            serial = mine_irgs(data, "C", **params)
            reference = _serialized(serial, tmp_path, f"serial-{seed}")
            for n_workers in WORKER_COUNTS:
                parallel = mine_irgs(data, "C", **params, n_workers=n_workers)
                assert _serialized(
                    parallel, tmp_path, f"w{n_workers}-{seed}"
                ) == reference, (seed, params, n_workers)
                assert_fault_free(parallel)
                # Order-sensitive group comparison, not just set equality.
                assert [_group_key(g) for g in parallel.groups] == [
                    _group_key(g) for g in serial.groups
                ]

    @pytest.mark.parametrize("params", CONSTRAINT_GRID, ids=str)
    def test_matches_oracle(self, params):
        for seed in range(6):
            data = random_dataset(seed + 20)
            oracle = interesting_rule_groups(data, "C", Constraints(**params))
            expected = {
                g.upper: (g.support, g.antecedent_support, g.rows)
                for g in oracle
            }
            for n_workers in WORKER_COUNTS:
                result = mine_irgs(data, "C", **params, n_workers=n_workers)
                got = {
                    g.upper: (g.support, g.antecedent_support, g.rows)
                    for g in result.groups
                }
                assert got == expected, (seed, params, n_workers)

    @pytest.mark.parametrize("prunings", PRUNING_COMBOS, ids=str)
    def test_every_pruning_combo(self, prunings, tmp_path):
        for seed in range(4):
            data = random_dataset(seed + 40)
            serial = mine_irgs(data, "C", minsup=1, minconf=0.5, prunings=prunings)
            parallel = mine_irgs(
                data, "C", minsup=1, minconf=0.5, prunings=prunings, n_workers=2
            )
            assert _serialized(parallel, tmp_path, f"p-{seed}") == _serialized(
                serial, tmp_path, f"s-{seed}"
            ), (seed, prunings)
            assert_fault_free(parallel)
            # The sharded run does the same work, not just the same output.
            assert parallel.counters == serial.counters, (seed, prunings)

    def test_lower_bounds_identical(self):
        for seed in range(4):
            data = random_dataset(seed + 55)
            serial = mine_irgs(data, "C", minsup=1, compute_lower_bounds=True)
            parallel = mine_irgs(
                data, "C", minsup=1, compute_lower_bounds=True, n_workers=2
            )
            assert [
                (sorted(g.upper), sorted(map(sorted, g.lower_bounds or ())))
                for g in parallel.groups
            ] == [
                (sorted(g.upper), sorted(map(sorted, g.lower_bounds or ())))
                for g in serial.groups
            ], seed


class TestDeterminism:
    """Same input, any scheduling -> byte-identical serialized output."""

    def test_five_runs_byte_identical(self, tmp_path):
        data = random_dataset(7, max_rows=12, max_items=12)
        outputs = set()
        for attempt in range(5):
            result = mine_irgs(data, "C", minsup=1, n_workers=4)
            outputs.add(_serialized(result, tmp_path, f"run-{attempt}"))
        assert len(outputs) == 1

    def test_broadcast_on_off_identical(self, tmp_path):
        for seed in range(4):
            data = random_dataset(seed + 30)
            results = [
                Farmer(
                    Constraints(minsup=1),
                    n_workers=2,
                    broadcast_bounds=broadcast,
                ).mine(data, "C")
                for broadcast in (True, False)
            ]
            assert _serialized(results[0], tmp_path, f"on-{seed}") == _serialized(
                results[1], tmp_path, f"off-{seed}"
            ), seed


class TestDegenerateShapesParallel:
    SHAPES = MINEABLE_SHAPES

    @pytest.mark.parametrize("shape", SHAPES)
    def test_identical_to_serial(self, shape, tmp_path):
        for seed in range(4):
            data = random_dataset(seed, shape=shape)
            serial = mine_irgs(data, "C", minsup=1)
            for n_workers in WORKER_COUNTS:
                parallel = mine_irgs(data, "C", minsup=1, n_workers=n_workers)
                assert _serialized(
                    parallel, tmp_path, f"{shape}-{seed}-{n_workers}"
                ) == _serialized(serial, tmp_path, f"{shape}-{seed}-s"), (
                    shape,
                    seed,
                    n_workers,
                )
                assert_fault_free(parallel)


class TestApi:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Farmer(n_workers=0)
        with pytest.raises(ValueError):
            mine_irgs(random_dataset(0), "C", n_workers=-1)

    def test_node_budget_forces_serial(self):
        # Deterministic node accounting needs one traversal, so a
        # max_nodes budget routes around the sharded path entirely.
        data = random_dataset(1)
        result = mine_irgs(
            data, "C", minsup=1, n_workers=2, budget=SearchBudget(max_nodes=10**6)
        )
        assert result.parallel is None
        table = TransposedTable.build(data, "C")
        with pytest.raises(ValueError):
            mine_table_parallel(
                table,
                constraints=Constraints(minsup=1),
                budget=SearchBudget(max_nodes=10),
            )

    def test_report_populated(self):
        data = random_dataset(5, max_rows=12)  # seed with a 45-node tree
        for n_workers in WORKER_COUNTS:
            result = mine_irgs(data, "C", minsup=1, n_workers=n_workers)
            report = result.parallel
            assert report is not None
            assert report.n_workers == n_workers
            assert report.n_tasks >= 1
            assert len(report.workers) == report.n_tasks
            # Merged counters decompose into coordinator + worker parts.
            merged = merge_counters([report.coordinator, *report.workers])
            assert merged.nodes == result.counters.nodes

    def test_fully_pruned_tree_yields_no_tasks(self):
        # Seed 2's root is tight-pruned (no item occurs in a positive
        # row): the decomposition collapses to zero tasks and the result
        # still matches serial.
        data = random_dataset(2, max_rows=12)
        serial = mine_irgs(data, "C", minsup=1)
        result = mine_irgs(data, "C", minsup=1, n_workers=2)
        assert result.parallel is not None
        assert result.parallel.n_tasks == 0
        assert len(result.groups) == len(serial.groups) == 0
        assert result.counters == serial.counters

    def test_serial_result_has_no_report(self):
        result = mine_irgs(random_dataset(3), "C", minsup=1)
        assert result.parallel is None


class TestAdvisoryBounds:
    """Unit coverage for the broadcast dominance table."""

    def test_covers_requires_strict_subset_and_confidence(self):
        # Closed pairs of one table, one row per antecedent: {0, 1}
        # holds rows 0b011, {0, 1, 2} row 0b001 and {0, 2} rows 0b101.
        data = ItemizedDataset.from_lists(
            [[0, 1, 2], [0, 1], [0, 2]], ["C"] * 3, n_items=3
        )
        table = TransposedTable.build(data, "C")
        rows = table.rows_of_itemset
        bounds = AdvisoryBounds()
        bounds.extend(rows((0, 1)), 0.8)
        # Strict superset with lower confidence: dominated.
        assert bounds.covers(rows((0, 1, 2)), 0.7)
        assert bounds.covers(rows((0, 1, 2)), 0.8)
        # Higher confidence than any stored bound: not dominated.
        assert not bounds.covers(rows((0, 1, 2)), 0.9)
        # Same antecedent, so the same row mask: never dominated by itself.
        assert not bounds.covers(rows((0, 1)), 0.5)
        # Not a superset of the stored antecedent.
        assert not bounds.covers(rows((0, 2)), 0.5)

    def test_snapshot_round_trip(self):
        bounds = AdvisoryBounds()
        bounds.extend(0b01, 0.9)
        bounds.extend(0b10, 0.6)
        assert bounds.snapshot() == [(-0.9, 0b01), (-0.6, 0b10)]
        restored = AdvisoryBounds(bounds.snapshot())
        assert restored.snapshot() == bounds.snapshot()

    def test_cap_evicts_weakest(self):
        bounds = AdvisoryBounds(cap=2)
        bounds.extend(0b001, 0.5)
        bounds.extend(0b010, 0.9)
        bounds.extend(0b100, 0.7)  # evicts the 0.5 bound
        assert len(bounds) == 2
        # The weakest (0.5) entry is gone; its mask no longer dominates.
        assert sorted(mask for _, mask in bounds.snapshot()) == [0b010, 0b100]

    def test_drops_never_change_output_counters(self):
        # Counter equality with broadcast on is the strongest form of
        # "advisory only": a drop is counted exactly where the replay
        # would have counted the rejection.
        for seed in range(4):
            data = random_dataset(seed + 10, max_rows=11)
            serial = mine_irgs(data, "C", minsup=1)
            for broadcast in (True, False):
                result = Farmer(
                    Constraints(minsup=1), n_workers=2, broadcast_bounds=broadcast
                ).mine(data, "C")
                assert result.counters == serial.counters, (seed, broadcast)

    def test_merge_counters_sums_fields(self):
        a = NodeCounters(nodes=3, pruned_loose=1, candidates_rejected=2)
        b = NodeCounters(nodes=4, rows_compressed=5)
        merged = merge_counters([a, b])
        assert merged.nodes == 7
        assert merged.pruned_loose == 1
        assert merged.rows_compressed == 5
        assert merged.candidates_rejected == 2
