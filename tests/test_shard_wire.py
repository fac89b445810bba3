"""What crosses the sharded miner's process boundary, and its pools.

A shard is a row set: by Lemma 3.3 a node's table ``TT|X`` is the
root's items whose row set contains ``X``, in root order, so parts
travel *detached* (every ``NodeState`` with ``table=None``) and a
worker rebuilds the tables from the run's root, which its pool received
once through the initializer.  These tests pin that contract:

* an attached unit resolves to exactly the walker's own table — every
  field — and the walk from an attached frontier finds the walker's
  candidates, in order, with its counters, on the production and the
  ``reference`` roots, for depth-1
  tasks, deep donated frontiers, row bits at the 64-bit word tails and
  an empty child.  Its lazy parent table is rebuilt by Lemma 3.3
  alone, without the walk's per-node class-support filter, so it may
  hold items the walker's parent dropped; the unit's own filter drops
  them again, because a node's region lies inside every ancestor's;
* nothing with a table is ever submitted, and a worker hands its
  donated frontier back detached;
* the pool's start method is irrelevant (``spawn`` mines the same
  bytes), and concurrent runs own separate pools, so a worker death in
  one run is never seen by the other.
"""

import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from conftest import (
    REBUILT_PARENT,
    VARIANTS,
    assert_fault_free,
    random_dataset,
)

from repro import mine_irgs
from repro.core import parallel
from repro.core.constraints import Constraints
from repro.core.enumeration import NodeCounters
from repro.core.farmer import (
    ALL_PRUNINGS,
    FRONTIER_STATE,
    NodeState,
    SearchContext,
    enumerate_frontier,
)
from repro.core.kernel import CondTable
from repro.core.parallel import _attach, _detach
from repro.core.serialize import save_rule_groups
from repro.data.dataset import ItemizedDataset
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import build_workload

#: Every root a run can attach to: the production engine's, once per
#: :data:`conftest.VARIANTS` id, and the ``reference`` oracle's
#: item-order root.
ROOTS = (*VARIANTS, "reference")

WORD_TAILS = ("word_tail_63", "word_tail_64", "word_tail_65")


@pytest.fixture(scope="module")
def lc_small():
    """LC at scale 0.01: 1,250 items, 42 kept at the root at minsup 9."""
    workload = build_workload("LC", scale=0.01)
    return workload, TransposedTable.build(workload.data, workload.consequent)


def _search(root, table, minsup):
    """The search context of ``root`` over ``table``."""
    return SearchContext.for_table(
        table,
        Constraints(minsup=minsup),
        ALL_PRUNINGS,
        reference=root == "reference",
    )


def _frontiers(ctx, root_state, quantum):
    """Every frontier a walk of the whole tree hands back at ``quantum``
    — the walker's own units, their lazy tables attached."""
    units = [(FRONTIER_STATE, root_state)]
    while True:
        units = enumerate_frontier(ctx, units, NodeCounters(), [], quantum)
        if units is None:
            return
        yield units


def _fields(table) -> dict:
    """Every slot of a conditional table."""
    return {slot: getattr(table, slot) for slot in type(table).__slots__}


def _walk(ctx, units) -> tuple:
    """The rest of a walk from ``units``: its Step-7 candidates, in
    order, and its counters."""
    counters, candidates = NodeCounters(), []
    enumerate_frontier(ctx, units, counters, candidates, None)
    return candidates, counters


def _assert_round_trip(ctx, root, units) -> list:
    """Detach the walker's ``units`` and attach them again: every state
    resolves to the walker's own table, field for field, from a parent
    table that holds every item of the walker's parent, in its order,
    and the walk from the attached frontier finds the walker's
    candidates, in its order, with its counters."""
    attached = _attach(root, _detach(units))
    assert len(attached) == len(units)
    for (tag, walked), (rebuilt_tag, rebuilt) in zip(units, attached):
        assert rebuilt_tag == tag
        if tag == FRONTIER_STATE:
            assert _fields(rebuilt.resolve(ctx)) == _fields(
                walked.resolve(ctx)
            ), walked
            assert rebuilt[1:] == walked[1:]
            kept = set(walked.table.item_ids)
            assert [
                item for item in rebuilt.table.item_ids if item in kept
            ] == list(walked.table.item_ids)
        else:
            assert rebuilt == walked
    assert _walk(ctx, attached) == _walk(ctx, units)
    return attached


def _parent_rows(units) -> list[int]:
    return [
        payload.x_mask ^ payload.row_bit
        for tag, payload in units
        if tag == FRONTIER_STATE
    ]


def _lemma_3_3(root, rows: int) -> tuple:
    """``TT|rows`` from the definition: the root's items whose row set
    contains ``rows``, in root order."""
    kept = [
        (item, mask)
        for item, mask in zip(root.item_ids, root.masks)
        if mask & rows == rows
    ]
    inter, union = root.full, 0
    for _, mask in kept:
        inter &= mask
        union |= mask
    return [item for item, _ in kept], inter, union, root.full


def _detached_unit(rows: int) -> tuple:
    """A detached state unit whose parent row set is ``rows``."""
    row_bit = (rows + 1) & ~rows  # the lowest row outside ``rows``
    return FRONTIER_STATE, NodeState(
        None, row_bit, rows | row_bit, 0, 0, 0, 0, 0, True
    )


def _assert_matches_lemma(root, rows: int) -> None:
    [(_, unit)] = _attach(root, [_detached_unit(rows)])
    table = unit.table
    assert isinstance(table, CondTable)
    assert (
        table.item_ids, table.inter, table.union, table.full
    ) == _lemma_3_3(root, rows), rows


def _serialized(result, tmp_path, tag) -> bytes:
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


@pytest.mark.parametrize("root", ROOTS)
class TestAttach:
    """An attached unit resolves to the walker's table, field for field,
    and walks the walker's subtree."""

    def test_depth_one_units_rebuild_nothing(self, root, lc_small):
        _, table = lc_small
        # minsup 9: the root keeps the 42 items that can reach it, whose
        # rows give the root 132 children (72 at minsup 11).
        ctx = _search(root, table, 9)
        root_state = ctx.root_state(table)
        children = next(_frontiers(ctx, root_state, 1))
        attached = _assert_round_trip(ctx, root_state.table, children)
        states = [unit for tag, unit in attached if tag == FRONTIER_STATE]
        assert len(states) > 100
        assert all(unit.table is root_state.table for unit in states)

    def test_deep_donated_frontiers(self, root, lc_small):
        _, table = lc_small
        deepest = 0
        wider = 0
        ctx = _search(root, table, 11)
        root_state = ctx.root_state(table)
        # Quantum 64: the filtered tree at minsup 11 is shallower, and
        # at 256 no frontier reaches below the root's grandchildren.
        for units in _frontiers(ctx, root_state, 64):
            attached = _assert_round_trip(ctx, root_state.table, units)
            deepest = max(
                [deepest, *(rows.bit_count() for rows in _parent_rows(units))]
            )
            wider += sum(
                len(rebuilt.table) > len(walked.table)
                for (tag, walked), (_, rebuilt) in zip(units, attached)
                if tag == FRONTIER_STATE
            )
        assert deepest >= 3, "no frontier reached below the root's grandchildren"
        assert wider, "no rebuilt parent held an item the walker's filter dropped"

    def test_rebuilt_parent_holds_a_dropped_item(self, root):
        """A one-node quantum over ``conftest.REBUILT_PARENT`` at minsup
        3 hands back the child {1, 4} of node {1}, whose rebuilt parent
        keeps the item the walker's {1} dropped."""
        table = TransposedTable.build(REBUILT_PARENT, "C")
        wider = 0
        ctx = _search(root, table, 3)
        root_state = ctx.root_state(table)
        for units in _frontiers(ctx, root_state, 1):
            attached = _assert_round_trip(ctx, root_state.table, units)
            wider += sum(
                len(rebuilt.table) > len(walked.table)
                for (tag, walked), (_, rebuilt) in zip(units, attached)
                if tag == FRONTIER_STATE
            )
        assert wider

    @pytest.mark.parametrize("shape", WORD_TAILS)
    def test_row_bits_at_word_tails(self, root, shape):
        for seed in range(3):
            data = random_dataset(seed, shape=shape)
            table = TransposedTable.build(data, "C")
            top = 1 << (table.n - 1)
            ctx = _search(root, table, 1)
            root_state = ctx.root_state(table)
            for units in _frontiers(ctx, root_state, 1):
                _assert_round_trip(ctx, root_state.table, units)
            # Parents whose rows sit on the last word's boundary.
            for rows in (top, top | top >> 1, top | 1, top | top >> 2 | 1):
                _assert_matches_lemma(root_state.table, rows)

    def test_empty_child(self, root, lc_small):
        """A parent whose rows share no item attaches an empty table."""
        _, table = lc_small
        ctx = _search(root, table, 11)
        root_state = ctx.root_state(table)
        assert not _lemma_3_3(root_state.table, table.all_rows_mask)[0]
        _assert_matches_lemma(root_state.table, table.all_rows_mask)
        disjoint = ItemizedDataset.from_lists(
            [[0, 1], [2, 3], [0, 2], [1, 3]], ["C", "C", "D", "D"], n_items=4
        )
        table = TransposedTable.build(disjoint, "C")
        ctx = _search(root, table, 1)
        root_state = ctx.root_state(table)
        _assert_matches_lemma(root_state.table, 0b11)


class TestWire:
    """No table crosses the process boundary, in either direction."""

    def test_submitted_units_are_detached(self, lc_small, monkeypatch):
        workload, _ = lc_small
        submitted = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append((args[1], args[8]))  # units, stolen
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
        result = mine_irgs(
            workload.data, workload.consequent, minsup=11, n_workers=2,
            steal=True, steal_quantum=256,
        )
        assert_fault_free(result)
        assert any(stolen for _, stolen in submitted), "nothing was stolen"
        states = [
            payload
            for units, _ in submitted
            for tag, payload in units
            if tag == FRONTIER_STATE
        ]
        assert states and all(state.table is None for state in states)

    def test_worker_returns_a_detached_frontier(self, lc_small, monkeypatch):
        _, table = lc_small
        ctx = SearchContext.for_table(table, Constraints(minsup=11), ALL_PRUNINGS)
        root_state = ctx.root_state(table)
        monkeypatch.setattr(parallel, "_ROOT", root_state.table)
        units = next(_frontiers(ctx, root_state, 1))
        sink, _, _, truncated, frontier, _ = parallel._run_frontier_task(
            ctx, _detach(units), [], 256, None, True, 64
        )
        # The same part walked in-process, behind the same empty bounds.
        walked_sink: list = []
        walked = parallel._walk_part(
            ctx, units, NodeCounters(), walked_sink, 64,
            parallel.AdvisoryBounds(cap=256), None,
        )
        assert not truncated and walked is not None
        assert sink == walked_sink
        assert frontier == _detach(walked)
        assert all(
            payload.table is None
            for tag, payload in frontier
            if tag == FRONTIER_STATE
        )


class TestRunPools:
    """Each run owns its pool: the start method and concurrent runs
    change nothing."""

    def test_spawned_workers_mine_serial_bytes(self, monkeypatch, tmp_path):
        """Workers that inherit nothing still get the root, through the
        pool initializer."""
        monkeypatch.setattr(parallel, "_START_METHOD", "spawn")
        data = random_dataset(5, max_rows=12)
        expected = _serialized(mine_irgs(data, "C", minsup=1), tmp_path, "serial")
        for steal in (False, True):
            result = mine_irgs(
                data, "C", minsup=1, n_workers=2, steal=steal, steal_quantum=4
            )
            assert _serialized(result, tmp_path, f"spawn-{steal}") == expected
            assert_fault_free(result)
            if steal:
                assert result.parallel.donations, "nothing was donated"

    def test_concurrent_runs_fail_alone(self, chaos, tmp_path):
        """Two runs at once, each losing one worker: each sees its own
        pool fail once, reaps its own killed worker and mines its serial
        bytes.  (With one pool shared by both runs, the first run to
        tear the broken pool down takes the dead worker's exit code and
        the other run finds none.)"""
        lc = build_workload("LC", scale=0.01)
        ct = build_workload("CT", scale=0.02)
        jobs = {
            "static": (lc.data, lc.consequent, 11, {}),
            "steal": (ct.data, ct.consequent, 4, {"steal": True}),
        }
        expected = {
            name: _serialized(
                mine_irgs(data, consequent, minsup=minsup), tmp_path, name
            )
            for name, (data, consequent, minsup, _) in jobs.items()
        }
        chaos.arm("kill:shard=0:times=1")
        barrier = threading.Barrier(len(jobs))

        def run(name):
            data, consequent, minsup, knobs = jobs[name]
            barrier.wait()
            return mine_irgs(data, consequent, minsup=minsup, n_workers=2, **knobs)

        with ThreadPoolExecutor(len(jobs)) as threads:
            futures = {name: threads.submit(run, name) for name in jobs}
            results = {
                name: future.result(timeout=300) for name, future in futures.items()
            }
        for name, result in results.items():
            assert result.parallel.pool_failures == 1, (name, result.parallel)
            assert -9 in result.parallel.worker_exit_codes, (name, result.parallel)
            assert _serialized(result, tmp_path, f"{name}-run") == expected[name]
