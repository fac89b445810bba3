"""Budgets charged per chunk of nodes, checked against a per-node oracle.

FARMER's walk counts its own nodes and charges a
:class:`~repro.core.enumeration.SearchBudget` only where
:meth:`~repro.core.enumeration.SearchBudget.until_check` says a tick
could raise, so a budgeted mine keeps the fast walk (counted loose
tails, no per-node call).  These tests pin that the limits still trip
on the very node a per-node tick trips on:

* a node budget ``max_nodes=k`` against an oracle whose node observer
  raises as it enters node ``k + 1`` (an observer forces the per-node
  walk), for every ``k`` over a full mine's node range;
* the clock on every 256th node, the cancel event on the first node and
  every 128th after it;
* a production walk under a budget calls it once per chunk, not once
  per node.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from conftest import handoff, random_dataset

from repro.core.constraints import Constraints
from repro.core.enumeration import SearchBudget
from repro.core.farmer import Farmer
from repro.core.serialize import save_rule_groups
from repro.data.transpose import TransposedTable
from repro.errors import BudgetExceeded
from repro.obs import Telemetry
from repro.serve.jobs import CancellableBudget, JobCancelled

#: ``(seed, max_rows, max_items, minsup, minconf)``: small mines of
#: 64-188 nodes with loose-pruned tails, one under a confidence
#: threshold.
SWEEP_CASES = (
    (0, 16, 14, 3, 0.0),
    (6, 20, 16, 2, 0.0),
    (5, 20, 16, 2, 0.6),
)


class _RefuseAt:
    """The per-node oracle: a node observer that raises as it enters
    node ``limit + 1``, as a per-node budget tick would."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.entered = 0

    def enter(self, state) -> None:
        self.entered += 1
        if self.entered > self.limit:
            raise BudgetExceeded(
                f"node budget of {self.limit} exceeded",
                nodes_expanded=self.entered,
            )

    def leave(self, outcome) -> None:
        pass


class _OracleFarmer(Farmer):
    """A miner whose walk carries a :class:`_RefuseAt` observer."""

    def __init__(self, limit: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.limit = limit

    def _node_observer(self):
        return _RefuseAt(self.limit)


def _outcome(miner: Farmer, table: TransposedTable, tmp_path, tag: str):
    """What a mine left behind: the refused node (``None`` when the
    mine returned), every counter, the ``truncated`` flag and the
    ``.irgs`` bytes (``None`` when the budget raised)."""
    try:
        result = miner.mine_table(table)
    except BudgetExceeded as exc:
        return exc.nodes_expanded, dataclasses.astuple(miner._counters), None, None
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return (
        None,
        dataclasses.astuple(result.counters),
        result.truncated,
        path.read_bytes(),
    )


@pytest.mark.parametrize("cutoff", ["kernel", "numpy"])
@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("case", SWEEP_CASES, ids=lambda case: f"seed{case[0]}")
def test_node_budget_matches_per_node_oracle(case, strict, telemetry, cutoff, tmp_path):
    seed, max_rows, max_items, minsup, minconf = case
    table = TransposedTable.build(
        random_dataset(seed, max_rows=max_rows, max_items=max_items), "C"
    )
    constraints = Constraints(minsup=minsup, minconf=minconf)

    def knobs():
        return {
            "constraints": constraints,
            "telemetry": Telemetry() if telemetry else None,
        }

    with handoff(cutoff):
        total = Farmer(constraints=constraints).mine_table(table).counters.nodes
        assert total > 60
        for k in range(total + 1):
            oracle = _outcome(
                _OracleFarmer(k, budget=SearchBudget(strict=strict), **knobs()),
                table, tmp_path, "oracle",
            )
            budgeted = _outcome(
                Farmer(
                    budget=SearchBudget(max_nodes=k, strict=strict), **knobs()
                ),
                table, tmp_path, "budgeted",
            )
            assert budgeted == oracle, k
            refused = k < total
            assert (oracle[0] == k + 1) == (refused and strict), k
            assert oracle[2] is (None if refused and strict else refused), k
            assert oracle[1][0] == min(k + 1, total), k


def _deep_table():
    """A mine of 442 nodes: more than one clock stride."""
    return TransposedTable.build(random_dataset(0, max_rows=20, max_items=16), "C")


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
def test_clock_is_read_on_the_256th_node(telemetry, tmp_path):
    """An expired time budget trips on node 256, not before, and a
    lenient one keeps what a node budget of 255 keeps."""
    table = _deep_table()
    constraints = Constraints(minsup=3)

    def expired(strict):
        return Farmer(
            constraints=constraints,
            budget=SearchBudget(max_seconds=0.0, strict=strict),
            telemetry=Telemetry() if telemetry else None,
        )

    miner = expired(True)
    with pytest.raises(BudgetExceeded) as info:
        miner.mine_table(table)
    assert info.value.nodes_expanded == 256
    assert miner._counters.nodes == 256
    lenient = _outcome(expired(False), table, tmp_path, "clock")
    node_budget = _outcome(
        Farmer(
            constraints=constraints,
            budget=SearchBudget(max_nodes=255, strict=False),
        ),
        table, tmp_path, "nodes",
    )
    assert lenient == node_budget


class _CountingEvent:
    """A cancel event that records the budget's node count at each poll
    and reads as set from poll ``fire`` on."""

    def __init__(self, budget_ref: list, fire: int | None) -> None:
        self.budget_ref = budget_ref
        self.fire = fire
        self.polled_at: list[int] = []

    def is_set(self) -> bool:
        self.polled_at.append(self.budget_ref[0].nodes)
        return self.fire is not None and len(self.polled_at) > self.fire


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "capture"])
def test_cancel_event_polled_every_128_nodes(telemetry, warm, tmp_path):
    """The cancel event is read before the first node and before every
    128th node after it, and a set event stops the walk there."""
    table = _deep_table()
    ref: list = []

    def mine(fire):
        event = _CountingEvent(ref, fire)
        budget = CancellableBudget(max_seconds=300.0, cancel=event)
        ref[:] = [budget]
        miner = Farmer(
            constraints=Constraints(minsup=3),
            budget=budget,
            telemetry=Telemetry() if telemetry else None,
            warm_cache=str(tmp_path / f"warm-{fire}") if warm else None,
        )
        return miner, event

    miner, event = mine(None)
    nodes = miner.mine_table(table).counters.nodes
    assert event.polled_at == list(range(0, nodes, 128))

    miner, event = mine(2)
    with pytest.raises(JobCancelled):
        miner.mine_table(table)
    assert event.polled_at == [0, 128, 256]
    assert miner.budget.nodes == 256


class _CountingBudget(SearchBudget):
    """A time budget that counts its ticks and checks."""

    ticks = 0
    checks = 0

    def tick(self):
        self.ticks += 1
        super().tick()

    def check(self, counters):
        self.checks += 1
        return super().check(counters)


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
def test_budgeted_walk_charges_per_chunk(telemetry, tmp_path):
    """A budget with limits costs the walk one call per 256 nodes, and
    the budgeted mine is the unbudgeted one: same counters, same bytes."""
    from repro.experiments.workloads import build_workload

    workload = build_workload("LC", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    constraints = Constraints(minsup=9)
    budget = _CountingBudget(max_seconds=300.0)
    budgeted = _outcome(
        Farmer(
            constraints=constraints,
            budget=budget,
            telemetry=Telemetry() if telemetry else None,
        ),
        table, tmp_path, "budgeted",
    )
    plain = _outcome(Farmer(constraints=constraints), table, tmp_path, "plain")
    assert budgeted == plain
    nodes = budgeted[1][0]
    assert nodes > 10 * 256
    assert budget.nodes == nodes
    assert budget.ticks == budget.checks <= nodes // 256 + 3


def test_walk_takes_no_tick():
    import inspect

    from repro.core.farmer import enumerate_frontier

    assert "tick" not in inspect.signature(enumerate_frontier).parameters


def test_until_check_names_the_next_checking_tick():
    """Ticking ``until_check()`` nodes never raises; the next one can."""
    budget = SearchBudget(max_nodes=600, max_seconds=0.0)
    budget.start()
    time.sleep(0.001)
    spans = []
    while True:
        span = budget.until_check()
        spans.append(span)
        for _ in range(span):
            budget.tick()
        try:
            budget.tick()
        except BudgetExceeded as exc:
            assert exc.nodes_expanded == 256
            break
    assert spans == [255]

    budget = SearchBudget(max_nodes=300)
    budget.start()
    assert budget.until_check() == 300
    budget.advance(300)
    assert budget.until_check() == 0
    with pytest.raises(BudgetExceeded):
        budget.tick()


@pytest.mark.parametrize("quantum", [None, 1, 5, 64, 300, 1000])
def test_shard_part_deadline_keeps_its_preemption_points(quantum):
    """A shard part under a deadline reads the clock through the walk's
    ``progress`` hook, yet hands back the frontier after exactly
    ``quantum`` nodes, as a part without a deadline does."""
    from repro.core.enumeration import NodeCounters
    from repro.core.farmer import ALL_PRUNINGS, FRONTIER_STATE, SearchContext
    from repro.core.parallel import AdvisoryBounds, _walk_part

    table = _deep_table()
    ctx = SearchContext.for_table(table, Constraints(minsup=3), ALL_PRUNINGS)

    def walk(deadline):
        counters = NodeCounters()
        sink = []
        frontiers = []
        units = [(FRONTIER_STATE, ctx.root_state(table))]
        advisory = AdvisoryBounds()
        while units is not None:
            units = _walk_part(
                ctx, units, counters, sink, quantum, advisory, deadline
            )
            if units is not None:
                frontiers.append(
                    [
                        (tag, payload._replace(table=None))
                        if tag == FRONTIER_STATE
                        else (tag, payload)
                        for tag, payload in units
                    ]
                )
        return sink, dataclasses.astuple(counters), frontiers

    assert walk(time.monotonic() + 300) == walk(None)
    with pytest.raises(BudgetExceeded):
        walk(time.monotonic() - 1)
