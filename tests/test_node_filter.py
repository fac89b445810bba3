"""The per-node class-support filter against the walk without it.

With Pruning 2 on, every table below the root holds only the items
with at least ``minsup`` rows in its node's region ``(X ∪ P1(X) ∪
cand(X)) ∩ pos`` (:attr:`~repro.core.farmer.SearchContext.item_floor`;
the proof is in ``docs/architecture.md``).  Every check here mines
with the filter and without it (``conftest.unfiltered_nodes``, which
keeps the root's own filter) and compares what matters:

* the Step-7 candidate sequence and the serialized bytes, over the
  hypothesis dataset families, every pruning set, minconf, minchi, both
  engines, and the production engine against the oracle node for
  node;
* the 20 Figure 10 points at scale 0.02, the Pruning-2-off, minconf,
  minchi and lower-bound pins, and the filtered walk never visiting
  more nodes;
* a warm-cache entry captured without the filter: the same ``evals``,
  and the cold mine's bytes for every tightened query;
* sharded and stolen walks at ``minsup`` 2–4, where the filter drops
  items: their units' parent tables are rebuilt from the root without
  it (``repro.core.parallel._attach``), and the virtual scheduler's
  adversarial quanta and splits, and the real pool at a one-node steal
  quantum, must still serialize the serial miner's bytes.

The filter itself (``extend``'s ``region``/``minsup`` arguments) is
checked against an int-mask oracle, across the 64-row word boundary.
The inequality that lets Step 4 skip its tight support bound under the
filter, ``supp + max_overlap(cand_pos) >= minsup``, is checked at every
built node of the hypothesis families.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    REBUILT_PARENT,
    assert_fault_free,
    unfiltered_nodes,
)
from engine_conformance import irgs_bytes
from scheduling import Schedule, run_schedule, serialized_store
from strategies import datasets, degenerate_datasets, skewed_datasets

from repro import mine_irgs
from repro.core.constraints import Constraints
from repro.core.enumeration import NodeCounters
from repro.core.farmer import (
    ALL_PRUNINGS,
    FRONTIER_STATE,
    Farmer,
    SearchContext,
    enumerate_frontier,
)
from repro.core.frontier import FRONTIER_ENVELOPE, entry_path, frontier_fingerprint
from repro.core.kernel import CondTable
from repro.core.serialize import load_checkpoint
from repro.core.trace import TracingFarmer
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import DATASET_ORDER, MINSUP_GRIDS, build_workload

#: Every pruning set (Pruning 2 needs Pruning 1, so ``{"p2"}`` alone is
#: the empty set).  Without Pruning 2 the filter is off and both walks
#: are one walk.
PRUNING_SUBSETS = (
    ALL_PRUNINGS,
    frozenset({"p1", "p2"}),
    frozenset({"p1", "p3"}),
    frozenset({"p3"}),
    frozenset(),
)

#: The ``engine=`` of each run: the production engine and the reference
#: oracle.
RUNS = (None, "reference")
RUN_IDS = ("production", "reference")

FAMILIES = st.one_of(
    datasets(max_rows=10, max_items=8),
    skewed_datasets(max_dense=6, max_sparse=4),
    degenerate_datasets(
        shapes=("single_row", "all_identical", "shared_item", "one_item")
    ),
)


def _candidates(table, constraints, prunings, reference=False):
    """The walk's Step-7 candidate sequence and counters."""
    ctx = SearchContext.for_table(
        table, constraints, prunings, reference=reference
    )
    counters, candidates = NodeCounters(), []
    root = ctx.root_state(table)
    if root is not None:
        enumerate_frontier(
            ctx, [(FRONTIER_STATE, root)], counters, candidates, None
        )
    return candidates, counters


def _both(table, tmp_path, tag, **options):
    """``table`` mined with the per-node filter and without it: the
    two results and their ``.irgs`` bytes."""
    filtered = Farmer(**options).mine_table(table)
    with unfiltered_nodes():
        unfiltered = Farmer(**options).mine_table(table)
    return (
        filtered,
        unfiltered,
        irgs_bytes(filtered, tmp_path, f"{tag}-filtered"),
        irgs_bytes(unfiltered, tmp_path, f"{tag}-unfiltered"),
    )


def _assert_same_answer(filtered, unfiltered):
    """Same groups from the same candidates, in no more nodes."""
    kept, walked = filtered.counters, unfiltered.counters
    assert kept.groups_emitted == walked.groups_emitted
    assert kept.candidates_rejected == walked.candidates_rejected
    assert kept.nodes <= walked.nodes


@pytest.mark.parametrize("engine", RUNS, ids=RUN_IDS)
@given(
    data=FAMILIES,
    minsup=st.integers(min_value=0, max_value=5),
    minconf=st.sampled_from([0.0, 0.5, 0.8]),
    minchi=st.sampled_from([0.0, 1.0]),
    prunings=st.sampled_from(PRUNING_SUBSETS),
)
def test_filter_keeps_every_candidate(
    engine, data, minsup, minconf, minchi, prunings
):
    """The same Step-7 candidates in the same order, so the same
    admissions.  At most ten rows: with every pruning off the walk
    visits up to ``2**n`` nodes."""
    table = TransposedTable.build(data, "C")
    constraints = Constraints(minsup=minsup, minconf=minconf, minchi=minchi)
    reference = engine == "reference"
    filtered, kept = _candidates(table, constraints, prunings, reference)
    with unfiltered_nodes():
        unfiltered, walked = _candidates(
            table, constraints, prunings, reference
        )
    assert filtered == unfiltered
    assert all(candidate.item_ids for candidate in filtered)
    assert kept.nodes <= walked.nodes


@pytest.mark.parametrize("engine", RUNS, ids=RUN_IDS)
@given(
    data=FAMILIES,
    minsup=st.integers(min_value=1, max_value=4),
    minconf=st.sampled_from([0.0, 0.8]),
    lower=st.booleans(),
)
def test_filter_keeps_every_byte(
    engine, data, minsup, minconf, lower, tmp_path_factory
):
    """Whole mines, lower bounds included: byte-identical ``.irgs``."""
    table = TransposedTable.build(data, "C")
    tmp_path = tmp_path_factory.mktemp("nodes")
    filtered, unfiltered, kept, walked = _both(
        table,
        tmp_path,
        "mine",
        constraints=Constraints(minsup=minsup, minconf=minconf),
        compute_lower_bounds=lower,
        engine=engine,
    )
    assert kept == walked
    _assert_same_answer(filtered, unfiltered)


@given(
    data=st.one_of(datasets(max_rows=10, max_items=8), skewed_datasets()),
    minsup=st.integers(min_value=1, max_value=4),
    minconf=st.sampled_from([0.0, 0.8]),
)
def test_production_matches_reference_node_for_node(data, minsup, minconf):
    """Both engines filter by the same test, so the production engine
    walks the oracle's tree: equal counters, equal candidates."""
    table = TransposedTable.build(data, "C")
    constraints = Constraints(minsup=minsup, minconf=minconf)

    def walk(reference=False):
        # The oracle keeps the dataset's item order, production the
        # support order: compare each candidate's items as a set.
        candidates, counters = _candidates(
            table, constraints, ALL_PRUNINGS, reference
        )
        return [
            (sorted(ids), supp, supn, rows)
            for ids, supp, supn, rows in candidates
        ], dataclasses.astuple(counters)

    assert walk() == walk(reference=True)


class _BuiltTables(TracingFarmer):
    """Records every node whose table the walk builds (every node not
    loose-pruned): its state, its table and the walk's verdict."""

    def mine(self, dataset, consequent):
        self.built = []
        self._open = []
        return super().mine(dataset, consequent)

    def enter(self, state):
        super().enter(state)
        self._open.append(state)

    def leave(self, outcome):
        state, table = self._open.pop(), self._trace_stack[-1][1]
        if outcome != "pruned:loose":
            self.built.append((state, table, outcome))
        super().leave(outcome)


@given(
    data=FAMILIES,
    minsup=st.integers(min_value=1, max_value=5),
    minconf=st.sampled_from([0.0, 0.5, 0.8]),
    minchi=st.sampled_from([0.0, 1.0]),
    prunings=st.sampled_from([ALL_PRUNINGS, frozenset({"p1", "p2"})]),
)
def test_tight_support_bound_cannot_fire_under_the_filter(
    data, minsup, minconf, minchi, prunings
):
    """What lets Step 4 skip its support bound under the filter: at
    every built node with a non-empty table, ``supp + max_overlap(cand_pos)
    >= minsup``, and every empty table is cut by Pruning 2."""
    farmer = _BuiltTables(
        constraints=Constraints(minsup=minsup, minconf=minconf, minchi=minchi),
        prunings=prunings,
    )
    farmer.mine(data, "C")
    for state, table, outcome in farmer.built:
        if len(table):
            assert state.supp_in + table.max_overlap(state.cand_pos) >= minsup
        else:
            assert outcome == "pruned:identified"


@pytest.fixture(scope="module")
def fig10_tables():
    tables = {}
    for name in DATASET_ORDER:
        workload = build_workload(name, scale=0.02)
        tables[name] = TransposedTable.build(workload.data, workload.consequent)
    return tables


@pytest.mark.parametrize(
    ("name", "minsup"),
    [(name, minsup) for name in DATASET_ORDER for minsup in MINSUP_GRIDS[name]],
)
def test_figure_10_points_keep_every_byte(fig10_tables, tmp_path, name, minsup):
    """The 20 Figure 10 points at scale 0.02."""
    filtered, unfiltered, kept, walked = _both(
        fig10_tables[name], tmp_path, name, constraints=Constraints(minsup=minsup)
    )
    assert kept == walked
    _assert_same_answer(filtered, unfiltered)


@pytest.mark.parametrize(
    "prunings",
    PRUNING_SUBSETS[1:],
    ids=lambda prunings: "+".join(sorted(prunings)) or "none",
)
@pytest.mark.parametrize(("name", "minsup"), [("CT", 5), ("ALL", 6)])
def test_every_pruning_set_keeps_every_byte(
    fig10_tables, tmp_path, name, minsup, prunings
):
    """The pruning subsets (the full set is the Figure 10 test); with
    Pruning 2 off both walks are the same walk."""
    filtered, unfiltered, kept, walked = _both(
        fig10_tables[name],
        tmp_path,
        name,
        constraints=Constraints(minsup=minsup),
        prunings=prunings,
    )
    assert kept == walked
    _assert_same_answer(filtered, unfiltered)
    if "p2" not in prunings:
        assert dataclasses.astuple(filtered.counters) == dataclasses.astuple(
            unfiltered.counters
        )


@pytest.mark.parametrize(
    ("name", "minsup", "options"),
    [
        ("BC", 7, {"minconf": 0.9}),
        ("PC", 9, {"minconf": 0.8, "minchi": 10.0}),
        ("LC", 11, {"minchi": 5.0}),
        ("CT", 3, {"lower": True}),
        ("ALL", 4, {"lower": True}),
    ],
    ids=["BC-minconf", "PC-minchi", "LC-minchi", "CT-lower", "ALL-lower"],
)
def test_thresholds_and_lower_bounds_keep_every_byte(
    fig10_tables, tmp_path, name, minsup, options
):
    """Confidence and chi-square thresholds, and MineLB's lower bounds
    (CT 0.02 minsup 3 is the CI lower-bounds pin)."""
    options = dict(options)
    lower = options.pop("lower", False)
    filtered, unfiltered, kept, walked = _both(
        fig10_tables[name],
        tmp_path,
        name,
        constraints=Constraints(minsup=minsup, **options),
        compute_lower_bounds=lower,
    )
    assert kept == walked
    _assert_same_answer(filtered, unfiltered)
    if lower:
        assert any(group.lower_bounds for group in filtered.groups)


@pytest.mark.parametrize("capture", [9, 8])
def test_unfiltered_cache_entries_still_answer(fig10_tables, tmp_path, capture):
    """An entry captured without the per-node filter holds the filtered
    capture's ``evals`` and answers every tightened query with the cold
    mine's bytes (LC 0.02)."""
    table = fig10_tables["LC"]
    fingerprint = frontier_fingerprint(table, ALL_PRUNINGS)
    constraints = Constraints(minsup=capture)
    old, new = tmp_path / "old", tmp_path / "new"
    with unfiltered_nodes():
        Farmer(constraints=constraints, warm_cache=str(old)).mine_table(table)
    Farmer(constraints=constraints, warm_cache=str(new)).mine_table(table)

    def evals(cache):
        entry = entry_path(cache, fingerprint, constraints)
        return load_checkpoint(entry, FRONTIER_ENVELOPE)["evals"]

    assert evals(old) == evals(new)
    for minsup in range(capture, 17):
        tightened = Constraints(minsup=minsup)
        warm = Farmer(constraints=tightened, warm_cache=str(old)).mine_table(table)
        cold = Farmer(constraints=tightened).mine_table(table)
        assert warm.counters.nodes == 0, minsup
        assert irgs_bytes(warm, tmp_path, f"warm-{minsup}") == irgs_bytes(
            cold, tmp_path, f"cold-{minsup}"
        ), minsup


# ----------------------------------------------------------------------
# The filter itself
# ----------------------------------------------------------------------


@st.composite
def filtered_extends(draw):
    """Masks over up to 130 rows, a row to extend by, a region and a
    threshold: the region's rows straddle the 64-row word boundary."""
    n_rows = draw(st.integers(min_value=1, max_value=130))
    full = (1 << n_rows) - 1
    masks = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=10)
    )
    row_bit = 1 << draw(st.integers(min_value=0, max_value=n_rows - 1))
    region = draw(st.integers(min_value=0, max_value=full))
    minsup = draw(st.integers(min_value=0, max_value=n_rows + 1))
    return masks, full, row_bit, region, minsup


@given(case=filtered_extends())
def test_extend_filter_matches_int_oracle(case):
    """``extend`` keeps, in table order, exactly the items holding the
    row and (with ``minsup``) ``minsup`` rows of the region, and scans
    them."""
    masks, full, row_bit, region, minsup = case
    root = CondTable.build(masks, full)
    expected = [
        item
        for item, mask in zip(root.item_ids, root.masks)
        if mask & row_bit
        and (not minsup or (mask & region).bit_count() >= minsup)
    ]
    inter, union = full, 0
    for item in expected:
        inter &= masks[item]
        union |= masks[item]
    child = root.extend(row_bit, region, minsup)
    assert child.item_ids == expected
    assert (child.inter, child.union) == (inter, union)


#: Short cyclic decision streams (``scheduling.Schedule``) with small
#: quanta, so parts keep donating frontiers whose units are rebuilt.
SCHEDULES = st.builds(
    Schedule,
    picks=st.lists(st.integers(0, 64), max_size=6).map(tuple),
    quanta=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    splits=st.lists(st.integers(0, 8), max_size=4).map(tuple),
)


@pytest.mark.parametrize("engine", ("numpy", "kernel"))
@given(
    data=FAMILIES,
    minsup=st.integers(min_value=2, max_value=4),
    schedule=SCHEDULES,
)
@example(data=REBUILT_PARENT, minsup=3, schedule=Schedule(quanta=(1,)))
def test_stolen_parts_keep_every_byte(
    engine, data, minsup, schedule, tmp_path_factory
):
    """The virtual work-stealing scheduler (every part's units attached
    to the root before it walks) serializes the bytes of the serial
    miner, under either engine spelling, with its counters."""
    constraints = Constraints(minsup=minsup)
    workdir = tmp_path_factory.mktemp("stolen")
    serial = Farmer(constraints=constraints, engine=engine).mine(data, "C")
    run = run_schedule(data, "C", constraints, schedule)
    virtual = serialized_store(
        data, "C", constraints, run.store, workdir / "virtual.irgs"
    )
    assert virtual == irgs_bytes(serial, workdir, "serial")
    assert dataclasses.replace(
        run.counters, groups_emitted=0
    ) == dataclasses.replace(serial.counters, groups_emitted=0)


def test_pool_steals_rebuilt_parents_exactly(tmp_path):
    """The real pool, stealing after every node, on the dataset whose
    rebuilt parent keeps an item the walker's filter dropped."""
    serial = Farmer(constraints=Constraints(minsup=3)).mine(REBUILT_PARENT, "C")
    assert frozenset({0}) in {group.upper for group in serial.groups}
    stolen = mine_irgs(
        REBUILT_PARENT, "C", minsup=3, n_workers=2, steal=True, steal_quantum=1
    )
    assert irgs_bytes(stolen, tmp_path, "stolen") == irgs_bytes(
        serial, tmp_path, "serial"
    )
    assert stolen.counters == serial.counters
    assert_fault_free(stolen)
