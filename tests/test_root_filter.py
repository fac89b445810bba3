"""The root's class-support item filter against the walk without it.

:meth:`~repro.core.farmer.SearchContext.root_state` builds the root over
the items whose class support ``|R(i) ∩ pos|`` reaches ``minsup`` only.
Rule support counts positive rows, so an item of an emitted upper bound
``A`` has class support at least ``supp(A) >= minsup``: the frequent
closed sets, their rows, Step 7's competitors and MineLB's lower bounds
are those of the unfiltered walk.  Every check here mines both roots
(the unfiltered one through ``conftest.unfiltered_root``) and compares
the serialized bytes:

* the hypothesis dataset families, under both engines and every
  pruning set;
* the 20 Figure 10 points at scale 0.02, and lower bounds at CT 0.02
  minsup 3;
* warm-cache entries an unfiltered capture wrote: the same ``evals``
  as a filtered capture, and byte-identical answers to tightened
  queries.

The filter itself (:func:`~repro.core.farmer._root_items`) is checked
against an int-mask oracle, across the 64-row word boundary.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import unfiltered_root
from engine_conformance import irgs_bytes
from strategies import datasets, degenerate_datasets, skewed_datasets

from repro.core.constraints import Constraints
from repro.core.farmer import ALL_PRUNINGS, Farmer, SearchContext, _root_items
from repro.core.frontier import FRONTIER_ENVELOPE, entry_path, frontier_fingerprint
from repro.core.serialize import load_checkpoint
from repro.data.dataset import ItemizedDataset
from repro.data.transpose import TransposedTable
from repro.experiments.workloads import DATASET_ORDER, MINSUP_GRIDS, build_workload

#: Pruning sets the hypothesis differential draws from (Pruning 2
#: needs Pruning 1, so ``{"p2"}`` alone is the empty set).
PRUNING_SUBSETS = (
    ALL_PRUNINGS,
    frozenset({"p1", "p3"}),
    frozenset({"p3"}),
    frozenset({"p1", "p2"}),
    frozenset(),
)

#: The ``engine=`` of each run: the production engine and the reference
#: oracle.
RUNS = (None, "reference")
RUN_IDS = ("production", "reference")


def _both_roots(table, tmp_path, tag, **options):
    """The ``.irgs`` bytes and result of ``table`` mined from the
    filtered root and from the unfiltered one."""
    filtered = Farmer(**options).mine_table(table)
    with unfiltered_root():
        unfiltered = Farmer(**options).mine_table(table)
    return (
        irgs_bytes(filtered, tmp_path, f"{tag}-filtered"),
        irgs_bytes(unfiltered, tmp_path, f"{tag}-unfiltered"),
        filtered,
        unfiltered,
    )


@pytest.mark.parametrize("engine", RUNS, ids=RUN_IDS)
@given(
    data=st.one_of(
        datasets(max_rows=10, max_items=8),
        skewed_datasets(max_dense=6, max_sparse=4),
        degenerate_datasets(
            shapes=("single_row", "all_identical", "shared_item", "one_item")
        ),
    ),
    minsup=st.integers(min_value=0, max_value=5),
    minconf=st.sampled_from([0.0, 0.5, 0.8]),
    minchi=st.sampled_from([0.0, 1.0]),
    prunings=st.sampled_from(PRUNING_SUBSETS),
)
def test_filter_keeps_every_byte(
    engine, data, minsup, minconf, minchi, prunings, tmp_path_factory
):
    """At most ten rows: with every pruning off the walk visits up to
    ``2**n`` nodes."""
    table = TransposedTable.build(data, "C")
    tmp_path = tmp_path_factory.mktemp("filter")
    filtered, unfiltered, result, _ = _both_roots(
        table,
        tmp_path,
        "mine",
        constraints=Constraints(minsup=minsup, minconf=minconf, minchi=minchi),
        prunings=prunings,
        engine=engine,
    )
    assert filtered == unfiltered
    assert all(group.upper for group in result.groups)


@pytest.fixture(scope="module")
def fig10_workloads():
    return {name: build_workload(name, scale=0.02) for name in DATASET_ORDER}


@pytest.mark.parametrize(
    ("name", "minsup"),
    [(name, minsup) for name in DATASET_ORDER for minsup in MINSUP_GRIDS[name]],
)
def test_figure_10_points_keep_every_byte(fig10_workloads, tmp_path, name, minsup):
    """The 20 Figure 10 points at scale 0.02: the same bytes, and the
    filtered walk never visits more nodes."""
    workload = fig10_workloads[name]
    table = TransposedTable.build(workload.data, workload.consequent)
    filtered, unfiltered, fast, slow = _both_roots(
        table, tmp_path, name, constraints=Constraints(minsup=minsup)
    )
    assert filtered == unfiltered
    assert fast.counters.groups_emitted == slow.counters.groups_emitted
    assert fast.counters.nodes <= slow.counters.nodes


def test_lower_bounds_keep_every_byte(tmp_path):
    """MineLB works inside each upper bound, so the filter leaves the
    lower bounds alone (CT 0.02 minsup 3, the CI lower-bounds pin)."""
    workload = build_workload("CT", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    filtered, unfiltered, result, _ = _both_roots(
        table,
        tmp_path,
        "lb",
        constraints=Constraints(minsup=3),
        compute_lower_bounds=True,
    )
    assert filtered == unfiltered
    assert any(group.lower_bounds for group in result.groups)


def _evals(path):
    return load_checkpoint(path, FRONTIER_ENVELOPE)["evals"]


@pytest.mark.parametrize("capture", [9, 8])
def test_unfiltered_cache_entries_still_answer(tmp_path, capture):
    """A ``.frontier`` entry captured from the unfiltered root holds the
    same ``evals`` as a filtered capture, and answers every tightened
    query with the cold mine's bytes (LC 0.02, the perf gate's remine
    section)."""
    workload = build_workload("LC", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    fingerprint = frontier_fingerprint(table, ALL_PRUNINGS)
    constraints = Constraints(minsup=capture)
    old, new = tmp_path / "old", tmp_path / "new"
    with unfiltered_root():
        Farmer(constraints=constraints, warm_cache=str(old)).mine_table(table)
    Farmer(constraints=constraints, warm_cache=str(new)).mine_table(table)
    assert _evals(entry_path(old, fingerprint, constraints)) == _evals(
        entry_path(new, fingerprint, constraints)
    )
    for minsup in range(capture, 17):
        tightened = Constraints(minsup=minsup)
        warm = Farmer(constraints=tightened, warm_cache=str(old)).mine_table(
            table
        )
        cold = Farmer(constraints=tightened).mine_table(table)
        assert warm.counters.nodes == 0, minsup  # answered by the filter
        assert irgs_bytes(warm, tmp_path, f"warm-{minsup}") == irgs_bytes(
            cold, tmp_path, f"cold-{minsup}"
        ), minsup


# ----------------------------------------------------------------------
# The filter itself
# ----------------------------------------------------------------------


@st.composite
def class_tables(draw):
    """A table of up to 130 rows, ``m`` of them positive, so the last
    positive word is full, partial or shared with negative rows."""
    n_rows = draw(st.integers(min_value=1, max_value=130))
    m = draw(st.integers(min_value=1, max_value=n_rows))
    n_items = draw(st.integers(min_value=1, max_value=8))
    masks = [
        draw(st.integers(min_value=0, max_value=(1 << n_rows) - 1))
        for _ in range(n_items)
    ]
    rows = [
        [item for item, mask in enumerate(masks) if mask >> row & 1]
        for row in range(n_rows)
    ]
    labels = ["C"] * m + ["D"] * (n_rows - m)
    data = ItemizedDataset.from_lists(rows, labels, n_items=n_items)
    return TransposedTable.build(data, "C")


def _oracle(table, minsup):
    positive = table.positive_mask
    return [
        item
        for item, mask in enumerate(table.item_masks)
        if (mask & positive).bit_count() >= minsup
    ]


@given(table=class_tables(), minsup=st.integers(min_value=0, max_value=131))
def test_root_items_match_int_popcounts(table, minsup):
    """The class-support counts (first ``ceil(m/64)`` words, the last
    one tail-masked) keep the same ascending ids as counting each
    mask's positive rows."""
    assert _root_items(table, minsup).tolist() == _oracle(table, minsup)


@pytest.mark.parametrize("engine", RUNS, ids=RUN_IDS)
@given(table=class_tables(), minsup=st.integers(min_value=0, max_value=70))
def test_root_holds_the_kept_items_under_their_own_ids(
    engine, table, minsup
):
    """The root table holds exactly the kept items, by their table ids;
    a root that keeps none is ``None``."""
    ctx = SearchContext.for_table(
        table, Constraints(minsup=minsup), ALL_PRUNINGS,
        reference=engine == "reference",
    )
    kept = _oracle(table, minsup)
    root = ctx.root_state(table)
    if not kept:
        assert root is None
        return
    assert sorted(root.table.item_ids) == kept
    assert root.table.inter == _intersection(table, kept)


def _intersection(table, items):
    rows = table.all_rows_mask
    for item in items:
        rows &= table.item_masks[item]
    return rows
