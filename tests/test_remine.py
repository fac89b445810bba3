"""Warm re-mining property suite: warm ≡ cold, byte-for-byte.

For random datasets and random constraint pairs — tighten, loosen, and
mixed deltas — a warm re-mine through the frontier cache
(``core/frontier.py``) must serialize exactly the bytes a cold mine
produces, whichever engine spelling (or the reference engine) captured
the entry and whichever answers.  A tightened re-mine must additionally expand **zero** nodes
(pure filter), and corrupt or other-layout cache files must degrade to
a miss, never an error.

Warm answers never shard (``n_workers``/``steal`` are ignored), so the
``sharded``/``steal`` modes check that those knobs change nothing.  The
paper-scale tests pin the item-count ceiling the earlier entry format
had: above ~14k items an item bitmask no longer encodes as JSON text.

The nightly CI stress job runs this file at hypothesis's ``nightly``
profile alongside the conformance and scheduling sweeps.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import variant_engine
from strategies import datasets

from repro import mine_irgs
from repro.core.frontier import candidate_from_row
from repro.errors import DataError, UsageError

#: Variant ids (``conftest.VARIANTS``) the suite mines under: the
#: ``kernel`` and ``numpy`` spellings of the production engine.
VARIANTS = ("kernel", "numpy")

#: Constraint triples dense enough that both sides of a pair regularly
#: produce groups on the small strategy datasets.
CONSTRAINTS = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.3, 0.6, 0.9]),
    st.sampled_from([0.0, 0.5]),
)

#: How the warm answer executes: serial, static shards, or stealing.
MODES = st.sampled_from(["serial", "sharded", "steal"])


def _irgs_bytes(result, directory, tag):
    from repro.core.serialize import save_rule_groups

    path = directory / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def _mine(data, constraints, **kw):
    minsup, minconf, minchi = constraints
    return mine_irgs(data, "C", minsup, minconf, minchi, **kw)


def _warm_kwargs(mode, cache):
    kwargs = {"warm_cache": cache}
    if mode == "sharded":
        kwargs["n_workers"] = 2
    elif mode == "steal":
        kwargs.update(n_workers=2, steal=True, steal_quantum=64)
    return kwargs


@pytest.mark.parametrize("engine", VARIANTS)
@given(data=datasets(), pair=st.tuples(CONSTRAINTS, CONSTRAINTS), mode=MODES)
@settings(deadline=None)
def test_warm_equals_cold(engine, data, pair, mode):
    """Capture at C0, re-mine at C1: groups equal a cold C1 mine's."""
    first, second = pair
    cache = tempfile.mkdtemp(prefix="remine-")
    try:
        engine = variant_engine(engine)
        seeded = _mine(data, first, engine=engine, warm_cache=cache)
        cold_first = _mine(data, first)
        assert seeded.groups == cold_first.groups
        warm = _mine(data, second, engine=engine, **_warm_kwargs(mode, cache))
        cold = _mine(data, second)
        assert warm.groups == cold.groups
    finally:
        shutil.rmtree(cache)


@pytest.mark.parametrize("engine", VARIANTS)
@given(data=datasets(), base=CONSTRAINTS)
@settings(deadline=None)
def test_tighten_is_pure_filter(engine, data, base):
    """No knob loosened ⇒ the warm answer expands zero nodes."""
    minsup, minconf, minchi = base
    tightened = (minsup + 2, min(1.0, minconf + 0.1), minchi + 0.5)
    cache = tempfile.mkdtemp(prefix="remine-")
    try:
        engine = variant_engine(engine)
        _mine(data, base, engine=engine, warm_cache=cache)
        warm = _mine(data, tightened, engine=engine, warm_cache=cache)
        cold = _mine(data, tightened)
        assert warm.counters.nodes == 0
        assert warm.groups == cold.groups
    finally:
        shutil.rmtree(cache)


@given(data=datasets(), base=CONSTRAINTS)
@settings(deadline=None)
def test_cross_engine_cache_reuse(data, base):
    """An entry captured by the reference engine answers under every
    production spelling."""
    minsup, minconf, minchi = base
    tightened = (minsup + 1, minconf, minchi)
    cache = tempfile.mkdtemp(prefix="remine-")
    try:
        _mine(data, base, engine="reference", warm_cache=cache)
        for variant in VARIANTS:
            warm = _mine(
                data, tightened, engine=variant_engine(variant),
                warm_cache=cache,
            )
            cold = _mine(data, tightened)
            assert warm.counters.nodes == 0
            assert warm.groups == cold.groups
    finally:
        shutil.rmtree(cache)


@given(data=datasets(), base=CONSTRAINTS)
@settings(deadline=None, max_examples=10)
def test_corrupt_entry_degrades_to_miss(data, base):
    """A truncated cache file is skipped, and the answer stays cold-equal."""
    from pathlib import Path

    cache = tempfile.mkdtemp(prefix="remine-")
    try:
        _mine(data, base, warm_cache=cache)
        for entry in Path(cache).glob("*.frontier"):
            entry.write_bytes(entry.read_bytes()[: 40])
        warm = _mine(data, base, warm_cache=cache)
        cold = _mine(data, base)
        assert warm.groups == cold.groups
    finally:
        shutil.rmtree(cache)


def test_irgs_bytes_identical(tmp_path):
    """End-to-end byte pin: warm tighten and loosen both serialize the
    cold mine's exact ``.irgs`` bytes, serial and sharded."""
    from conftest import random_dataset

    data = random_dataset(5, max_rows=12, max_items=10)
    cache = tmp_path / "cache"
    _mine(data, (3, 0.0, 0.0), warm_cache=str(cache))
    cases = [
        ("tighten", (4, 0.6, 0.0), {}),
        ("loosen", (1, 0.0, 0.0), {}),
        ("loosen-sharded", (1, 0.0, 0.0), {"n_workers": 2}),
        (
            "loosen-steal",
            (1, 0.0, 0.0),
            {"n_workers": 2, "steal": True, "steal_quantum": 64},
        ),
    ]
    for tag, constraints, extra in cases:
        warm = _mine(data, constraints, warm_cache=str(cache), **extra)
        cold = _mine(data, constraints)
        assert _irgs_bytes(warm, tmp_path, f"warm-{tag}") == _irgs_bytes(
            cold, tmp_path, f"cold-{tag}"
        ), tag


def test_repeated_answers_reuse_built_groups_per_row_order(tmp_path):
    """A repeated warm answer returns the groups the first one built,
    and a table whose ORD masks match but whose rows sit in another
    original order (the same entry fingerprint) gets groups over its
    own row ids: the cold mine's bytes, not the first table's."""
    from repro.data.dataset import ItemizedDataset

    rows = [[0], [1], [0, 1], [1]]
    first = ItemizedDataset.from_lists(rows, ["C", "C", "D", "D"], n_items=2)
    # The same rows in ORD, with a negative row moved between the two
    # positive ones.
    moved = ItemizedDataset.from_lists(
        [rows[0], rows[2], rows[1], rows[3]], ["C", "D", "C", "D"], n_items=2
    )
    cache = str(tmp_path / "cache")
    _mine(first, (1, 0.0, 0.0), warm_cache=cache)
    once = _mine(first, (1, 0.0, 0.0), warm_cache=cache)
    again = _mine(first, (1, 0.0, 0.0), warm_cache=cache)
    assert once.groups and all(
        a is b for a, b in zip(once.groups, again.groups)
    )
    warm = _mine(moved, (1, 0.0, 0.0), warm_cache=cache)
    assert warm.counters.nodes == 0  # answered from the first entry
    cold = _mine(moved, (1, 0.0, 0.0))
    assert [group.rows for group in warm.groups] != [
        group.rows for group in once.groups
    ]
    assert _irgs_bytes(warm, tmp_path, "warm") == _irgs_bytes(
        cold, tmp_path, "cold"
    )


def test_warm_cache_rejects_checkpoint_knobs(tmp_path):
    """The warm path plans its own work — node budgets are incompatible
    and rejected at construction; shard checkpointing no longer exists,
    so its keyword is a ``TypeError``, never silently ignored."""
    from repro.core.enumeration import SearchBudget
    from repro.core.farmer import Farmer

    with pytest.raises(TypeError, match="checkpoint"):
        Farmer(
            warm_cache=str(tmp_path),
            checkpoint=str(tmp_path / "ck"),
        )
    with pytest.raises(UsageError, match="warm"):
        Farmer(
            warm_cache=str(tmp_path),
            budget=SearchBudget(max_nodes=100),
        )


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
    no chain for one: a crafted entry row is refused."""
    with pytest.raises(DataError, match="candidate has no item ids"):
        candidate_from_row([[], 3, 1, 0b1011], "entry")


#: sha256 of the ``.frontier`` entries of the perf gate's remine section
#: (LC scale 0.02): the capture at minsup 9, and the fresh capture a
#: loosening to minsup 8 persists beside it (``repro-frontier/2``).
#: Entries survive across releases in long-lived cache directories (the
#: serve registry keeps its own), so the walker's evaluation order is
#: part of the on-disk format: a drift here strands every existing
#: cache even if warm answers still match cold ones.  The root's
#: class-support filter moved only ``stats.nodes`` (31,191 -> 7,119 and
#: 50,016 -> 17,953), and so did the per-node filter below it (7,119 ->
#: 2,447 and 17,953 -> 5,765); ``evals`` kept every byte, and
#: ``tests/test_root_filter.py`` and ``tests/test_node_filter.py`` check
#: that entries written before them still answer tightened queries.
FRONTIER_ENTRY_SHA256 = {
    9: "2ec3d4d20f435b626efefdae48a234c4cb553f3edf35d20e797989135811ded8",
    8: "a5264933b7acfc1393fb21e854e0109732f2083ced9c5a95179cdb1a5347ebb6",
}


@pytest.mark.parametrize("engine", VARIANTS)
def test_frontier_entry_bytes_are_pinned(engine, tmp_path):
    import hashlib

    from repro.core.constraints import Constraints
    from repro.core.farmer import Farmer
    from repro.core.frontier import entry_path, frontier_fingerprint
    from repro.data.transpose import TransposedTable
    from repro.experiments.workloads import build_workload

    workload = build_workload("LC", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    fingerprint = frontier_fingerprint(table, ("p1", "p2", "p3"))
    cache = tmp_path / "cache"
    for minsup in (9, 8):
        constraints = Constraints(minsup=minsup)
        Farmer(
            constraints=constraints, engine=variant_engine(engine),
            warm_cache=str(cache),
        ).mine_table(table)
        entry = entry_path(cache, fingerprint, constraints)
        digest = hashlib.sha256(entry.read_bytes()).hexdigest()
        assert digest == FRONTIER_ENTRY_SHA256[minsup], (engine, minsup)


def test_fingerprint_is_memoized_per_table_and_pruning_set():
    """The memoized digest equals a fresh computation on an identical
    table, is keyed by the pruning set (in any order), and is what
    later calls on the same table return."""
    from repro.core.frontier import frontier_fingerprint
    from repro.data.transpose import TransposedTable
    from repro.experiments.workloads import build_workload

    workload = build_workload("LC", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    full = frontier_fingerprint(table, ("p1", "p2", "p3"))
    fresh = TransposedTable.build(workload.data, workload.consequent)
    assert fresh.memo == {}
    assert frontier_fingerprint(fresh, ("p3", "p1", "p2")) == full
    partial = frontier_fingerprint(table, ("p1",))
    assert partial != full
    assert sorted(table.memo.values()) == sorted([full, partial])
    # Later calls read the memo rather than re-hashing the masks.
    for key in table.memo:
        table.memo[key] = "memoized"
    assert frontier_fingerprint(table, ("p2", "p3", "p1")) == "memoized"


def test_cache_entries_skips_malformed(tmp_path):
    """The inventory lists every entry whose envelope, key halves and
    ``evals``/``nodes`` stats are sound — the evaluation body is not
    decoded — and skips every other file in the directory."""
    import copy
    from pathlib import Path

    from repro.core.constraints import Constraints
    from repro.core.farmer import Farmer
    from repro.core.frontier import (
        FRONTIER_ENVELOPE,
        cache_entries,
        frontier_fingerprint,
    )
    from repro.core.serialize import load_checkpoint, save_checkpoint
    from repro.data.transpose import TransposedTable
    from repro.experiments.workloads import build_workload

    workload = build_workload("LC", scale=0.02)
    table = TransposedTable.build(workload.data, workload.consequent)
    fingerprint = frontier_fingerprint(table, ("p1", "p2", "p3"))
    cache = tmp_path / "cache"
    Farmer(
        constraints=Constraints(minsup=12), warm_cache=str(cache)
    ).mine_table(table)
    (valid,) = cache.glob("*.frontier")
    payload = load_checkpoint(valid, FRONTIER_ENVELOPE)

    def variant(name, edit):
        mutated = copy.deepcopy(payload)
        edit(mutated)
        save_checkpoint(
            cache / f"{fingerprint[:20]}-{name}.frontier",
            mutated,
            FRONTIER_ENVELOPE,
        )

    variant("kind", lambda p: p.update(kind="checkpoint"))
    variant("foreign", lambda p: p.update(fingerprint="0" * 64))
    variant("nofp", lambda p: p.update(fingerprint=7))
    variant("arity", lambda p: p.update(constraints=[12, 0.0]))
    variant("minsup", lambda p: p.update(constraints=["12", 0.0, 0.0]))
    variant("minconf", lambda p: p.update(constraints=[12, 2.0, 0.0]))
    variant("nostats", lambda p: p.pop("stats"))
    variant("boolstat", lambda p: p["stats"].update(nodes=True))
    variant("nonodes", lambda p: p["stats"].pop("nodes"))
    variant("v1", lambda p: p.update(kind="repro-frontier/1"))
    variant("evals", lambda p: p.update(evals="not decoded here"))
    (cache / f"{fingerprint[:20]}-torn.frontier").write_bytes(
        valid.read_bytes()[:40]
    )
    (cache / "unrelated.txt").write_text("not an entry")

    def names(entries):
        return sorted(Path(entry["path"]).name for entry in entries)

    kept = cache_entries(cache, fingerprint)
    assert names(kept) == sorted(
        [valid.name, f"{fingerprint[:20]}-evals.frontier"]
    )
    summary = next(entry for entry in kept if entry["path"] == str(valid))
    assert summary["fingerprint"] == fingerprint
    assert summary["constraints"] == Constraints(minsup=12)
    assert summary["stats"] == payload["stats"]
    assert sorted(summary["stats"]) == ["evals", "nodes"]
    assert summary["stats"]["evals"] == len(payload["evals"])
    assert names(cache_entries(cache)) == sorted(
        [
            valid.name,
            f"{fingerprint[:20]}-evals.frontier",
            f"{fingerprint[:20]}-foreign.frontier",
        ]
    )
    assert cache_entries(tmp_path / "missing") == []


def _events(telemetry, kind):
    return [event for event in telemetry.runlog.tail() if event["kind"] == kind]


def test_v1_entry_is_a_miss_and_stays(tmp_path):
    """A ``repro-frontier/1`` file (the pruned-frontier layout) under
    the dataset's key is skipped as a miss, and the new capture is
    written beside it without touching it."""
    import hashlib
    import json

    from conftest import random_dataset
    from repro.core.frontier import (
        FRONTIER_ENVELOPE,
        FRONTIER_KIND,
        frontier_fingerprint,
    )
    from repro.core.serialize import canonical_json, save_checkpoint
    from repro.data.transpose import TransposedTable
    from repro.obs import EventTap, Telemetry

    data = random_dataset(5, max_rows=12, max_items=10)
    table = TransposedTable.build(data, "C")
    fingerprint = frontier_fingerprint(table, ("p1", "p2", "p3"))
    cache = tmp_path / "cache"
    cache.mkdir()
    # The layout-1 file name: the constraint key hashed the thresholds only.
    key = hashlib.sha256(
        canonical_json([1, 0.0, 0.0]).encode("utf-8")
    ).hexdigest()
    old = cache / f"{fingerprint[:20]}-{key[:20]}.frontier"
    save_checkpoint(
        old,
        {
            "kind": "repro-frontier/1",
            "fingerprint": fingerprint,
            "constraints": [1, 0.0, 0.0],
            "tables": [],
            "units": [["e", 1, 1, 0, 1]],
            "stats": {"evals": 1, "pruned": 0, "nodes": 1, "frontier_weight": 0},
        },
        FRONTIER_ENVELOPE,
    )
    old_bytes = old.read_bytes()

    telemetry = Telemetry(runlog=EventTap())
    warm = _mine(data, (1, 0.0, 0.0), warm_cache=str(cache), telemetry=telemetry)
    cold = _mine(data, (1, 0.0, 0.0))
    assert _irgs_bytes(warm, tmp_path, "warm") == _irgs_bytes(cold, tmp_path, "cold")
    (miss,) = _events(telemetry, "cache_miss")
    assert (miss["reason"], miss["corrupt"]) == ("empty", 1)
    assert old.read_bytes() == old_bytes
    (new,) = [path for path in cache.glob("*.frontier") if path != old]
    assert json.loads(new.read_text().splitlines()[1])["kind"] == FRONTIER_KIND


def test_miss_reasons_and_reuse_gauge(tmp_path):
    """``cache_miss`` says why the planner captured, and the reuse gauge
    reads 0 for a capture and 1 for a filter."""
    from conftest import random_dataset
    from repro.obs import EventTap, Telemetry

    data = random_dataset(5, max_rows=12, max_items=10)
    cache = str(tmp_path / "cache")
    outcomes = []
    for constraints in ((3, 0.0, 0.0), (4, 0.5, 0.0), (2, 0.0, 0.0)):
        telemetry = Telemetry(runlog=EventTap())
        _mine(data, constraints, warm_cache=cache, telemetry=telemetry)
        misses = _events(telemetry, "cache_miss")
        gauge = telemetry.registry.snapshot().gauges["frontier.reuse_fraction"]
        phases = {
            event["phase"] for event in _events(telemetry, "phase_end")
        }
        outcomes.append(
            (misses[0]["reason"] if misses else "hit", gauge, "persist" in phases)
        )
    assert outcomes == [
        ("empty", 0.0, True),
        ("hit", 1.0, False),
        ("loosened", 0.0, True),
    ]


def _wide_dataset(n_items=15_000, n_rows=6, seed=7):
    """A few rows over more items than an item bitmask can carry as JSON
    text (the earlier entry format failed above ~14,280 items)."""
    import random

    from repro.data.dataset import ItemizedDataset

    rng = random.Random(seed)
    rows = [[] for _ in range(n_rows)]
    for item in range(n_items):
        for row in rng.sample(range(n_rows), rng.randint(1, n_rows - 1)):
            rows[row].append(item)
    labels = ["C" if row % 2 == 0 else "D" for row in range(n_rows)]
    return ItemizedDataset.from_lists(rows, labels, n_items=n_items)


@pytest.mark.parametrize("engine", VARIANTS)
def test_paper_scale_item_count(engine, tmp_path):
    """Capture, tighten and loosen on a >14,280-item table all serialize
    the cold mine's bytes."""
    data = _wide_dataset()
    assert data.n_items > 14_280
    cache = str(tmp_path / "cache")
    for tag, constraints in (
        ("capture", (2, 0.0, 0.0)),
        ("tighten", (3, 0.6, 0.0)),
        ("loosen", (1, 0.0, 0.0)),
    ):
        warm = _mine(
            data, constraints, engine=variant_engine(engine), warm_cache=cache
        )
        cold = _mine(data, constraints)
        assert _irgs_bytes(warm, tmp_path, f"warm-{tag}") == _irgs_bytes(
            cold, tmp_path, f"cold-{tag}"
        ), tag
        assert (warm.counters.nodes == 0) == (tag == "tighten"), tag
