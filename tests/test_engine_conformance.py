"""Hand-off conformance suite (machinery in ``engine_conformance``).

The production engine is differentially mined against the ``reference``
oracle with its hand-off cutoff forced to every variant of
:data:`engine_conformance.VARIANTS` — all packed words, a hand-off on
the first extend, the shipped cutoff, all int masks — over the shared
constraint grid, every pruning combination, every degenerate dataset
shape, a sharded run and a stealing run over a mix of both
representations.  In all cases the
serialized ``.irgs`` bytes must match exactly.  A set of literal sha256
pins on the paper's Figure 1(a) dataset anchors the whole family to
fixed bytes, so a drift that somehow hit every variant at once still
fails loudly.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    DEGENERATE_SHAPES,
    HANDOFF_CUTOFFS,
    assert_fault_free,
    handoff,
    random_dataset,
)
from strategies import degenerate_datasets, skewed_datasets
from engine_conformance import (
    CONSTRAINT_GRID,
    PRUNING_COMBOS,
    VARIANTS,
    assert_serial_conformant,
    irgs_bytes,
    variant_setup,
)

from repro import mine_irgs
from repro.errors import DataError, UsageError


def test_unknown_engine_rejected():
    with pytest.raises(UsageError, match="unknown engine"):
        mine_irgs(random_dataset(0), "C", engine="warp")


def test_engines_available():
    """The sweep is not vacuously green: it forces every cutoff that
    matters — all packed, a hand-off on the first extend, the shipped
    value, all int masks — and runs the reference oracle."""
    forced = {HANDOFF_CUTOFFS[variant_setup(v)[0]] for v in VARIANTS}
    assert {0, 1, 2, HANDOFF_CUTOFFS["default"], HANDOFF_CUTOFFS["kernel"]} <= forced
    assert any(variant_setup(v)[1] == "reference" for v in VARIANTS)


def _mine_variant(variant, data, **kwargs):
    """Mine ``data`` as ``variant`` (cutoff forced by the caller)."""
    _, engine = variant_setup(variant)
    return mine_irgs(data, "C", engine=engine, **kwargs)


@pytest.mark.parametrize("engine", VARIANTS)
class TestEngineConformance:
    """Byte-identity of each variant against the reference oracle."""

    @pytest.mark.parametrize("params", CONSTRAINT_GRID, ids=str)
    def test_constraint_grid(self, engine, params, tmp_path):
        for seed in range(8):
            data = random_dataset(seed)
            assert_serial_conformant(
                data, engine, tmp_path, f"grid-{seed}", **params
            )

    @pytest.mark.parametrize("prunings", PRUNING_COMBOS, ids=str)
    def test_pruning_combos(self, engine, prunings, paper_dataset, tmp_path):
        assert_serial_conformant(
            paper_dataset,
            engine,
            tmp_path,
            "prune",
            minsup=2,
            prunings=prunings,
        )

    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_degenerate_shapes(self, engine, shape, tmp_path):
        for seed in range(4):
            data = random_dataset(seed, shape=shape)
            if not any(label == "C" for label in data.labels):
                # No-consequent shapes pin the error path instead: every
                # variant must reject them the same way.
                with handoff(variant_setup(engine)[0]):
                    with pytest.raises(DataError):
                        _mine_variant(engine, data)
                continue
            assert_serial_conformant(
                data, engine, tmp_path, f"{shape}-{seed}"
            )

    def test_sharded_matches_serial_kernel(self, engine, tmp_path):
        """A sharded run of the variant against the serial run with every
        table as int masks."""
        for seed in range(4):
            data = random_dataset(seed, max_rows=8)
            with handoff("kernel"):
                serial = mine_irgs(data, "C", minsup=1)
            with handoff(variant_setup(engine)[0]):
                sharded = _mine_variant(engine, data, minsup=1, n_workers=2)
            assert irgs_bytes(sharded, tmp_path, f"s-{seed}") == irgs_bytes(
                serial, tmp_path, f"k-{seed}"
            ), (engine, seed)
            assert sharded.counters == serial.counters, (engine, seed)
            assert_fault_free(sharded)


@pytest.mark.parametrize("engine", VARIANTS)
class TestEngineConformanceProperties:
    """Hypothesis sweep over the shared dataset strategies.

    The parametrized grids above pin fixed seeds; these draws walk the
    degenerate families (word-tail 63/64/65, identical rows, shared
    items) and the Fig-10 skew shape under shrinking, so a conformance
    break reports a minimal dataset.  The nightly CI profile raises
    ``max_examples`` (see ``conftest.py``).
    """

    @given(data=degenerate_datasets())
    def test_degenerate_families_conform(self, engine, data, tmp_path_factory):
        # tmp_path is function-scoped (hypothesis forbids it under
        # @given); mktemp hands each example a fresh directory instead.
        workdir = tmp_path_factory.mktemp("hyp-degen")
        assert_serial_conformant(data, engine, workdir, "hyp-degen")

    @given(data=skewed_datasets())
    def test_skewed_supports_conform(self, engine, data, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("hyp-skew")
        assert_serial_conformant(
            data, engine, workdir, "hyp-skew", minsup=2
        )


# Literal pins on the paper's Figure 1(a) dataset: the bytes the whole
# engine family must serialize, fixed as constants so a drift hitting
# every engine at once (e.g. a serializer change) still fails.
PINNED_HASHES = {
    (1, 0.0): "cb81a0bcb563ea42dd160c77f46e87b1c2029c46acf41894f7de1ab556899be3",
    (1, 0.6): "a1d3770ccd5ae17fadb6a47744ae10c1a133812df8350d8b50d0eabd6f2de694",
    (2, 0.0): "74a4d08f024697064458b434bb8e7e3acdcea5d6197ec24f8387d28313078ce5",
    (2, 0.6): "3f24c2b80308caf2f8efbea8ca385063ef324af47afefb4983609b668b8a6075",
}


def test_every_engine_documented():
    """Doc-vs-code gate: each registered engine name is documented.

    The same pattern as the observability catalogue gate — every name in
    :data:`repro.core.farmer.ENGINES` must appear backticked in the
    performance and architecture docs, so registering an engine without
    documenting it fails here.
    """
    from repro.core.farmer import ENGINES as REGISTERED

    docs_dir = Path(__file__).resolve().parent.parent / "docs"
    for doc_name in ("performance.md", "architecture.md"):
        text = (docs_dir / doc_name).read_text()
        missing = sorted(
            name
            for name in REGISTERED
            if f"`{name}`" not in text and f'engine="{name}"' not in text
        )
        assert not missing, f"undocumented engines in {doc_name}: {missing}"


class TestPinnedHashes:
    @pytest.mark.parametrize("engine", [*HANDOFF_CUTOFFS, "reference"])
    @pytest.mark.parametrize(
        "minsup,minconf", sorted(PINNED_HASHES), ids=str
    )
    def test_paper_dataset_bytes_are_pinned(
        self, engine, minsup, minconf, paper_dataset, tmp_path
    ):
        """Every forced cutoff and the oracle serialize the pinned bytes."""
        reference = engine == "reference"
        with handoff("default" if reference else engine):
            result = mine_irgs(
                paper_dataset, "C", minsup=minsup, minconf=minconf,
                engine="reference" if reference else None,
            )
        digest = hashlib.sha256(
            irgs_bytes(result, tmp_path, "pin")
        ).hexdigest()
        assert digest == PINNED_HASHES[(minsup, minconf)], (
            engine,
            minsup,
            minconf,
        )


#: Node budgets of the truncation sweep: the first few nodes, the early
#: subtrees, and budgets deep into the LC tree (a full mine is 3,583
#: nodes, 9,681 before the per-node class-support filter, so the last
#: budget is 3,000 where it was 5,000: every budget must truncate).
TRUNCATION_BUDGETS = (1, 2, 3, 5, 8, 13, 50, 200, 1000, 3000)


@pytest.fixture(scope="module")
def lc_small():
    from repro.experiments.workloads import build_workload

    return build_workload("LC", scale=0.01)


@pytest.mark.parametrize("engine", VARIANTS)
def test_truncation_matches_kernel(engine, lc_small, tmp_path):
    """A non-strict node budget stops every variant at the same node as
    the all-int-masks run.

    The walker ticks the budget once per visited node in serial
    depth-first order, so a mine cut after ``k`` nodes has admitted
    exactly the groups whose subtrees completed by then — the same
    groups, the same ``truncated`` flag and the same node count whatever
    the representation.  No full mine pins the tick order; this does.
    """
    from repro.core.constraints import Constraints
    from repro.core.enumeration import SearchBudget
    from repro.core.farmer import Farmer

    def mine(name, k):
        return Farmer(
            constraints=Constraints(minsup=9),
            engine=name,
            budget=SearchBudget(max_nodes=k, strict=False),
        ).mine(lc_small.data, lc_small.consequent)

    cutoff, name = variant_setup(engine)
    for k in TRUNCATION_BUDGETS:
        with handoff("kernel"):
            kernel = mine(None, k)
        with handoff(cutoff):
            other = mine(name, k)
        assert kernel.truncated and kernel.counters.nodes == k + 1, k
        assert other.truncated == kernel.truncated, (engine, k)
        assert other.counters.nodes == kernel.counters.nodes, (engine, k)
        assert irgs_bytes(other, tmp_path, f"t-{engine}-{k}") == irgs_bytes(
            kernel, tmp_path, f"t-kernel-{k}"
        ), (engine, k)


#: At LC scale 0.01 and minsup 9 the root keeps 42 of the 1,250 items
#: (those in at least nine positive rows) and no child of it holds more
#: than 21, so with this cutoff the root is packed and every deeper
#: table is int masks: a frontier below the root's children mixes the
#: two.
MIXED_CUTOFF = 32


def test_mixed_representations_shard_and_steal(lc_small, tmp_path):
    """Shards and donated frontiers that mix both representations mine
    the oracle's bytes, statically and under work stealing."""
    from repro.core.constraints import Constraints
    from repro.core.enumeration import NodeCounters
    from repro.core.farmer import ALL_PRUNINGS, SearchContext
    from repro.core.kernel import CondTable
    from repro.core.npbitset import NumpyCondTable
    from repro.core.parallel import _decompose
    from repro.data.transpose import TransposedTable

    data, consequent = lc_small.data, lc_small.consequent
    constraints = Constraints(minsup=9)
    table = TransposedTable.build(data, consequent)
    oracle = mine_irgs(data, consequent, minsup=9, engine="reference")
    expected = irgs_bytes(oracle, tmp_path, "oracle")
    with handoff(MIXED_CUTOFF):
        ctx = SearchContext.for_table(table, constraints, ALL_PRUNINGS)
        # A target above the root's 132 children makes the frontier
        # reach below them, as a stolen frontier does.
        _, tasks, _ = _decompose(
            ctx, ctx.root_state(table), NodeCounters(), 256, 1024, None, True
        )
        kinds = {type(task.state.table) for task in tasks}
        assert kinds == {NumpyCondTable, CondTable}, kinds
        for steal in (False, True):
            sharded = mine_irgs(
                data, consequent, minsup=9, n_workers=2, steal=steal,
                steal_quantum=64,
            )
            assert irgs_bytes(sharded, tmp_path, f"mixed-{steal}") == (
                expected
            ), steal
            assert sharded.counters.nodes == oracle.counters.nodes, steal
            assert_fault_free(sharded)
            if steal:
                assert sharded.parallel.donations, "nothing was donated"
