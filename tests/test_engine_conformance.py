"""Engine conformance suite (machinery in ``engine_conformance``).

The production engine is differentially mined against the ``reference``
oracle under every variant of :data:`engine_conformance.VARIANTS` (the
accepted ``engine=`` spellings and the default) over the shared
constraint grid, every pruning combination, every degenerate dataset
shape, a sharded run and a node-budget truncation sweep.  In all cases
the serialized ``.irgs`` bytes must match exactly.  A set of literal sha256
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
    VARIANTS as PRODUCTION_VARIANTS,
    assert_fault_free,
    random_dataset,
    variant_engine,
)
from strategies import degenerate_datasets, skewed_datasets
from engine_conformance import (
    CONSTRAINT_GRID,
    PRUNING_COMBOS,
    VARIANTS,
    assert_serial_conformant,
    irgs_bytes,
    production_engine,
)

from repro import mine_irgs
from repro.errors import DataError, UsageError


def test_unknown_engine_rejected():
    with pytest.raises(UsageError, match="unknown engine"):
        mine_irgs(random_dataset(0), "C", engine="warp")


def test_engines_available():
    """The sweep is not vacuously green: it mines the production engine
    under every accepted spelling and the default, against the
    reference oracle."""
    from repro.core.farmer import ENGINES

    spelled = {production_engine(v) for v in VARIANTS}
    assert spelled == (ENGINES - {"reference"}) | {None}
    assert "reference" in VARIANTS


def _mine_variant(variant, data, **kwargs):
    """Mine ``data`` with the engine ``variant`` names (the oracle for
    ``reference``)."""
    return mine_irgs(data, "C", engine=variant_engine(variant), **kwargs)


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
                with pytest.raises(DataError):
                    _mine_variant(engine, data)
                continue
            assert_serial_conformant(
                data, engine, tmp_path, f"{shape}-{seed}"
            )

    def test_sharded_matches_serial_kernel(self, engine, tmp_path):
        """A sharded run of the variant against the default serial run."""
        for seed in range(4):
            data = random_dataset(seed, max_rows=8)
            serial = mine_irgs(data, "C", minsup=1)
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
    @pytest.mark.parametrize("engine", [*PRODUCTION_VARIANTS, "reference"])
    @pytest.mark.parametrize(
        "minsup,minconf", sorted(PINNED_HASHES), ids=str
    )
    def test_paper_dataset_bytes_are_pinned(
        self, engine, minsup, minconf, paper_dataset, tmp_path
    ):
        """Every spelling and the oracle serialize the pinned bytes."""
        result = mine_irgs(
            paper_dataset, "C", minsup=minsup, minconf=minconf,
            engine=variant_engine(engine),
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
    the default production run.

    The walker ticks the budget once per visited node in serial
    depth-first order, so a mine cut after ``k`` nodes has admitted
    exactly the groups whose subtrees completed by then — the same
    groups, the same ``truncated`` flag and the same node count whatever
    the engine.  No full mine pins the tick order; this does.
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

    name = variant_engine(engine)
    for k in TRUNCATION_BUDGETS:
        kernel = mine(None, k)
        other = mine(name, k)
        assert kernel.truncated and kernel.counters.nodes == k + 1, k
        assert other.truncated == kernel.truncated, (engine, k)
        assert other.counters.nodes == kernel.counters.nodes, (engine, k)
        assert irgs_bytes(other, tmp_path, f"t-{engine}-{k}") == irgs_bytes(
            kernel, tmp_path, f"t-kernel-{k}"
        ), (engine, k)
