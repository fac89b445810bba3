"""Reusable conformance machinery for the production engine's hand-off.

The repo's guarantee structure is byte-identity: the production engine
must serialize the exact ``.irgs`` bytes of the ``reference`` oracle,
on the exact same search tree, whichever representation each
conditional table takes.  The production engine holds ``TT|X`` as
packed words while it is wide and as int masks once it is narrower
than :data:`repro.core.npbitset.HANDOFF_ITEMS`; this module forces that
cutoff per test variant, and ``test_engine_conformance.py`` drives the
variants over the shared constraint/pruning grids and the degenerate
shapes.
"""

from __future__ import annotations

import test_farmer_oracle
from conftest import handoff

from repro.core.farmer import mine_irgs
from repro.core.serialize import save_rule_groups

#: The constraint grid every variant is differentially mined over
#: (shared with the oracle suite, the ground truth the engine chases).
CONSTRAINT_GRID = test_farmer_oracle.CONSTRAINT_GRID

#: Every pruning on/off combination (shared with the ablation suite).
PRUNING_COMBOS = test_farmer_oracle.TestPruningAblation.PRUNING_COMBOS

#: The variants under test, by id.  Every id but ``reference`` is a
#: :data:`conftest.HANDOFF_CUTOFFS` cutoff the production engine runs
#: at: all packed (``numpy``), a hand-off on the first extend
#: (``handoff-1``, ``handoff-2``) and the shipped cutoff (``default``).
#: ``reference`` runs the oracle engine itself, beside the production
#: engine with every table as int masks (the ``kernel`` cutoff), so the
#: all-int side is covered too.
VARIANTS = ("numpy", "handoff-1", "handoff-2", "default", "reference")


def variant_setup(variant: str) -> tuple[str, str | None]:
    """``(cutoff id, engine=)`` a variant mines its production side with.

    The ``reference`` variant's engine is the oracle; its partner runs
    at the all-int-masks cutoff.
    """
    if variant == "reference":
        return "kernel", "reference"
    return variant, None


def irgs_bytes(result, tmp_path, tag) -> bytes:
    """The serialized ``.irgs`` bytes of a mining result."""
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def assert_serial_conformant(
    data, variant: str, tmp_path, tag: str, **constraints
):
    """Mine ``data`` serially with the reference oracle and with the
    production engine at ``variant``'s cutoff; both runs must serialize
    identical bytes over an identical search tree.

    Returns:
        ``(oracle_result, production_result)`` for additional
        assertions.
    """
    cutoff, _ = variant_setup(variant)
    with handoff(cutoff):
        oracle = mine_irgs(data, "C", engine="reference", **constraints)
        production = mine_irgs(data, "C", **constraints)
    assert irgs_bytes(production, tmp_path, f"{tag}-{variant}") == irgs_bytes(
        oracle, tmp_path, f"{tag}-reference"
    ), (variant, tag)
    # Same traversal, same prunings — only cache telemetry and
    # bound-evaluation counts may differ between the two.
    assert production.counters.nodes == oracle.counters.nodes, (variant, tag)
    return oracle, production
