"""Reusable conformance machinery for the production engine.

The repo's guarantee structure is byte-identity: the production engine
must serialize the exact ``.irgs`` bytes of the ``reference`` oracle,
on the exact same search tree.  ``test_engine_conformance.py`` drives
the variants over the shared constraint/pruning grids and the
degenerate shapes.
"""

from __future__ import annotations

import test_farmer_oracle
from conftest import VARIANTS as PRODUCTION_VARIANTS, variant_engine

from repro.core.farmer import mine_irgs
from repro.core.serialize import save_rule_groups

#: The constraint grid every variant is differentially mined over
#: (shared with the oracle suite, the ground truth the engine chases).
CONSTRAINT_GRID = test_farmer_oracle.CONSTRAINT_GRID

#: Every pruning on/off combination (shared with the ablation suite).
PRUNING_COMBOS = test_farmer_oracle.TestPruningAblation.PRUNING_COMBOS

#: The variants under test, by id (:data:`conftest.VARIANTS`): each runs
#: the production engine against the oracle, under the ``engine=``
#: spelling its id names, if any.  ``reference`` runs the oracle
#: against the production engine spelled ``kernel``.
VARIANTS = (*PRODUCTION_VARIANTS[:4], "reference")


def production_engine(variant: str) -> str | None:
    """The ``engine=`` a variant mines its production side with."""
    return "kernel" if variant == "reference" else variant_engine(variant)


def irgs_bytes(result, tmp_path, tag) -> bytes:
    """The serialized ``.irgs`` bytes of a mining result."""
    path = tmp_path / f"{tag}.irgs"
    save_rule_groups(path, result.groups, constraints=result.constraints)
    return path.read_bytes()


def assert_serial_conformant(
    data, variant: str, tmp_path, tag: str, **constraints
):
    """Mine ``data`` serially with the reference oracle and with the
    production engine as ``variant`` spells it; both runs must
    serialize identical bytes over an identical search tree.

    Returns:
        ``(oracle_result, production_result)`` for additional
        assertions.
    """
    oracle = mine_irgs(data, "C", engine="reference", **constraints)
    production = mine_irgs(
        data, "C", engine=production_engine(variant), **constraints
    )
    assert irgs_bytes(production, tmp_path, f"{tag}-{variant}") == irgs_bytes(
        oracle, tmp_path, f"{tag}-reference"
    ), (variant, tag)
    # Same traversal, same prunings — only cache telemetry and
    # bound-evaluation counts may differ between the two.
    assert production.counters.nodes == oracle.counters.nodes, (variant, tag)
    return oracle, production
