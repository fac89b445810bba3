"""FARMER — Finding Interesting Rule Groups in Microarray Datasets.

A from-scratch Python reproduction of the SIGMOD 2004 paper by Cong,
Tung, Xu, Pan and Yang: the row-enumeration miner for interesting rule
groups (IRGs), its lower-bound algorithm MineLB, the column-enumeration
baselines it was evaluated against (ColumnE, CHARM, CLOSET+, Apriori and
the CARPENTER predecessor), the IRG/CBA/SVM classifiers of Table 2, and a
benchmark harness regenerating every figure and table of the paper's
evaluation.

Quickstart::

    from repro import mine_irgs, make_microarray, EqualDepthDiscretizer

    matrix = make_microarray(n_samples=40, n_genes=60, n_class1=20, seed=7)
    data = EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)
    result = mine_irgs(data, consequent="class1", minsup=8, minconf=0.9)
    for group in result.sorted_groups()[:5]:
        print(group.format(data))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from typing import TYPE_CHECKING

from . import core
from .core import (
    ALL_PRUNINGS,
    Constraints,
    Farmer,
    FarmerResult,
    Rule,
    RuleGroup,
    SearchBudget,
    attach_lower_bounds,
    mine_irgs,
    mine_lower_bounds,
)
from .data import (
    EntropyMDLDiscretizer,
    EqualDepthDiscretizer,
    GeneExpressionMatrix,
    ItemizedDataset,
    TransposedTable,
    make_microarray,
)
from .errors import BudgetExceeded, ConstraintError, DataError, ReproError

__version__ = "1.0.0"

__all__ = [
    "ALL_PRUNINGS",
    "BudgetExceeded",
    "ConstraintError",
    "Constraints",
    "DataError",
    "EntropyMDLDiscretizer",
    "EqualDepthDiscretizer",
    "Farmer",
    "FarmerResult",
    "GeneExpressionMatrix",
    "ItemizedDataset",
    "ParallelReport",
    "ReproError",
    "Rule",
    "RuleGroup",
    "SearchBudget",
    "TransposedTable",
    "__version__",
    "attach_lower_bounds",
    "make_microarray",
    "mine_irgs",
    "mine_lower_bounds",
    "shutdown_workers",
]


if TYPE_CHECKING:
    from .core import ParallelReport, shutdown_workers


def __getattr__(name: str):
    # repro.core alone decides which of its names load lazily (PEP 562).
    if name in core._LAZY:
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
