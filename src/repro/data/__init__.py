"""Dataset substrate: matrices, discretization, transposition, synthesis.

The pipeline mirrors the paper's Section 4 setup::

    GeneExpressionMatrix  --discretize-->  ItemizedDataset
                                            |  TransposedTable.build
                                            v
                                       row-enumeration miners

plus the synthetic generator and the registry of the five paper datasets
(see DESIGN.md for the substitution rationale).

The TSV readers and writers (:mod:`~repro.data.io`) and the pre-mining
diagnostics (:mod:`~repro.data.profile`) are exported lazily through the
module ``__getattr__`` (PEP 562): only ``farmer profile``, ``--tsv``,
``farmer generate`` and dataset uploads use them, so a mine of a
registry dataset never imports them.
"""

import importlib

from .dataset import ItemizedDataset
from .discretize import EntropyMDLDiscretizer, EqualDepthDiscretizer
from .matrix import GeneExpressionMatrix
from .registry import PAPER_DATASETS, DatasetSpec, load, train_test_rows
from .synthetic import BlockSpec, make_microarray
from .transpose import TransposedTable, ord_permutation

__all__ = [
    "BlockSpec",
    "DatasetProfile",
    "DatasetSpec",
    "EntropyMDLDiscretizer",
    "EqualDepthDiscretizer",
    "GeneExpressionMatrix",
    "ItemizedDataset",
    "PAPER_DATASETS",
    "TransposedTable",
    "load",
    "load_expression",
    "load_itemized",
    "make_microarray",
    "ord_permutation",
    "profile_dataset",
    "profile_report",
    "save_expression",
    "save_itemized",
    "train_test_rows",
]

#: Public names whose modules load on first access (PEP 562).
_LAZY = {
    "DatasetProfile": ".profile",
    "load_expression": ".io",
    "load_itemized": ".io",
    "profile_dataset": ".profile",
    "profile_report": ".profile",
    "save_expression": ".io",
    "save_itemized": ".io",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
