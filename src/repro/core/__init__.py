"""The paper's contribution: FARMER, MineLB and the rule-group model.

Public surface:

* :class:`~repro.core.farmer.Farmer` / :func:`~repro.core.farmer.mine_irgs`
  — the row-enumeration IRG miner (Figure 5).
* :func:`~repro.core.minelb.mine_lower_bounds` — MineLB (Figure 9).
* :class:`~repro.core.rulegroup.RuleGroup`, :class:`~repro.core.rule.Rule`
  — the result model.
* :class:`~repro.core.constraints.Constraints` — minsup/minconf/minchi.
* :mod:`~repro.core.measures` — chi-square and the extended measures.
* :mod:`~repro.core.parallel` — sharded execution across worker
  processes (``Farmer(n_workers=...)``), bit-identical to serial, with
  fault-tolerant retries (:class:`~repro.core.parallel.RetryPolicy`).

The sharded names (``ParallelReport``, ``RetryPolicy``,
``shutdown_workers``) are exported lazily through the module
``__getattr__`` (PEP 562): a serial, warm or served mine never imports
:mod:`multiprocessing`, :mod:`concurrent.futures` or the fault
injector.
"""

import importlib

from .constraints import Constraints
from .enumeration import NodeCounters, SearchBudget, merge_counters
from .farmer import ALL_PRUNINGS, Farmer, FarmerResult, mine_irgs
from .minelb import attach_lower_bounds, lower_bounds_for_group, mine_lower_bounds
from .rule import Rule
from .rulegroup import RuleGroup
from .serialize import load_rule_groups, save_rule_groups
from .validate import validate_group, validate_result

__all__ = [
    "ALL_PRUNINGS",
    "Constraints",
    "Farmer",
    "FarmerResult",
    "NodeCounters",
    "ParallelReport",
    "RetryPolicy",
    "Rule",
    "RuleGroup",
    "SearchBudget",
    "attach_lower_bounds",
    "load_rule_groups",
    "lower_bounds_for_group",
    "merge_counters",
    "mine_irgs",
    "mine_lower_bounds",
    "save_rule_groups",
    "shutdown_workers",
    "validate_group",
    "validate_result",
]

#: Public names whose modules load on first access (PEP 562).
_LAZY = {
    "ParallelReport": ".parallel",
    "RetryPolicy": ".parallel",
    "shutdown_workers": ".parallel",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
