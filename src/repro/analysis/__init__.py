"""farmer-lint: AST-based invariant checks for the FARMER reproduction.

The sharded miner (:mod:`repro.core.parallel`) is bit-identical to the
serial run only while the core enumeration code honours contracts that
ordinary tests cannot see until they break at runtime: iteration order
must never leak from unordered containers into mined output, worker
state must stay picklable, popcounts must go through
:mod:`repro.core.bitset`, failures must surface as
:mod:`repro.errors` types, and persisted state must go through
:mod:`repro.core.serialize`.  This package enforces those contracts
statically, as a CI gate and a ``farmer lint`` subcommand.

Layout:

Per-module walks catch local violations; the whole-program phase
(:mod:`~repro.analysis.project` + :mod:`~repro.analysis.dataflow`)
builds a symbol table and over-approximate call graph over every linted
module, then tracks nondeterminism taint across call boundaries
(FRM009), checks registered engines structurally against the
``CondTableProtocol`` seam (FRM010), and inherits hot-path purity
bottom-up over the call graph (FRM011).

Layout:

* :mod:`~repro.analysis.base` — :class:`Finding`, :class:`Rule`,
  :class:`ModuleContext` and suppression parsing;
* :mod:`~repro.analysis.engine` — file discovery, AST dispatch, the
  whole-program phase, and the :class:`LintResult` aggregation;
* :mod:`~repro.analysis.project` — symbol table + call graph index;
* :mod:`~repro.analysis.dataflow` — interprocedural taint machinery;
* :mod:`~repro.analysis.cache` — the mtime-keyed AST/findings cache;
* :mod:`~repro.analysis.baseline` — the committed grandfather file;
* :mod:`~repro.analysis.reporters` — text, JSON and SARIF output;
* :mod:`~repro.analysis.rules` — the FRM001..FRM012 rule set;
* :mod:`~repro.analysis.options` — the ``farmer lint`` flags, a leaf
  the ``farmer`` parser imports;
* :mod:`~repro.analysis.cli` — the ``farmer lint`` entry point.

The names below are exported lazily through the module ``__getattr__``
(PEP 562), so importing a leaf such as :mod:`~repro.analysis.options`
does not load the engine, the rules or the reporters.

See ``docs/static-analysis.md`` for the rule catalogue, the per-line
suppression syntax (``# farmer-lint: disable=FRM00x``) and the baseline
workflow.
"""

from __future__ import annotations

import importlib

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "Finding": ".base",
    "ModuleContext": ".base",
    "Rule": ".base",
    "Engine": ".engine",
    "LintResult": ".engine",
    "LintCache": ".cache",
    "PackageIndex": ".project",
    "ProjectIndex": ".project",
    "ALL_RULES": ".rules",
    "RULES_BY_ID": ".rules",
    "default_rules": ".rules",
    "load_baseline": ".baseline",
    "save_baseline": ".baseline",
    "render_text": ".reporters",
    "render_json": ".reporters",
    "render_sarif": ".reporters",
}

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Engine",
    "LintResult",
    "LintCache",
    "PackageIndex",
    "ProjectIndex",
    "ALL_RULES",
    "RULES_BY_ID",
    "default_rules",
    "load_baseline",
    "save_baseline",
    "render_text",
    "render_json",
    "render_sarif",
]


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
