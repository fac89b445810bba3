"""FRM003: worker state shipped across processes must stay picklable.

:mod:`repro.core.parallel` submits :class:`~repro.core.farmer.SearchContext`
and detached :class:`~repro.core.farmer.NodeState` units (``table=None``)
to a ``ProcessPoolExecutor`` and gets candidates and detached frontiers
back; a lambda, closure, generator or open file handle smuggled onto
one of those objects only explodes at dispatch time, deep inside a pool
worker.  This rule rejects such attributes statically for
every class defined in a module that imports ``multiprocessing`` or
``concurrent.futures``, plus the explicitly named worker-state classes
wherever they are defined.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..base import Finding, ModuleContext, Rule

__all__ = ["WorkerPicklabilityRule"]

#: Classes known to cross the process boundary regardless of where they
#: are defined (the miner's task payload types).
WORKER_STATE_CLASSES = frozenset(
    {"NodeState", "Candidate", "SearchContext", "AdvisoryBounds"}
)

_WORKER_IMPORTS = ("multiprocessing", "concurrent.futures", "concurrent")


class WorkerPicklabilityRule(Rule):
    """FRM003: no lambdas, closures, generators or handles on worker state."""

    rule_id: ClassVar[str] = "FRM003"
    name: ClassVar[str] = "unpicklable-worker-state"
    description: ClassVar[str] = (
        "classes handed to multiprocessing must not carry lambdas, "
        "closures, generators, or open handles"
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (ast.ClassDef,)

    def start_module(self, module: ModuleContext) -> None:
        self._module_is_worker = False
        for statement in module.tree.body:
            if isinstance(statement, ast.Import):
                names = [alias.name for alias in statement.names]
            elif isinstance(statement, ast.ImportFrom):
                names = [statement.module or ""]
            else:
                continue
            if any(
                name == prefix or name.startswith(prefix + ".")
                for name in names
                for prefix in _WORKER_IMPORTS
            ):
                self._module_is_worker = True
                return

    def visit(self, node: ast.AST, module: ModuleContext) -> Iterator[Finding]:
        classdef = node
        if not (
            self._module_is_worker or classdef.name in WORKER_STATE_CLASSES  # type: ignore[attr-defined]
        ):
            return
        for statement in classdef.body:  # type: ignore[attr-defined]
            if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                value = statement.value
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        module,
                        value,
                        f"class {classdef.name} stores a lambda as a class "  # type: ignore[attr-defined]
                        "attribute; lambdas cannot be pickled — use a "
                        "module-level function",
                    )
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(classdef, statement, module)

    def _check_method(
        self,
        classdef: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        module: ModuleContext,
    ) -> Iterator[Finding]:
        nested_defs = {
            stmt.name
            for stmt in ast.walk(method)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not method
        }
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t
                for t in node.targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if not targets:
                continue
            attribute = targets[0].attr
            value = node.value
            what: str | None = None
            if isinstance(value, ast.Lambda):
                what = "a lambda"
            elif isinstance(value, ast.GeneratorExp):
                what = "a generator expression"
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "open"
            ):
                what = "an open file handle"
            elif isinstance(value, ast.Name) and value.id in nested_defs:
                what = f"the nested function {value.id}() (a closure)"
            if what is not None:
                yield self.finding(
                    module,
                    node,
                    f"{classdef.name}.{attribute} is assigned {what}; it "
                    "cannot cross the process boundary when the instance "
                    "is pickled for a worker",
                )
