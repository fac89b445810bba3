"""FRM011: hot-path purity, inherited bottom-up over the call graph.

The row-enumeration walk (`enumerate_frontier`) and the fused table
kernels it drives (the table extends and candidate bound scans) are the
multiplied-cost inner loops: they run once per enumeration node times
once per row.  IO, logging, wall-clock
reads, environment access, or mutation of module-level state inside
them is both a performance cliff and — for anything order-dependent — a
determinism hazard that FRM002's module scoping can miss when the
impure operation hides two helpers down.

The rule starts from a pinned catalogue of hot-path roots, walks the
project call graph bottom-up, and flags any *reachable* function that
performs an impure primitive: builtin IO (``open``/``print``/
``input``), calls into stateful stdlib modules (``os``, ``sys``,
``logging``, ``random``, ``time``, ...), ``global`` declarations, or
mutation of module-level objects (attribute/subscript assignment or
growing calls like ``CACHE.append``).  Mutating ``self`` or a
parameter is *pure* here — the kernels legitimately update caches and
counters handed to them — and unknown callees are assumed pure, so
injected callbacks (``emit``, ``tick``) do not false-positive.
Findings anchor at the hot root and carry the full call chain down to
the impure operation.

A pinned root that no longer resolves — its module is still in the
package but the function was renamed or deleted — is itself a finding,
anchored at the module: otherwise deleting a hot function would quietly
shrink the gate.  A package that resolves no root at all (a partial
tree, a fixture for another rule) is not a kernel package and is
skipped.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..base import Finding, Rule
from ..project import (
    MODULE_BODY,
    FunctionInfo,
    ModuleInfo,
    PackageIndex,
    ProjectIndex,
    dotted_parts,
)

__all__ = ["HotPathPurityRule"]

#: Builtin calls that are IO by definition.
_IO_BUILTINS = frozenset({"open", "print", "input", "breakpoint", "exec", "eval"})

#: Stdlib module heads whose calls are stateful/impure in a hot loop.
_IMPURE_HEADS = frozenset(
    {
        "os",
        "sys",
        "subprocess",
        "shutil",
        "socket",
        "tempfile",
        "logging",
        "glob",
        "random",
        "time",
        "uuid",
        "datetime",
    }
)

#: Attribute calls that grow/mutate their receiver.
_MUTATING_ATTRS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "write",
        "writelines",
    }
)


class HotPathPurityRule(Rule):
    """FRM011: nothing reachable from a fused kernel may be impure."""

    rule_id: ClassVar[str] = "FRM011"
    name: ClassVar[str] = "hot-path-purity"
    description: ClassVar[str] = (
        "fused enumeration kernels and bound scans must stay free of IO, "
        "stateful stdlib calls, and module-level mutation, transitively "
        "over the call graph"
    )
    needs_project: ClassVar[bool] = True

    #: ``(module package path, qualname)`` of the hot-path roots.
    hot_roots: ClassVar[tuple[tuple[str, str], ...]] = (
        ("core/kernel.py", "CondTable.extend"),
        ("core/kernel.py", "CondTable.max_overlap"),
        ("core/kernel.py", "CondTable.observed_max_overlap"),
        ("core/farmer.py", "enumerate_frontier"),
        ("core/farmer.py", "_child_state"),
    )

    def finish_project(self, project: ProjectIndex) -> Iterator[Finding]:
        for package in project.sorted_packages():
            roots = []
            stale = []
            for key, qualname in self.hot_roots:
                display = f"{key}::{qualname}"
                if display in package.functions:
                    roots.append(package.functions[display])
                elif key in package.modules:
                    stale.append((package.modules[key], display))
            if not roots:
                continue
            for module, display in stale:
                yield Finding(
                    rule_id=self.rule_id,
                    rule_name=self.name,
                    path=module.context.rel_path,
                    line=1,
                    col=0,
                    message=(
                        f"pinned hot-path root {display} no longer resolves; "
                        "re-pin HotPathPurityRule.hot_roots to the function "
                        "that replaced it"
                    ),
                )
            impurities: dict[str, list[tuple[int, str]]] = {}
            module_names: dict[str, frozenset[str]] = {}
            for root in roots:
                yield from self._check_root(
                    package, root, impurities, module_names
                )

    # ------------------------------------------------------------------

    def _check_root(
        self,
        package: PackageIndex,
        root: FunctionInfo,
        impurities: dict[str, list[tuple[int, str]]],
        module_names: dict[str, frozenset[str]],
    ) -> Iterator[Finding]:
        """BFS the call graph from ``root``; flag impure reachables."""
        parents: dict[str, tuple[str, int] | None] = {root.display: None}
        queue = [root]
        reported: set[tuple[str, int]] = set()
        while queue:
            fn = queue.pop(0)
            for line, reason in self._impurities_of(
                fn, impurities, module_names
            ):
                if (fn.display, line) in reported:
                    continue
                reported.add((fn.display, line))
                chain = self._chain(parents, fn.display)
                yield Finding(
                    rule_id=self.rule_id,
                    rule_name=self.name,
                    path=root.module.context.rel_path,
                    line=root.line,
                    col=0,
                    message=(
                        f"hot path {root.display} reaches impure operation "
                        f"({reason}) at {fn.module.key}:{line}; call chain: "
                        f"{' -> '.join(chain)}"
                    ),
                )
            for site, callee in package.callees(fn):
                if callee.qualname == MODULE_BODY:
                    continue
                if callee.display not in parents:
                    parents[callee.display] = (fn.display, site.line)
                    queue.append(callee)

    @staticmethod
    def _chain(
        parents: dict[str, tuple[str, int] | None], display: str
    ) -> list[str]:
        chain = [display]
        cursor = parents.get(display)
        while cursor is not None:
            caller, line = cursor
            chain.append(f"{caller}:{line}")
            cursor = parents.get(caller)
        return chain[::-1]

    # ------------------------------------------------------------------

    def _impurities_of(
        self,
        fn: FunctionInfo,
        cache: dict[str, list[tuple[int, str]]],
        module_names: dict[str, frozenset[str]],
    ) -> list[tuple[int, str]]:
        found = cache.get(fn.display)
        if found is not None:
            return found
        found = []
        if not isinstance(fn.node, ast.Module):
            globals_here = module_names.setdefault(
                fn.module.key, _module_level_names(fn.module)
            )
            for node in ast.walk(fn.node):
                verdict = _impurity_of(node, globals_here)
                if verdict is not None:
                    found.append((getattr(node, "lineno", fn.line), verdict))
            found.sort()
        cache[fn.display] = found
        return found


def _module_level_names(module: ModuleInfo) -> frozenset[str]:
    """Names bound at module level (mutation targets = global state)."""
    names: set[str] = set(module.functions) | set(module.classes)
    names |= set(module.imports)
    for stmt in module.context.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
    return frozenset(names)


def _impurity_of(node: ast.AST, module_names: frozenset[str]) -> str | None:
    """The impurity label of one AST node, or ``None`` when pure."""
    if isinstance(node, ast.Global):
        return f"global {', '.join(node.names)}"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            return f"{func.id}()"
        parts = dotted_parts(func)
        if len(parts) >= 2 and parts[0] in _IMPURE_HEADS:
            return f"{'.'.join(parts)}()"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_ATTRS
            and isinstance(func.value, ast.Name)
            and func.value.id in module_names
        ):
            return f"mutates module-level {func.value.id}.{func.attr}()"
        return None
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            base = target
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if (
                base is not target
                and isinstance(base, ast.Name)
                and base.id in module_names
            ):
                return f"mutates module-level {base.id}"
    return None
