"""FRM005: public-API hygiene — ``__all__`` consistency and docstrings.

The library promises a stable import surface (``tests/test_public_api``
asserts parts of it); this rule keeps every module honest about what it
exports: ``__all__`` must exist once a module defines public names, must
only name things that exist, must cover every public definition, and
public definitions carry docstrings.  A name exported lazily (PEP 562)
exists when the module's ``__getattr__`` reads a module-level dict
literal keyed by it, as the package roots' ``_LAZY`` tables are, or
when an ``if TYPE_CHECKING:`` block imports it, as ``repro`` declares
the names it re-exports from ``repro.core``'s table.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable

from ..base import Finding, ModuleContext, Rule

__all__ = ["PublicApiRule"]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class PublicApiRule(Rule):
    """FRM005: ``__all__`` consistent with module exports, docstrings."""

    rule_id: ClassVar[str] = "FRM005"
    name: ClassVar[str] = "public-api-hygiene"
    description: ClassVar[str] = (
        "__all__ present/consistent with exports; public definitions "
        "have docstrings"
    )

    def finish_module(self, module: ModuleContext) -> Iterable[Finding]:
        if module.package_path.endswith("__main__.py"):
            return
        tree = module.tree
        defined: dict[str, ast.stmt] = {}
        importable: set[str] = set()
        dunder_all: ast.Assign | None = None
        exported: list[str] | None = None
        for statement in tree.body:
            if isinstance(statement, _DEF_NODES):
                defined[statement.name] = statement
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            dunder_all = statement
                        else:
                            defined[target.id] = statement
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name):
                    defined[statement.target.id] = statement
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                importable.update(self._import_names(statement))
            elif self._is_type_checking(statement):
                for inner in statement.body:
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        importable.update(self._import_names(inner))

        if dunder_all is not None:
            exported = self._literal_names(dunder_all.value)

        public_defs = {
            name: node
            for name, node in defined.items()
            if not name.startswith("_") and isinstance(node, _DEF_NODES)
        }

        if tree.body and ast.get_docstring(tree) is None:
            yield self.finding(
                module, tree.body[0], "module has no docstring"
            )

        if exported is None:
            if public_defs:
                anchor = next(iter(public_defs.values()))
                yield self.finding(
                    module,
                    anchor,
                    "module defines public names but no __all__; declare "
                    "the export list",
                )
        else:
            known = set(defined) | importable | self._lazy_names(defined)
            for name in exported:
                if name not in known:
                    yield self.finding(
                        module,
                        dunder_all,
                        f"__all__ names {name!r} which is not defined or "
                        "imported in the module",
                    )
            for name, node in sorted(public_defs.items()):
                if name not in exported:
                    yield self.finding(
                        module,
                        node,
                        f"public name {name!r} is missing from __all__ "
                        "(export it or rename it with a leading underscore)",
                    )

        for name, node in sorted(public_defs.items()):
            if ast.get_docstring(node) is None:  # type: ignore[arg-type]
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                yield self.finding(
                    module,
                    node,
                    f"public {kind} {name!r} has no docstring",
                )

    @staticmethod
    def _import_names(statement: ast.Import | ast.ImportFrom) -> set[str]:
        return {
            (alias.asname or alias.name).split(".")[0]
            for alias in statement.names
        }

    @staticmethod
    def _is_type_checking(statement: ast.stmt) -> bool:
        """``if TYPE_CHECKING:`` — how a lazy re-export is declared."""
        return (
            isinstance(statement, ast.If)
            and isinstance(statement.test, ast.Name)
            and statement.test.id == "TYPE_CHECKING"
        )

    @staticmethod
    def _lazy_names(defined: dict[str, ast.stmt]) -> set[str]:
        """String keys of the module-level dicts ``__getattr__`` reads."""
        getter = defined.get("__getattr__")
        if not isinstance(getter, ast.FunctionDef):
            return set()
        names: set[str] = set()
        for node in ast.walk(getter):
            table = defined.get(node.id) if isinstance(node, ast.Name) else None
            if isinstance(table, (ast.Assign, ast.AnnAssign)) and isinstance(
                table.value, ast.Dict
            ):
                names.update(
                    key.value
                    for key in table.value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
        return names

    @staticmethod
    def _literal_names(value: ast.expr | None) -> list[str]:
        names: list[str] = []
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append(element.value)
        return names
