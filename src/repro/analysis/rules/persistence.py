"""FRM007/FRM012: core/ persistence must go through :mod:`repro.core.serialize`.

The frontier cache (:mod:`repro.core.frontier`) is only crash-consistent
because every byte that reaches disk goes through the serialize module's
envelope: canonical JSON, a checksum header, and the temp-file + fsync
+ rename dance.  A raw ``pickle.dump`` or ``json.dump`` anywhere else in
``core/`` silently bypasses all three — the file has no checksum to
detect truncation, no format version to gate incompatible readers, and
a crash mid-write leaves a corrupt partial file that a later warm mine
happily reads.

Two rules keep the envelope the single write path:

* **FRM007** flags raw stdlib *serialization* calls (pickle/json/
  marshal/shelve dump-load surface) in ``core/`` modules.
* **FRM012** flags raw *write* surfaces — write-mode ``open``/``.open``,
  ``.write_text``/``.write_bytes``, ``os.replace``/``os.rename``, and the
  descriptor layer: ``os.open`` with write flags, ``os.write`` and
  ``os.ftruncate`` — which
  would let hand-rolled bytes reach disk without ever touching a
  serializer.  Together they close both halves of the bypass: FRM007
  catches "formatted but not enveloped", FRM012 catches "not even
  formatted".
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..base import Finding, ModuleContext, Rule

__all__ = ["PersistenceDisciplineRule", "RawWriteSurfaceRule"]

#: The one module allowed to speak raw json/pickle: it implements the
#: envelope everything else must route through.
_ENVELOPE_MODULE = "core/serialize.py"

#: Serialization modules whose load/dump surface is banned in core/.
_PERSISTENCE_MODULES = frozenset({"pickle", "json", "marshal", "shelve"})

#: The banned attribute surface per module.
_BANNED_ATTRS = {
    "pickle": frozenset({"dump", "dumps", "load", "loads"}),
    "json": frozenset({"dump", "dumps", "load", "loads"}),
    "marshal": frozenset({"dump", "dumps", "load", "loads"}),
    "shelve": frozenset({"open"}),
}


class PersistenceDisciplineRule(Rule):
    """FRM007: no raw pickle/json/marshal/shelve persistence in core/."""

    rule_id: ClassVar[str] = "FRM007"
    name: ClassVar[str] = "raw-persistence"
    description: ClassVar[str] = (
        "core/ modules must persist state through core/serialize.py, not "
        "raw pickle/json/marshal/shelve calls"
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (ast.Call,)
    module_prefixes: ClassVar[tuple[str, ...] | None] = ("core/",)

    def applies_to(self, module: ModuleContext) -> bool:
        if module.package_path == _ENVELOPE_MODULE:
            return False
        return super().applies_to(module)

    def start_module(self, module: ModuleContext) -> None:
        # Names bound by ``from json import dumps`` (or aliased) resolve
        # to the same banned surface as ``json.dumps``; map the local
        # binding back to its dotted origin.
        self._from_imports: dict[str, str] = {}
        for statement in ast.walk(module.tree):
            if not isinstance(statement, ast.ImportFrom):
                continue
            origin = statement.module or ""
            if origin not in _PERSISTENCE_MODULES:
                continue
            banned = _BANNED_ATTRS[origin]
            for alias in statement.names:
                if alias.name in banned:
                    bound = alias.asname or alias.name
                    self._from_imports[bound] = f"{origin}.{alias.name}"

    def visit(self, node: ast.AST, module: ModuleContext) -> Iterator[Finding]:
        func = node.func  # type: ignore[attr-defined]
        dotted: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _PERSISTENCE_MODULES
            and func.attr in _BANNED_ATTRS[func.value.id]
        ):
            dotted = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name):
            dotted = self._from_imports.get(func.id)
        if dotted is None:
            return
        yield self.finding(
            module,
            node,
            f"{dotted}() bypasses the checksummed, versioned, "
            "crash-consistent envelope; route persistence through "
            "core/serialize.py",
        )


#: Attribute calls that write bytes to disk directly.
_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

#: ``os`` functions that publish a file at its final path or write
#: through a file descriptor.
_OS_WRITE_ATTRS = frozenset({"replace", "rename", "write", "ftruncate"})

#: ``os.open`` flags that open a file for writing.
_WRITE_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"})

#: Mode-string characters that make an ``open()`` call a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode_literal(node: ast.Call, mode_position: int) -> str | None:
    """The call's mode argument when it is a write-mode string literal.

    Checks the positional argument at ``mode_position`` (1 for builtin
    ``open(path, mode)``, 0 for ``Path.open(mode)``) and the ``mode=``
    keyword; returns ``None`` for read modes, absent modes, or
    non-literal modes (a computed mode cannot be judged statically, and
    flagging it would punish read-only helpers).
    """
    mode: ast.expr | None = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return None
    if any(char in _WRITE_MODE_CHARS for char in mode.value):
        return mode.value
    return None


def _write_flags(node: ast.Call) -> bool:
    """Whether an ``os.open`` call's flags name a write flag.

    Reads the second positional argument or the ``flags=`` keyword; a
    computed flags value that names no ``O_*`` write constant (a
    variable, ``os.O_RDONLY``) is not judged a write.
    """
    flags: ast.expr | None = node.args[1] if len(node.args) > 1 else None
    for keyword in node.keywords:
        if keyword.arg == "flags":
            flags = keyword.value
    if flags is None:
        return False
    return any(
        (isinstance(part, ast.Attribute) and part.attr in _WRITE_FLAGS)
        or (isinstance(part, ast.Name) and part.id in _WRITE_FLAGS)
        for part in ast.walk(flags)
    )


class RawWriteSurfaceRule(Rule):
    """FRM012: no raw on-disk write surfaces in core/ outside serialize.py."""

    rule_id: ClassVar[str] = "FRM012"
    name: ClassVar[str] = "raw-write-surface"
    description: ClassVar[str] = (
        "core/ modules must write files through the core/serialize.py "
        "envelope, not write-mode open/.write_text/.write_bytes/"
        "os.replace/os.rename/os.write/os.ftruncate or os.open with "
        "write flags"
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (ast.Call,)
    module_prefixes: ClassVar[tuple[str, ...] | None] = ("core/",)

    def applies_to(self, module: ModuleContext) -> bool:
        if module.package_path == _ENVELOPE_MODULE:
            return False
        return super().applies_to(module)

    def visit(self, node: ast.AST, module: ModuleContext) -> Iterator[Finding]:
        func = node.func  # type: ignore[attr-defined]
        surface: str | None = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _write_mode_literal(node, 1)  # type: ignore[arg-type]
            if mode is not None:
                surface = f"open(..., {mode!r})"
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "os":
                if func.attr in _OS_WRITE_ATTRS:
                    surface = f"os.{func.attr}()"
                elif func.attr == "open" and _write_flags(node):  # type: ignore[arg-type]
                    surface = "os.open(..., <write flags>)"
            elif func.attr in _WRITE_ATTRS:
                surface = f".{func.attr}()"
            elif func.attr == "open":
                mode = _write_mode_literal(node, 0)  # type: ignore[arg-type]
                if mode is not None:
                    surface = f".open(..., {mode!r})"
        if surface is None:
            return
        yield self.finding(
            module,
            node,
            f"{surface} writes to disk without the checksummed, "
            "crash-consistent envelope; route on-disk persistence "
            "through core/serialize.py",
        )
