"""Whole-program index: symbol tables and an over-approximate call graph.

The per-module rules (FRM001-FRM008) see one file at a time, which is
exactly the blind spot a real nondeterminism bug exploits: a wall-clock
read three helpers away from the serialized record it eventually
reaches.  This module parses every linted file **once** into:

* a *symbol table* per package instance — modules keyed by their
  ``repro``-anchored package path, with their functions, classes,
  methods, imports and attribute inventories;
* a *call graph* — for every function (and every module body, as the
  pseudo-function ``<module>``), the calls it makes with each call site
  resolved to a known function or class where module-level name
  resolution, ``self.``/``cls.`` dispatch, parameter annotations, or
  local ``x = SomeClass(...)`` typing allow it, plus *reference* edges
  for functions passed as values (worker targets handed to
  ``executor.submit`` / ``Process(target=...)``).

Resolution is deliberately **over-approximate and sound-ish, not
complete**: an unresolved call simply produces no edge, and downstream
passes (taint, purity) treat unknown callees conservatively for their
own direction of error.  Everything is deterministic — modules, symbols
and edges are built and iterated in sorted order, so findings derived
from the graph are stable across runs and machines.

Fixture trees group exactly like the real package: modules are bundled
into a :class:`PackageIndex` per ``repro`` anchor directory
(``src/repro`` and ``tests/lint_fixtures/x/repro`` form independent
packages), and unanchored modules (``tests/``, ``benchmarks/``) resolve
their absolute ``repro.*`` imports against the largest anchored package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterator, Sequence, Union

from .base import ModuleContext

__all__ = [
    "MODULE_BODY",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "PackageIndex",
    "ProjectIndex",
    "dotted_parts",
]

#: Pseudo-qualname under which module-level (import-time) statements are
#: indexed as a callable of their own.
MODULE_BODY = "<module>"

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Symbols a call can resolve to.
Symbol = Union["FunctionInfo", "ClassInfo"]


def dotted_parts(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")``; empty when not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(parts[::-1])
    return ()


@dataclass(slots=True)
class CallSite:
    """One ``ast.Call`` inside a function, with its resolution.

    Attributes:
        node: the call expression.
        target: the function or class the call resolves to, or ``None``
            for builtins/externals/unresolvable dispatch.
        ref_args: known functions passed *as values* among the call's
            arguments (worker targets, map callbacks); each entry is
            ``(positional_index_or_None, function)``.
    """

    node: ast.Call
    target: Symbol | None
    ref_args: tuple[tuple[int | None, "FunctionInfo"], ...] = ()

    @property
    def line(self) -> int:
        """Source line of the call expression."""
        return self.node.lineno


@dataclass(slots=True)
class FunctionInfo:
    """One indexed function, method, or module body.

    Attributes:
        name: bare name (``extend``); ``<module>`` for module bodies.
        qualname: module-local qualified name (``CondTable.extend``).
        module: owning :class:`ModuleInfo`.
        node: the defining AST node (the ``ast.Module`` for bodies).
        class_name: enclosing class name for methods, else ``None``.
        params: positional parameter names, ``self``/``cls`` excluded.
        kwonly: keyword-only parameter names.
        n_defaults: how many trailing ``params`` have defaults.
        kwonly_defaults: kwonly names that carry defaults.
        has_vararg: ``*args`` present.
        has_kwarg: ``**kwargs`` present.
        decorators: dotted decorator names (``("property",)``).
        annotations: parameter name -> dotted annotation parts.
        calls: every call site in the body, nested defs included.
    """

    name: str
    qualname: str
    module: "ModuleInfo" = field(repr=False)
    node: ast.AST = field(repr=False)
    class_name: str | None = None
    params: tuple[str, ...] = ()
    kwonly: tuple[str, ...] = ()
    n_defaults: int = 0
    kwonly_defaults: tuple[str, ...] = ()
    has_vararg: bool = False
    has_kwarg: bool = False
    decorators: tuple[str, ...] = ()
    annotations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list, repr=False)

    @property
    def display(self) -> str:
        """Human-readable symbol id used in witness paths."""
        return f"{self.module.key}::{self.qualname}"

    @property
    def line(self) -> int:
        """Line of the ``def`` (1 for module bodies)."""
        return getattr(self.node, "lineno", 1)


@dataclass(slots=True)
class ClassInfo:
    """One indexed class with its member inventory.

    Attributes:
        name: class name.
        module: owning :class:`ModuleInfo`.
        node: the ``ast.ClassDef``.
        bases: dotted base-class names as written.
        methods: bare method name -> :class:`FunctionInfo`.
    """

    name: str
    module: "ModuleInfo" = field(repr=False)
    node: ast.ClassDef = field(repr=False)
    bases: tuple[tuple[str, ...], ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """Human-readable symbol id used in findings."""
        return f"{self.module.key}::{self.name}"

    @property
    def line(self) -> int:
        """Line of the ``class`` statement."""
        return self.node.lineno


@dataclass(slots=True)
class ModuleInfo:
    """One module of a package instance.

    Attributes:
        context: the parsed :class:`~repro.analysis.base.ModuleContext`.
        key: the module's package path (``core/kernel.py``) — unique
            within a :class:`PackageIndex` and used in symbol displays.
        dotted: importable dotted name (``repro.core.kernel``).
        imports: local alias -> absolute dotted target parts.
        functions: module-level function name -> info.
        classes: class name -> info.
        body: the ``<module>`` pseudo-function for import-time code.
    """

    context: ModuleContext = field(repr=False)
    key: str
    dotted: str
    imports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    body: FunctionInfo | None = field(default=None, repr=False)


class PackageIndex:
    """Symbol table + call graph of one package instance.

    Args:
        anchor: path prefix of the package's ``repro`` directory (e.g.
            ``src/repro``), or ``""`` for the unanchored module group.
    """

    def __init__(self, anchor: str) -> None:
        self.anchor = anchor
        #: module key (package path) -> ModuleInfo, insertion-sorted.
        self.modules: dict[str, ModuleInfo] = {}
        #: dotted module name -> ModuleInfo.
        self.by_dotted: dict[str, ModuleInfo] = {}
        #: every indexed function keyed by display id.
        self.functions: dict[str, FunctionInfo] = {}
        #: every indexed class keyed by display id.
        self.classes: dict[str, ClassInfo] = {}
        #: bare class name -> infos (for last-resort name resolution).
        self.class_names: dict[str, list[ClassInfo]] = {}
        #: absolute-import fallback for unanchored groups (set by
        #: :class:`ProjectIndex` to the main anchored package).
        self.fallback: "PackageIndex | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_module(self, module: ModuleContext) -> None:
        """Index one parsed module into the package."""
        key = module.package_path
        dotted = _dotted_module_name(key, anchored=bool(self.anchor))
        info = ModuleInfo(context=module, key=key, dotted=dotted)
        self.modules[key] = info
        self.by_dotted[dotted] = info
        is_package = PurePosixPath(key).name == "__init__.py"
        _collect_imports(module.tree, dotted, is_package, info.imports)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _function_info(node, info, class_name=None)
                info.functions[fn.name] = fn
                self.functions[fn.display] = fn
            elif isinstance(node, ast.ClassDef):
                cls = _class_info(node, info)
                info.classes[cls.name] = cls
                self.classes[cls.display] = cls
                self.class_names.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.functions[method.display] = method
        body = FunctionInfo(
            name=MODULE_BODY, qualname=MODULE_BODY, module=info, node=module.tree
        )
        info.body = body
        self.functions[body.display] = body

    def link(self) -> None:
        """Second pass: resolve every call site (needs all modules in)."""
        for fn in self.functions.values():
            _link_function(self, fn)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_module(self, dotted: tuple[str, ...]) -> tuple[ModuleInfo | None, tuple[str, ...]]:
        """Longest-prefix match of ``dotted`` against known modules.

        Returns ``(module, remainder)``; falls back to the main anchored
        package for ``repro.*`` prefixes this group cannot satisfy.
        """
        for cut in range(len(dotted), 0, -1):
            name = ".".join(dotted[:cut])
            mod = self.by_dotted.get(name)
            if mod is not None:
                return mod, dotted[cut:]
        if self.fallback is not None and dotted and dotted[0] == "repro":
            return self.fallback.resolve_module(dotted)
        return None, dotted

    def resolve_in_module(
        self, module: ModuleInfo, parts: tuple[str, ...]
    ) -> Symbol | None:
        """Resolve a dotted name as seen from inside ``module``."""
        if not parts:
            return None
        head = parts[0]
        fn = module.functions.get(head)
        if fn is not None:
            return fn if len(parts) == 1 else None
        cls = module.classes.get(head)
        if cls is not None:
            if len(parts) == 1:
                return cls
            if len(parts) == 2:
                return self.lookup_method(cls, parts[1])
            return None
        target = module.imports.get(head)
        if target is not None:
            return self.resolve_absolute(target + parts[1:])
        return None

    def resolve_absolute(self, dotted: tuple[str, ...]) -> Symbol | None:
        """Resolve an absolute dotted path (``repro.core.kernel.CondTable``)."""
        mod, rest = self.resolve_module(dotted)
        if mod is None or not rest:
            return None
        owner = self if mod.key in self.modules else self.fallback
        if owner is None:
            return None
        return owner.resolve_in_module_symbols(mod, rest)

    def resolve_in_module_symbols(
        self, module: ModuleInfo, parts: tuple[str, ...]
    ) -> Symbol | None:
        """Like :meth:`resolve_in_module` but without import chasing."""
        head = parts[0]
        fn = module.functions.get(head)
        if fn is not None and len(parts) == 1:
            return fn
        cls = module.classes.get(head)
        if cls is not None:
            if len(parts) == 1:
                return cls
            if len(parts) == 2:
                return self.lookup_method(cls, parts[1])
        target = module.imports.get(head)
        if target is not None:
            return self.resolve_absolute(target + parts[1:])
        return None

    def lookup_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Find ``name`` on ``cls`` or (recursively) its known bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.display in seen:
                continue
            seen.add(current.display)
            method = current.methods.get(name)
            if method is not None:
                return method
            for base_parts in current.bases:
                base = self.resolve_in_module(current.module, base_parts)
                if isinstance(base, ClassInfo):
                    stack.append(base)
        return None

    def resolve_class_name(self, name: str) -> ClassInfo | None:
        """A class by bare name, when exactly one module defines it."""
        candidates = self.class_names.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------

    def sorted_functions(self) -> list[FunctionInfo]:
        """Every function, in deterministic display order."""
        return [self.functions[key] for key in sorted(self.functions)]

    def callees(self, fn: FunctionInfo) -> Iterator[tuple[CallSite, FunctionInfo]]:
        """Resolved *function* targets of ``fn``'s call sites.

        Constructor calls yield the class ``__init__`` when indexed;
        reference arguments (worker targets) are yielded like calls —
        the coordinator will invoke them eventually.
        """
        for site in fn.calls:
            target = site.target
            if isinstance(target, FunctionInfo):
                yield site, target
            elif isinstance(target, ClassInfo):
                init = self.lookup_method(target, "__init__")
                if init is not None:
                    yield site, init
            for _, ref in site.ref_args:
                yield site, ref


class ProjectIndex:
    """Every package instance found among the linted modules.

    Build with :meth:`build`; rules iterate :attr:`packages` (sorted by
    anchor) and treat each independently, so a fixture tree carrying a
    deliberate violation can never contaminate the real package's
    analysis (or vice versa).
    """

    def __init__(self, packages: dict[str, PackageIndex]) -> None:
        self.packages = packages
        #: rel_path -> ModuleInfo for suppression/ownership lookups.
        self.by_rel_path: dict[str, ModuleInfo] = {}
        for package in packages.values():
            for module in package.modules.values():
                self.by_rel_path[module.context.rel_path] = module

    @classmethod
    def build(cls, modules: Sequence[ModuleContext]) -> "ProjectIndex":
        """Index ``modules``, grouped by their ``repro`` anchor."""
        groups: dict[str, list[ModuleContext]] = {}
        for module in modules:
            groups.setdefault(_anchor_of(module), []).append(module)
        packages: dict[str, PackageIndex] = {}
        for anchor in sorted(groups):
            package = PackageIndex(anchor)
            for module in sorted(groups[anchor], key=lambda m: m.package_path):
                package.add_module(module)
            packages[anchor] = package
        anchored = [p for a, p in sorted(packages.items()) if a]
        if anchored:
            main = max(anchored, key=lambda p: (len(p.modules), p.anchor))
            for package in packages.values():
                if package is not main:
                    package.fallback = main
        for package in packages.values():
            package.link()
        return cls(packages)

    def sorted_packages(self) -> list[PackageIndex]:
        """Packages in deterministic anchor order."""
        return [self.packages[a] for a in sorted(self.packages)]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _anchor_of(module: ModuleContext) -> str:
    """The path prefix up to the ``repro`` package dir, or ``""``."""
    parts = list(PurePosixPath(module.rel_path).parts)
    if "repro" in parts:
        cut = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[: cut + 1])
    return ""


def _dotted_module_name(package_path: str, anchored: bool) -> str:
    """``core/kernel.py`` -> ``repro.core.kernel`` (anchored modules)."""
    parts = package_path.split("/")
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    parts = parts[:-1] + ([] if leaf == "__init__" else [leaf])
    if anchored:
        return ".".join(["repro", *parts])
    return ".".join(parts) or leaf


def _collect_imports(
    tree: ast.Module,
    dotted: str,
    is_package: bool,
    out: dict[str, tuple[str, ...]],
) -> None:
    """Record every import binding of a module as alias -> target parts."""
    own = tuple(dotted.split("."))
    package_parts = own if is_package else own[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = tuple(alias.name.split("."))
                out[alias.asname or target[0]] = (
                    target if alias.asname else target[:1]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts
                # level=1 is the current package; each extra level pops.
                for _ in range(node.level - 1):
                    base = base[:-1]
                prefix = base + (
                    tuple(node.module.split(".")) if node.module else ()
                )
            else:
                prefix = tuple(node.module.split(".")) if node.module else ()
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = prefix + (alias.name,)


def _function_info(
    node: _FunctionNode, module: ModuleInfo, class_name: str | None
) -> FunctionInfo:
    """Build the signature record of one function or method."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    annotations: dict[str, tuple[str, ...]] = {}
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is not None:
            parts = _annotation_parts(arg.annotation)
            if parts:
                annotations[arg.arg] = parts
    decorators = tuple(
        ".".join(parts)
        for dec in node.decorator_list
        if (parts := dotted_parts(dec if not isinstance(dec, ast.Call) else dec.func))
    )
    is_static = "staticmethod" in decorators
    if class_name is not None and not is_static and names:
        names = names[1:]
    qualname = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        name=node.name,
        qualname=qualname,
        module=module,
        node=node,
        class_name=class_name,
        params=tuple(names),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        n_defaults=len(args.defaults),
        kwonly_defaults=tuple(
            a.arg
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ),
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        decorators=decorators,
        annotations=annotations,
    )


def _annotation_parts(node: ast.expr) -> tuple[str, ...]:
    """Dotted parts of a simple annotation; strings and quoted names too."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("\"'")
        if text.replace(".", "").replace("_", "").isalnum():
            return tuple(text.split("."))
        return ()
    if isinstance(node, ast.Subscript):
        return ()
    return dotted_parts(node)


def _class_info(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    """Build the member inventory of one class."""
    methods: dict[str, FunctionInfo] = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[item.name] = _function_info(item, module, class_name=node.name)
    return ClassInfo(
        name=node.name,
        module=module,
        node=node,
        bases=tuple(p for b in node.bases if (p := dotted_parts(b))),
        methods=methods,
    )


# ----------------------------------------------------------------------
# Call-site linking
# ----------------------------------------------------------------------


def _link_function(package: PackageIndex, fn: FunctionInfo) -> None:
    """Populate ``fn.calls`` with resolved call sites."""
    module = fn.module
    enclosing = (
        module.classes.get(fn.class_name) if fn.class_name is not None else None
    )
    local_types = _local_types(package, fn, enclosing)
    body: Sequence[ast.stmt]
    if isinstance(fn.node, ast.Module):
        # Module body: skip statements owned by indexed defs, but keep
        # class bodies (default expressions run at import time).
        body = [
            stmt
            for stmt in fn.node.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    else:
        body = fn.node.body  # type: ignore[attr-defined]
    calls: list[CallSite] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ClassDef):
                continue
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call(package, module, enclosing, local_types, node)
            refs: list[tuple[int | None, FunctionInfo]] = []
            for position, arg in enumerate(node.args):
                ref = _resolve_value_ref(package, module, enclosing, arg)
                if ref is not None:
                    refs.append((position, ref))
            for keyword in node.keywords:
                ref = _resolve_value_ref(package, module, enclosing, keyword.value)
                if ref is not None:
                    refs.append((None, ref))
            calls.append(CallSite(node=node, target=target, ref_args=tuple(refs)))
    fn.calls = calls


def _local_types(
    package: PackageIndex, fn: FunctionInfo, enclosing: ClassInfo | None
) -> dict[str, ClassInfo]:
    """Map local names to known classes (annotations + constructor assigns)."""
    types: dict[str, ClassInfo] = {}
    module = fn.module
    if enclosing is not None:
        types["self"] = enclosing
        types["cls"] = enclosing
    for name, parts in fn.annotations.items():
        resolved = package.resolve_in_module(module, parts)
        if isinstance(resolved, ClassInfo):
            types[name] = resolved
    if isinstance(fn.node, ast.Module):
        return types
    for node in ast.walk(fn.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            parts = _annotation_parts(node.annotation)
            resolved = package.resolve_in_module(module, parts) if parts else None
            if isinstance(resolved, ClassInfo):
                types[node.target.id] = resolved
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            parts = dotted_parts(node.value.func)
            if not parts:
                continue
            resolved = package.resolve_in_module(module, parts[:1])
            cls: ClassInfo | None = None
            if isinstance(resolved, ClassInfo):
                # ``x = C(...)`` or ``x = C.build(...)`` (classmethods
                # conventionally return their own class here).
                cls = resolved if len(parts) <= 2 else None
            if cls is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = cls
    return types


def _resolve_call(
    package: PackageIndex,
    module: ModuleInfo,
    enclosing: ClassInfo | None,
    local_types: dict[str, ClassInfo],
    node: ast.Call,
) -> Symbol | None:
    """Resolve one call expression to a known function or class."""
    func = node.func
    parts = dotted_parts(func)
    if parts:
        head = parts[0]
        if head in local_types and len(parts) == 2:
            method = package.lookup_method(local_types[head], parts[1])
            if method is not None:
                return method
        resolved = package.resolve_in_module(module, parts)
        if resolved is not None:
            return resolved
        return None
    if isinstance(func, ast.Attribute):
        # Non-plain chain (``factory().Class.method(...)``): fall back to
        # a unique bare class name directly under the attribute.
        inner = func.value
        if isinstance(inner, ast.Attribute):
            cls = package.resolve_class_name(inner.attr)
            if cls is not None:
                return package.lookup_method(cls, func.attr)
    return None


def _resolve_value_ref(
    package: PackageIndex,
    module: ModuleInfo,
    enclosing: ClassInfo | None,
    node: ast.expr,
) -> FunctionInfo | None:
    """A function passed *as a value* (worker target), when resolvable."""
    if not isinstance(node, (ast.Name, ast.Attribute)):
        return None
    parts = dotted_parts(node)
    if not parts:
        return None
    if parts[0] in ("self", "cls") and enclosing is not None and len(parts) == 2:
        return package.lookup_method(enclosing, parts[1])
    resolved = package.resolve_in_module(module, parts)
    if isinstance(resolved, FunctionInfo):
        return resolved
    return None
