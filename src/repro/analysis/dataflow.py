"""Interprocedural nondeterminism-taint analysis over the project index.

The determinism guarantee is interprocedural: a ``time.time()`` read is
harmless until its value — three helpers later — lands in the
serialize envelope, the ``.irgs`` writer, the reduce, or an
advisory-bound broadcast.  This pass tracks exactly that journey:

* **Sources** are calls that yield run-to-run entropy (wall clocks,
  ``random``, filesystem listing order, process identity, ``id()``)
  and iteration over unordered ``set`` expressions, seeded only inside
  the determinism-critical module prefixes (:data:`SEEDED_PREFIXES`).
* **Propagation** is a flow-insensitive, summary-based abstract
  interpretation: every function gets a summary (which parameters flow
  to which sinks, what its return value carries), computed to a
  fixpoint over the call graph.  Unresolved calls conservatively pass
  taint through (``round(time.time(), 3)`` stays tainted); resolved
  calls map arguments onto parameter summaries, so taint crosses
  module boundaries with a per-edge witness.
* **Sinks** are the determinism-critical surfaces named in
  :data:`SINKS`.  A source token that reaches one becomes a
  :class:`TaintFlow` carrying the full witness path — every function
  boundary the value crossed, with file and line — which FRM009
  renders into the finding message.

Witness trails are capped (:data:`MAX_TRAIL`) and cycle-guarded, which
also bounds the abstract domain and guarantees the fixpoint terminates.
Everything is iterated in sorted order so findings are deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Union

from .project import (
    MODULE_BODY,
    CallSite,
    ClassInfo,
    FunctionInfo,
    PackageIndex,
    dotted_parts,
)

__all__ = [
    "MAX_TRAIL",
    "SEEDED_PREFIXES",
    "SINKS",
    "SourceTaint",
    "SinkHit",
    "TaintFlow",
    "TaintAnalysis",
    "source_label",
    "unordered_iter_reason",
]

#: Package-path prefixes where nondeterminism sources are seeded.  A
#: wall-clock read in an experiment script is fine; the same call in the
#: mining core, a baseline, an extension, the observability layer or the
#: chaos harness starts a taint.
SEEDED_PREFIXES: tuple[str, ...] = (
    "core/",
    "baselines/",
    "extensions/",
    "data/",
    "obs/",
    "testing/",
)

#: Determinism-critical sinks: ``(module package path, qualname)`` ->
#: human label.  Classes match their constructor calls.  Note that
#: ``canonical_json`` is deliberately *not* a sink: it is a generic
#: serialization helper shared with the run log, which timestamps its
#: records by design — the critical surfaces are the writers and
#: records built on top of it.
SINKS: dict[tuple[str, str], str] = {
    ("core/serialize.py", "save_rule_groups"): ".irgs writer save_rule_groups()",
    ("core/serialize.py", "save_checkpoint"): "checkpoint envelope save_checkpoint()",
    ("core/enumeration.py", "merge_counters"): (
        "deterministic reduce merge_counters()"
    ),
    ("core/parallel.py", "AdvisoryBounds"): "advisory-bound broadcast AdvisoryBounds",
    ("core/parallel.py", "AdvisoryBounds.extend"): (
        "advisory-bound broadcast AdvisoryBounds.extend()"
    ),
}

#: Maximum witness-trail length; also bounds the abstract domain.
MAX_TRAIL = 12

#: Maximum source tokens tracked per abstract value (smallest kept, so
#: truncation is deterministic).
MAX_TOKENS = 8


@dataclass(frozen=True, slots=True, order=True)
class SourceTaint:
    """A nondeterminism source observed at a location, with its trail.

    Attributes:
        label: what the source is (``time.time()``).
        path: report path of the module holding the source.
        module_key: package path of that module.
        line: source line of the entropy read.
        trail: function-boundary waypoints (``display:line``) crossed
            since the source, oldest first.
    """

    label: str
    path: str
    module_key: str
    line: int
    trail: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True, order=True)
class _ParamTaint:
    """Symbolic taint of the enclosing function's ``index``-th parameter."""

    index: int


@dataclass(frozen=True, slots=True, order=True)
class _FieldTaint:
    """Taint confined to one named field of a constructed object.

    Produced when a resolved constructor call receives a tainted
    *keyword* argument: the object as a whole carries the taint, but an
    attribute read of a different field projects it away.  This is the
    field-sensitivity that keeps ``result.groups`` clean when only
    ``result.elapsed_seconds`` holds a clock value.  Passing the whole
    object into a sink conservatively unwraps every field.
    """

    attr: str
    inner: SourceTaint


Token = Union[SourceTaint, _ParamTaint, _FieldTaint]


@dataclass(frozen=True, slots=True, order=True)
class SinkHit:
    """A sink reachable from a parameter, with the trail to get there."""

    label: str
    module_key: str
    line: int
    trail: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True, order=True)
class TaintFlow:
    """One complete source-to-sink witness (the FRM009 payload)."""

    source: SourceTaint
    sink: SinkHit

    def witness(self) -> str:
        """The rendered witness path for the finding message."""
        hops = [f"{self.source.label} at {self.source.module_key}:{self.source.line}"]
        hops.extend(self.source.trail)
        hops.extend(self.sink.trail)
        hops.append(
            f"{self.sink.label} at {self.sink.module_key}:{self.sink.line}"
        )
        return " -> ".join(hops)


@dataclass(slots=True)
class _Summary:
    """Fixpoint state of one function."""

    ret: frozenset[Token] = frozenset()
    param_sinks: tuple[frozenset[SinkHit], ...] = ()


_EMPTY: frozenset[Token] = frozenset()


def unordered_iter_reason(expr: ast.expr) -> str | None:
    """Why iterating ``expr`` has no deterministic order, or ``None``."""
    if isinstance(expr, ast.Set):
        return "iteration over a set literal"
    if isinstance(expr, ast.SetComp):
        return "iteration over a set comprehension"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"iteration over {func.id}(...)"
    return None


#: Clock reads.  Unlike FRM002, the *monotonic* clocks are sources too:
#: reading one for a budget is fine, but the moment the value itself
#: lands in a determinism-critical sink it is run-to-run entropy like
#: any other.
_WALL_CLOCK = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_DATETIME = frozenset({"now", "utcnow", "today"})
_OS = frozenset({"getpid", "getppid", "urandom", "listdir"})
_UUID = frozenset({"uuid1", "uuid4"})
_LISTING_ATTRS = frozenset({"iterdir", "rglob"})


def source_label(node: ast.Call) -> str | None:
    """The entropy-source label of a call, or ``None`` if deterministic."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "id":
        return "id()"
    parts = dotted_parts(func)
    if isinstance(func, ast.Attribute) and func.attr in _LISTING_ATTRS:
        return f".{func.attr}() filesystem listing order"
    if len(parts) < 2:
        return None
    head, tail = parts[0], parts[-1]
    has_args = bool(node.args or node.keywords)
    if head == "random":
        if tail in ("Random", "seed") and has_args:
            return None
        return f"random.{tail}()"
    if head == "time" and tail in _WALL_CLOCK:
        return f"time.{tail}()"
    if tail in _DATETIME and parts[-2] in ("datetime", "date"):
        return f"{'.'.join(parts[-2:])}()"
    if head == "os" and tail in _OS:
        return f"os.{tail}()"
    if head == "glob" and tail in ("glob", "iglob"):
        return f"glob.{tail}() listing order"
    if head == "uuid" and tail in _UUID:
        return f"uuid.{tail}()"
    return None


class TaintAnalysis:
    """Run the interprocedural taint pass over one package.

    Args:
        package: the indexed package instance.
        seeded_prefixes: package-path prefixes where sources seed.
        sinks: the sink catalogue (defaults to :data:`SINKS`).
    """

    def __init__(
        self,
        package: PackageIndex,
        seeded_prefixes: tuple[str, ...] = SEEDED_PREFIXES,
        sinks: dict[tuple[str, str], str] | None = None,
    ) -> None:
        self.package = package
        self.seeded_prefixes = seeded_prefixes
        self.sinks = SINKS if sinks is None else sinks
        self.summaries: dict[str, _Summary] = {}
        self.flows: set[TaintFlow] = set()

    # ------------------------------------------------------------------

    def run(self) -> list[TaintFlow]:
        """Fixpoint the summaries, then collect source-to-sink flows."""
        functions = self.package.sorted_functions()
        for _ in range(20):
            changed = False
            for fn in functions:
                summary = self._interpret(fn, emit=False)
                if summary != self.summaries.get(fn.display):
                    self.summaries[fn.display] = summary
                    changed = True
            if not changed:
                break
        for fn in functions:
            self._interpret(fn, emit=True)
        return sorted(self.flows)

    # ------------------------------------------------------------------

    def _seeded(self, fn: FunctionInfo) -> bool:
        key = fn.module.key
        return any(key.startswith(prefix) for prefix in self.seeded_prefixes)

    def _sink_label(self, target: FunctionInfo | ClassInfo | None) -> str | None:
        if target is None:
            return None
        qualname = target.qualname if isinstance(target, FunctionInfo) else target.name
        return self.sinks.get((target.module.key, qualname))

    # ------------------------------------------------------------------
    # Abstract interpretation of one function
    # ------------------------------------------------------------------

    def _interpret(self, fn: FunctionInfo, emit: bool) -> _Summary:
        state = _FunctionState(self, fn, emit)
        state.run()
        return _Summary(
            ret=state.cap(state.ret),
            param_sinks=tuple(
                frozenset(hits) for hits in state.param_sinks
            ),
        )


class _FunctionState:
    """Mutable interpretation state for one function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo, emit: bool):
        self.analysis = analysis
        self.fn = fn
        self.emit = emit
        self.seeded = analysis._seeded(fn)
        self.env: dict[str, set[Token]] = {}
        self.ret: set[Token] = set()
        n_params = len(fn.params) + len(fn.kwonly)
        self.param_sinks: list[set[SinkHit]] = [set() for _ in range(n_params)]
        for index, name in enumerate((*fn.params, *fn.kwonly)):
            self.env[name] = {_ParamTaint(index)}
        self.callmap: dict[int, CallSite] = {
            id(site.node): site for site in fn.calls
        }

    # -- helpers --------------------------------------------------------

    def cap(self, tokens: set[Token]) -> frozenset[Token]:
        """Deterministically bound a token set to :data:`MAX_TOKENS`."""
        if len(tokens) <= MAX_TOKENS:
            return frozenset(tokens)
        params = sorted(t for t in tokens if isinstance(t, _ParamTaint))
        sources = sorted(t for t in tokens if isinstance(t, SourceTaint))
        fields = sorted(t for t in tokens if isinstance(t, _FieldTaint))
        kept: list[Token] = [*params[:MAX_TOKENS], *sources, *fields]
        return frozenset(kept[:MAX_TOKENS])

    def _hop(self, waypoint: str, trail: tuple[str, ...]) -> tuple[str, ...]:
        if waypoint in trail or len(trail) >= MAX_TRAIL:
            return trail
        return trail + (waypoint,)

    def _extend(self, token: SourceTaint, waypoint: str) -> SourceTaint:
        trail = self._hop(waypoint, token.trail)
        if trail is token.trail:
            return token
        return SourceTaint(token.label, token.path, token.module_key, token.line, trail)

    def _extend_any(self, token: Token, waypoint: str) -> Token:
        if isinstance(token, SourceTaint):
            return self._extend(token, waypoint)
        if isinstance(token, _FieldTaint):
            return _FieldTaint(token.attr, self._extend(token.inner, waypoint))
        return token

    # -- statement walk -------------------------------------------------

    def run(self) -> None:
        """Interpret the body twice (loop-carried flows need pass two)."""
        node = self.fn.node
        if isinstance(node, ast.Module):
            body = [
                stmt
                for stmt in node.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
        else:
            body = node.body  # type: ignore[attr-defined]
        for _ in range(2):
            for stmt in body:
                self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret |= self._eval(stmt.value)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = stmt.value
            tokens = self._eval(value) if value is not None else set()
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._assign(target, tokens)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            tokens = self._eval(stmt.iter)
            reason = unordered_iter_reason(stmt.iter)
            if reason is not None and self.seeded:
                tokens = tokens | {
                    SourceTaint(
                        reason,
                        self.fn.module.context.rel_path,
                        self.fn.module.key,
                        stmt.iter.lineno,
                    )
                }
            self._assign(stmt.target, tokens)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tokens = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tokens)
            for inner in stmt.body:
                self._stmt(inner)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._stmt(inner)
            return
        if isinstance(stmt, ast.Try):
            for inner in (
                stmt.body + stmt.orelse + stmt.finalbody
            ):
                self._stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt(inner)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            # Error paths do not reach the serialized output.
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._eval(child)

    def _assign(self, target: ast.expr, tokens: set[Token]) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(tokens)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tokens)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tokens)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # ``a.b = tainted`` / ``a[k] = tainted`` taints the carrier.
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(tokens)

    # -- expression evaluation ------------------------------------------

    def _eval(self, node: ast.expr) -> set[Token]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            # Field projection: reading ``.groups`` off an object whose
            # taint is confined to ``.elapsed_seconds`` stays clean.
            tokens = self._eval(node.value)
            projected: set[Token] = set()
            for token in tokens:
                if isinstance(token, _FieldTaint):
                    if token.attr == node.attr:
                        projected.add(token.inner)
                else:
                    projected.add(token)
            return projected
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval_slice(node.slice)
        if isinstance(node, (ast.BinOp,)):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.BoolOp):
            out: set[Token] = set()
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            out = self._eval(node.left)
            for comparator in node.comparators:
                out |= self._eval(comparator)
            return out
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self._eval(element)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                if key is not None:
                    out |= self._eval(key)
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node.elt, node.generators)
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node.key, node.generators) | self._eval_comp(
                node.value, node.generators
            )
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._eval(value.value)
            return out
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            inner = node.value
            return self._eval(inner) if inner is not None else set()
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.ret |= self._eval(node.value)
            return set()
        if isinstance(node, ast.NamedExpr):
            tokens = self._eval(node.value)
            self._assign(node.target, tokens)
            return tokens
        return set()

    def _eval_slice(self, node: ast.expr) -> set[Token]:
        if isinstance(node, ast.Slice):
            out: set[Token] = set()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out |= self._eval(part)
            return out
        return self._eval(node)

    def _eval_comp(
        self, elt: ast.expr, generators: list[ast.comprehension]
    ) -> set[Token]:
        out: set[Token] = set()
        for gen in generators:
            tokens = self._eval(gen.iter)
            reason = unordered_iter_reason(gen.iter)
            if reason is not None and self.seeded:
                tokens = tokens | {
                    SourceTaint(
                        reason,
                        self.fn.module.context.rel_path,
                        self.fn.module.key,
                        gen.iter.lineno,
                    )
                }
            self._assign(gen.target, tokens)
            for cond in gen.ifs:
                self._eval(cond)
        out |= self._eval(elt)
        return out

    # -- calls -----------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> set[Token]:
        analysis = self.analysis
        site = self.callmap.get(id(node))
        arg_tokens = [self._eval(arg) for arg in node.args]
        kw_tokens = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
        }
        receiver: set[Token] = set()
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value)
        result: set[Token] = set()

        label = source_label(node)
        if label is not None and self.seeded:
            result.add(
                SourceTaint(
                    label,
                    self.fn.module.context.rel_path,
                    self.fn.module.key,
                    node.lineno,
                )
            )

        target = site.target if site is not None else None
        sink = analysis._sink_label(target)
        if sink is not None:
            hit = SinkHit(sink, self.fn.module.key, node.lineno)
            all_args: set[Token] = set().union(*arg_tokens, *kw_tokens.values()) if (
                arg_tokens or kw_tokens
            ) else set()
            self._record_sink(all_args, hit)

        if isinstance(target, FunctionInfo):
            result |= self._apply_summary(target, node, arg_tokens, kw_tokens)
            result |= receiver
        elif isinstance(target, ClassInfo):
            init = analysis.package.lookup_method(target, "__init__")
            if init is not None:
                self._apply_summary(init, node, arg_tokens, kw_tokens)
            for tokens in arg_tokens:
                result |= tokens
            for name, tokens in kw_tokens.items():
                # Keyword constructor arguments taint only their field.
                for token in tokens:
                    if name is not None and isinstance(token, SourceTaint):
                        result.add(_FieldTaint(name, token))
                    else:
                        result.add(token)
        else:
            # Worker-target shape: unresolved dispatcher invoked with a
            # known function first (``executor.submit(fn, *args)``).
            dispatched = False
            if site is not None:
                for position, ref in site.ref_args:
                    if position == 0:
                        result |= self._apply_summary(
                            ref, node, arg_tokens[1:], kw_tokens
                        )
                        dispatched = True
            if not dispatched:
                for tokens in arg_tokens:
                    result |= tokens
                for tokens in kw_tokens.values():
                    result |= tokens
                result |= receiver
        return result

    def _record_sink(self, tokens: set[Token], hit: SinkHit) -> None:
        # A whole object reaching a sink conservatively unwraps every
        # field-confined taint it carries.
        unwrapped = {
            t.inner if isinstance(t, _FieldTaint) else t for t in tokens
        }
        ordered = sorted(
            unwrapped, key=lambda t: (isinstance(t, SourceTaint), t)
        )
        for token in ordered:
            if isinstance(token, SourceTaint):
                if self.emit:
                    self.analysis.flows.add(TaintFlow(source=token, sink=hit))
            elif isinstance(token, _ParamTaint):
                if token.index < len(self.param_sinks):
                    self.param_sinks[token.index].add(hit)

    def _apply_summary(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        arg_tokens: list[set[Token]],
        kw_tokens: dict[str | None, set[Token]],
    ) -> set[Token]:
        """Map actuals through ``callee``'s summary; returns result taint."""
        summary = self.analysis.summaries.get(callee.display)
        if summary is None:
            return set()
        waypoint = f"{self.fn.display}:{node.lineno}"
        # Actual tokens by callee parameter index.
        names = (*callee.params, *callee.kwonly)
        actuals: dict[int, set[Token]] = {}
        for position, tokens in enumerate(arg_tokens):
            if position < len(callee.params):
                actuals[position] = tokens
        for name, tokens in kw_tokens.items():
            if name is None:
                continue
            if name in names:
                actuals[names.index(name)] = (
                    actuals.get(names.index(name), set()) | tokens
                )
        result: set[Token] = set()
        for token in summary.ret:
            if isinstance(token, (SourceTaint, _FieldTaint)):
                result.add(self._extend_any(token, waypoint))
            elif token.index in actuals:
                for actual in actuals[token.index]:
                    result.add(self._extend_any(actual, waypoint))
        for index, hits in enumerate(summary.param_sinks):
            if not hits or index not in actuals:
                continue
            for hit in sorted(hits):
                shifted = SinkHit(
                    hit.label,
                    hit.module_key,
                    hit.line,
                    self._hop(f"{callee.display}", hit.trail),
                )
                self._record_sink(actuals[index], shifted)
        return result
