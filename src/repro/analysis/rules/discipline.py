"""FRM004: bitset and float-measure discipline.

Two habits corrupt the miners quietly: reimplementing popcount through a
binary *string* — ``bin(x).count("1")``, ``format(x, "b").count("1")``
or ``f"{x:b}".count("1")`` (an order of magnitude slower than the
``int.bit_count`` path wrapped by :func:`repro.core.bitset.bit_count`,
and a second source of truth for the bitset representation), and
comparing floating-point measure values with ``==``/``!=`` (chi-square
and confidence arrive through different algebraic routes in the serial
and sharded miners, so exact equality is a latent flake).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from ..base import Finding, ModuleContext, Rule

__all__ = ["BitsetDisciplineRule"]


class BitsetDisciplineRule(Rule):
    """FRM004: use the bitset helpers; never ``==`` floats in measures."""

    rule_id: ClassVar[str] = "FRM004"
    name: ClassVar[str] = "bitset-discipline"
    description: ClassVar[str] = (
        "popcounts go through repro.core.bitset.bit_count; no float "
        "equality in measure modules"
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (ast.Call, ast.Compare)

    #: Modules where ``==``/``!=`` against a float expression is banned.
    float_eq_modules: ClassVar[tuple[str, ...]] = (
        "core/measures.py",
        "extensions/measures.py",
    )

    def visit(self, node: ast.AST, module: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_popcount(node, module)
        elif isinstance(node, ast.Compare):
            if module.in_package(*self.float_eq_modules):
                yield from self._check_float_equality(node, module)

    def _check_popcount(
        self, node: ast.Call, module: ModuleContext
    ) -> Iterator[Finding]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "count"):
            return
        receiver = func.value
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "bin"
        ):
            yield self.finding(
                module,
                node,
                'bin(x).count("1") reimplements popcount; use '
                "repro.core.bitset.bit_count(x)",
            )
        elif self._is_binary_format_call(receiver):
            yield self.finding(
                module,
                node,
                'format(x, "b").count("1") reimplements popcount; use '
                "repro.core.bitset.bit_count(x)",
            )
        elif self._is_binary_fstring(receiver):
            yield self.finding(
                module,
                node,
                'f"{x:b}".count("1") reimplements popcount; use '
                "repro.core.bitset.bit_count(x)",
            )

    @staticmethod
    def _is_binary_format_call(node: ast.expr) -> bool:
        """``format(x, "b")`` (or any spec ending in ``b``, e.g. ``08b``)."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "format"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.endswith("b")
        )

    @staticmethod
    def _is_binary_fstring(node: ast.expr) -> bool:
        """An f-string with some ``{...:b}``-style binary format spec."""
        if not isinstance(node, ast.JoinedStr):
            return False
        for value in node.values:
            if not isinstance(value, ast.FormattedValue):
                continue
            spec = value.format_spec
            if spec is None or not isinstance(spec, ast.JoinedStr):
                continue
            parts = [
                part.value
                for part in spec.values
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ]
            if "".join(parts).endswith("b"):
                return True
        return False

    def _check_float_equality(
        self, node: ast.Compare, module: ModuleContext
    ) -> Iterator[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(
            isinstance(operand, ast.Constant)
            and isinstance(operand.value, float)
            for operand in operands
        ):
            yield self.finding(
                module,
                node,
                "exact ==/!= against a float is fragile for measure "
                "values; compare with math.isclose or an explicit epsilon",
            )
