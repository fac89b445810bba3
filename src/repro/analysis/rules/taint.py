"""FRM009: interprocedural nondeterminism taint.

The determinism guarantee — serial, sharded, warm and every engine
produce byte-identical ``.irgs`` output — fails through *paths*, not
single statements: a wall-clock read is harmless in a log line but
fatal once its value travels, possibly through several helpers, into
the serialize envelope, the reduce, or an advisory-bound broadcast.
FRM002 catches the read when it sits in a scoped module; this rule
catches the *journey*, across module boundaries, and names every hop in
the finding message so the witness path can be audited by eye.

The heavy lifting lives in :mod:`repro.analysis.dataflow`; this rule
adapts its :class:`~repro.analysis.dataflow.TaintFlow` records into
findings anchored at the **source** line — the place a fix (or a
``# farmer-lint: disable=FRM009`` suppression) belongs.
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from ..base import Finding, Rule
from ..dataflow import SINKS, TaintAnalysis
from ..project import ProjectIndex

__all__ = ["NondeterminismTaintRule"]


class NondeterminismTaintRule(Rule):
    """FRM009: no entropy source may reach a determinism-critical sink."""

    rule_id: ClassVar[str] = "FRM009"
    name: ClassVar[str] = "nondeterminism-taint"
    description: ClassVar[str] = (
        "no wall-clock/random/listing-order value may flow, across any "
        "number of calls, into serialized output, the reduce, or "
        "advisory-bound broadcasts"
    )
    needs_project: ClassVar[bool] = True

    def finish_project(self, project: ProjectIndex) -> Iterator[Finding]:
        for package in project.sorted_packages():
            if not any(key in package.modules for key, _ in SINKS):
                # No determinism-critical surface defined here, so no
                # resolvable sink call can exist either.
                continue
            for flow in TaintAnalysis(package).run():
                module = package.modules.get(flow.source.module_key)
                path = (
                    module.context.rel_path
                    if module is not None
                    else flow.source.path
                )
                yield Finding(
                    rule_id=self.rule_id,
                    rule_name=self.name,
                    path=path,
                    line=flow.source.line,
                    col=0,
                    message=(
                        f"nondeterminism source {flow.source.label} reaches "
                        f"{flow.sink.label}; witness: {flow.witness()}"
                    ),
                )
