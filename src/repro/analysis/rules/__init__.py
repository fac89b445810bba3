"""The farmer-lint rule catalogue (FRM001..FRM012; FRM010 is retired).

Adding a rule: subclass :class:`repro.analysis.base.Rule` in a module
here, give it a fresh ``FRM0xx`` id, and append the class to
:data:`ALL_RULES`; the engine, CLI, baseline and reporters pick it up
with no further wiring.  ``docs/static-analysis.md`` documents each
rule with bad/good examples.
"""

from __future__ import annotations

from ..base import Rule
from .determinism import NondeterministicIterationRule, NondeterminismSourceRule
from .discipline import BitsetDisciplineRule
from .docstrings import DocstringSectionsRule
from .exceptions import ExceptionDisciplineRule
from .hygiene import PublicApiRule
from .persistence import PersistenceDisciplineRule, RawWriteSurfaceRule
from .picklability import WorkerPicklabilityRule
from .purity import HotPathPurityRule
from .taint import NondeterminismTaintRule

__all__ = ["ALL_RULES", "RULES_BY_ID", "default_rules"]

#: Every shipped rule class, in id order.
ALL_RULES: tuple[type[Rule], ...] = (
    NondeterministicIterationRule,
    NondeterminismSourceRule,
    WorkerPicklabilityRule,
    BitsetDisciplineRule,
    PublicApiRule,
    ExceptionDisciplineRule,
    PersistenceDisciplineRule,
    DocstringSectionsRule,
    NondeterminismTaintRule,
    HotPathPurityRule,
    RawWriteSurfaceRule,
)

#: Rule classes keyed by their ``FRM00x`` id.
RULES_BY_ID: dict[str, type[Rule]] = {rule.rule_id: rule for rule in ALL_RULES}


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule (engine default)."""
    return [rule_class() for rule_class in ALL_RULES]
