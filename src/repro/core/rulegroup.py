"""Rule groups: the paper's central representation (Definition 2.1).

A rule group collects every rule ``A_i -> C`` whose antecedent is
supported by exactly the same set of rows ``R``.  It is fully described by

* its unique **upper bound** — the maximal antecedent, ``I(R)``, which is a
  closed itemset (Lemma 2.1), and
* its **lower bounds** — the minimal antecedents (a.k.a. minimal
  generators), computed separately by :mod:`repro.core.minelb`.

By Lemma 2.2 the members of the group are exactly the itemsets ``A`` with
``lower ⊆ A ⊆ upper`` for some lower bound, and all members share the same
support, confidence and chi-square, so the group's statistics live here
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterator

from ..errors import DataError, UsageError
from . import measures
from .rule import Rule

__all__ = ["RuleGroup", "count_covered_subsets"]


@dataclass(frozen=True, slots=True, init=False)
class RuleGroup:
    """A rule group with consequent ``consequent`` (Definition 2.1).

    Attributes:
        upper: antecedent of the unique upper-bound rule (closed itemset).
        consequent: class label shared by every rule in the group.
        rows: the antecedent support set ``R`` as *original* dataset row
            indices (representation-independent, unlike the miners'
            internal ORD bitsets).
        support: ``|R(upper ∪ C)|`` — the group's rule support.
        antecedent_support: ``|R(upper)| = |rows|``.
        n: dataset row count.
        m: rows labelled ``consequent`` in the dataset.
        lower_bounds: minimal generators, or ``None`` when MineLB was not
            run (the paper's Step 3 is optional).
    """

    upper: frozenset[int]
    consequent: Hashable
    rows: frozenset[int]
    support: int
    antecedent_support: int
    n: int
    m: int
    lower_bounds: tuple[frozenset[int], ...] | None = field(default=None)

    def __init__(
        self,
        upper: frozenset[int],
        consequent: Hashable,
        rows: frozenset[int],
        support: int,
        antecedent_support: int,
        n: int,
        m: int,
        lower_bounds: tuple[frozenset[int], ...] | None = None,
    ) -> None:
        # Hand-written, not generated: every answer builds one of these
        # per group, and the generated frozen ``__init__`` plus a
        # ``__post_init__`` re-reading each field cost more per group.
        if antecedent_support != len(rows):
            raise DataError(
                f"antecedent_support={antecedent_support} but "
                f"|rows|={len(rows)}"
            )
        if not 0 <= support <= antecedent_support:
            raise DataError(
                f"support={support} outside [0, {antecedent_support}]"
            )
        if lower_bounds is not None:
            for bound in lower_bounds:
                if not bound <= upper:
                    raise DataError(
                        f"lower bound {sorted(bound)} is not a subset of the "
                        f"upper bound {sorted(upper)}"
                    )
        set_slot = object.__setattr__  # the class is frozen
        set_slot(self, "upper", upper)
        set_slot(self, "consequent", consequent)
        set_slot(self, "rows", rows)
        set_slot(self, "support", support)
        set_slot(self, "antecedent_support", antecedent_support)
        set_slot(self, "n", n)
        set_slot(self, "m", m)
        set_slot(self, "lower_bounds", lower_bounds)

    # ------------------------------------------------------------------
    # Statistics (shared by every member, Section 2.2)
    # ------------------------------------------------------------------

    @property
    def confidence(self) -> float:
        """Confidence shared by all rules of the group."""
        return measures.confidence(self.antecedent_support, self.support)

    @property
    def chi_square(self) -> float:
        """Chi-square shared by all rules of the group."""
        return measures.chi_square(
            self.antecedent_support, self.support, self.n, self.m
        )

    @property
    def upper_rule(self) -> Rule:
        """The upper-bound rule as a :class:`Rule`."""
        return Rule(
            antecedent=self.upper,
            consequent=self.consequent,
            support=self.support,
            antecedent_support=self.antecedent_support,
            n=self.n,
            m=self.m,
        )

    def lower_rules(self) -> tuple[Rule, ...]:
        """The lower-bound rules as :class:`Rule` objects.

        Raises:
            UsageError: if lower bounds have not been computed.
        """
        if self.lower_bounds is None:
            raise UsageError("lower bounds not computed; run MineLB first")
        return tuple(
            Rule(
                antecedent=bound,
                consequent=self.consequent,
                support=self.support,
                antecedent_support=self.antecedent_support,
                n=self.n,
                m=self.m,
            )
            for bound in self.lower_bounds
        )

    # ------------------------------------------------------------------
    # Membership (Lemma 2.2)
    # ------------------------------------------------------------------

    def contains_antecedent(self, antecedent: frozenset[int]) -> bool:
        """Whether ``antecedent -> consequent`` belongs to this group.

        Requires computed lower bounds.  By Lemma 2.2, membership holds iff
        the antecedent lies between some lower bound and the upper bound.
        """
        if self.lower_bounds is None:
            raise UsageError("lower bounds not computed; run MineLB first")
        if not antecedent <= self.upper:
            return False
        return any(bound <= antecedent for bound in self.lower_bounds)

    def iter_members(self, limit: int | None = None) -> Iterator[frozenset[int]]:
        """Yield member antecedents (smallest first), up to ``limit``.

        Rule groups in microarray data routinely have billions of members
        (the whole point of mining groups instead of rules), so callers
        should pass ``limit`` except on toy data.
        """
        if self.lower_bounds is None:
            raise UsageError("lower bounds not computed; run MineLB first")
        produced = 0
        items = sorted(self.upper)
        for size in range(0, len(items) + 1):
            for subset in combinations(items, size):
                candidate = frozenset(subset)
                if any(bound <= candidate for bound in self.lower_bounds):
                    yield candidate
                    produced += 1
                    if limit is not None and produced >= limit:
                        return

    def member_count(self) -> int:
        """Exact number of member rules, by inclusion-exclusion.

        Counts subsets of the upper bound that contain at least one lower
        bound: ``sum over non-empty subfamilies S of lower bounds of
        (-1)^(|S|+1) * 2^(|upper| - |union(S)|)``.  Exponential in the
        number of lower bounds; fine for reporting, guarded by callers for
        pathological groups.
        """
        if self.lower_bounds is None:
            raise UsageError("lower bounds not computed; run MineLB first")
        return count_covered_subsets(self.upper, self.lower_bounds)

    def format(self, dataset=None) -> str:
        """Readable one-group report, with item names when available."""
        def render(itemset: frozenset[int]) -> str:
            if dataset is not None:
                return dataset.format_itemset(itemset)
            return "{" + ", ".join(str(i) for i in sorted(itemset)) + "}"

        lines = [
            f"upper  : {render(self.upper)} -> {self.consequent}",
            f"stats  : sup={self.support} antecedent_sup="
            f"{self.antecedent_support} conf={self.confidence:.3f} "
            f"chi={self.chi_square:.2f}",
        ]
        if self.lower_bounds is not None:
            for bound in self.lower_bounds:
                lines.append(f"lower  : {render(bound)} -> {self.consequent}")
        return "\n".join(lines)


def count_covered_subsets(
    upper: frozenset[int], lower_bounds: tuple[frozenset[int], ...]
) -> int:
    """Count subsets of ``upper`` containing at least one lower bound."""
    total = 0
    bounds = list(lower_bounds)
    for family_size in range(1, len(bounds) + 1):
        sign = 1 if family_size % 2 == 1 else -1
        for family in combinations(bounds, family_size):
            union = frozenset().union(*family)
            total += sign * (1 << (len(upper) - len(union)))
    return total
