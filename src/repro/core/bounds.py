"""Pruning Strategy 3: support / confidence / chi-square upper bounds.

Section 3.2.3 of the paper derives, for the subtree rooted at an
enumeration node ``X`` reached from its parent ``X'`` via row ``rm``,
upper bounds on the support, confidence and chi-square of every upper
bound rule discoverable in the subtree:

* loose bounds (Step 2) computable *before* scanning the conditional
  table, from the parent's counts alone, and
* tight bounds (Step 4) computable *after* the scan.

All bounds rely on the ORD ordering (consequent rows before the rest): if
``rm`` is a negative row, every remaining enumeration candidate is also
negative, so the positive support can never grow again.

The functions here are pure and independently unit-tested; ``farmer.py``
wires them into the search.  The walk inlines the trivial support
bounds, calls :func:`confidence_bound` and :func:`chi_bound` at each
node that needs them (constant-time arithmetic on the node's counts),
and computes the tight bound's ``MAX(|TT|X.EP ∩ t|)`` term with an
early-exiting scan over the support-sorted table
(:meth:`~repro.core.kernel.CondTable.max_overlap`); the
``engine="reference"`` oracle scans every tuple instead, and the
differential suite pins that both prune identically.
"""

from __future__ import annotations

from .measures import chi_square_upper_bound

__all__ = [
    "loose_support_bound",
    "tight_support_bound",
    "confidence_bound",
    "chi_bound",
]


def loose_support_bound(
    supp_in: int, n_positive_candidates: int, rm_is_positive: bool
) -> int:
    """``Us2`` of Lemma 3.7, computable before scanning ``TT|X``.

    Args:
        supp_in: identified positive support on arrival at ``X`` — the
            parent rule's support plus one if ``rm`` is positive
            (``γ'.sup + 1`` in the paper's notation).
        n_positive_candidates: ``|TT|X.EP|``.
        rm_is_positive: whether the row that created this node carries the
            consequent.

    Returns:
        The loose bound on any descendant rule's positive support.  When
        ``rm`` is negative, ORD guarantees no candidate below can be
        positive, so the bound collapses to the support already
        identified.
    """
    if not rm_is_positive:
        return supp_in
    return supp_in + n_positive_candidates


def tight_support_bound(
    supp_in: int, max_positive_candidates_per_tuple: int, rm_is_positive: bool
) -> int:
    """``Us1`` of Lemma 3.7, computable after scanning ``TT|X``.

    Args:
        supp_in: identified positive support on arrival at ``X``.
        max_positive_candidates_per_tuple: ``MAX(|TT|X.EP ∩ t|)`` over
            the tuples ``t`` of the conditional table — any antecedent
            discovered below must stay inside one tuple's row support,
            so at most that many positive candidates can ever join the
            support set.
        rm_is_positive: whether the row that created this node carries
            the consequent.

    Returns:
        The tight bound on any descendant rule's positive support.
    """
    if not rm_is_positive:
        return supp_in
    return supp_in + max_positive_candidates_per_tuple


def confidence_bound(support_bound: int, negative_support_lower: int) -> float:
    """``Uc1``/``Uc2`` of Lemma 3.8.

    Confidence ``x / (x + y)`` is maximized by taking ``x`` at its upper
    bound and ``y`` at its lower bound: every rule below has an
    antecedent contained in this node's, hence a negative support at
    least as large as this node's.

    Args:
        support_bound: upper bound on descendant positive support
            (``Us1`` or ``Us2``).
        negative_support_lower: this node's identified negative support.

    Returns:
        The confidence upper bound in ``[0, 1]``.
    """
    denominator = support_bound + negative_support_lower
    if denominator == 0:
        return 0.0
    return support_bound / denominator


def chi_bound(supp_total: int, supn_total: int, n: int, m: int) -> float:
    """Chi-square upper bound of Lemma 3.9 at a node with rule counts
    ``(supp_total, supn_total)``.

    Delegates to :func:`repro.core.measures.chi_square_upper_bound` with
    ``x = supp + supn`` and ``y = supp``.

    Args:
        supp_total: positive support identified at the node.
        supn_total: negative support identified at the node.
        n: total row count of the dataset.
        m: rows carrying the consequent class.

    Returns:
        The largest chi-square any rule below the node can achieve.
    """
    return chi_square_upper_bound(supp_total + supn_total, supp_total, n, m)
