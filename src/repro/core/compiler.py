"""Instantiating the Separable evaluation schema (Section 3.3).

:func:`compile_plan` turns a :class:`~repro.core.analysis.RecursionAnalysis`
plus a choice of selected component into a
:class:`~repro.core.plan.SeparablePlan`:

* **class-driven** (the selection constants fully bind some equivalence
  class ``e_1``): the down loop applies the rules of ``e_1`` head-to-body
  (computing every value the ``t|e_1`` columns take at recursive call
  sites -- the paper's ``seen_1``); the up loop applies the rules of all
  other classes body-to-head.
* **pers-driven** (a constant sits in ``t|pers``): lines 1-7 collapse to
  ``seen_1 := {x_0}`` and *every* class runs in the up loop, exactly the
  paper's "dummy equivalence class" construction.

The asymmetry mirrors the left-to-right string evaluation of Section
3.4: predicate instances produced by ``e_1`` sit left of ``t_0`` and are
evaluated top-down from the constants; instances of the other classes
sit right of ``t_0`` and are evaluated bottom-up from its tuples.
"""

from __future__ import annotations

from typing import Sequence

from ..datalog.atoms import Atom
from ..datalog.errors import NotFullSelectionError
from ..datalog.terms import Term
from .analysis import EquivalenceClass, RecursionAnalysis, RuleAnalysis
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan
from .selections import Selection

__all__ = ["compile_plan", "compile_selection"]


def _down_join(a: RuleAnalysis, positions: tuple[int, ...]) -> CarryJoin:
    """``f_1`` term for one rule of the selected class.

    The carry holds values of the *head* variables at the class columns;
    joining the rule's nonrecursive atoms yields the corresponding
    *body*-instance values -- the bindings passed down to the next
    recursion level (compare Figure 3's
    ``carry_1(W) := carry_1(X) & f(X, W)``).
    """
    carry_atom = Atom(CARRY, tuple(a.rule.head.args[p] for p in positions))
    output = tuple(a.recursive_atom.args[p] for p in positions)
    return CarryJoin(
        label=f"r{a.index + 1}",
        body=(carry_atom,) + a.nonrecursive_atoms,
        output=output,
        rule_index=a.index,
    )


def _up_join(a: RuleAnalysis, up_positions: tuple[int, ...]) -> CarryJoin:
    """``f_2`` term for one rule of a non-selected class.

    The carry holds values of the *body*-instance terms at every answer
    column; the rule's own class columns get joined through its
    nonrecursive atoms to produce the *head* values, while columns of
    other classes and persistent columns pass through unchanged
    (their body terms equal their head terms by Conditions 1-2).
    """
    carry_atom = Atom(
        CARRY, tuple(a.recursive_atom.args[p] for p in up_positions))
    output = tuple(a.rule.head.args[p] for p in up_positions)
    return CarryJoin(
        label=f"r{a.index + 1}",
        body=(carry_atom,) + a.nonrecursive_atoms,
        output=output,
        rule_index=a.index,
    )


def _exit_join(
    exit_rule,
    exit_index: int,
    selected_positions: tuple[int, ...],
    up_positions: tuple[int, ...],
) -> CarryJoin:
    """``carry_2`` initialization term for one exit rule (line 8).

    Joins the exit rule's body with ``seen_1`` on the selected columns
    and projects the answer columns (compare
    ``carry_2(W) := seen_1(X) & t_0(X, W)``).
    """
    seen_atom = Atom(
        SEEN, tuple(exit_rule.head.args[p] for p in selected_positions))
    output = tuple(exit_rule.head.args[p] for p in up_positions)
    return CarryJoin(
        label=f"exit{exit_index + 1}",
        body=(seen_atom,) + tuple(exit_rule.body),
        output=output,
        rule_index=exit_index,
    )


def compile_plan(
    analysis: RecursionAnalysis,
    selected_class: EquivalenceClass | None = None,
    pers_positions: Sequence[int] = (),
) -> SeparablePlan:
    """Instantiate the schema for one selected component.

    Exactly one of ``selected_class`` / ``pers_positions`` must be
    given: a fully bound equivalence class, or the bound persistent
    columns for the dummy-class case.

    Compiled once per argument pair and kept with the analysis
    (:attr:`RecursionAnalysis.compiled_plans`).
    """
    plans = analysis.compiled_plans
    key = (selected_class, tuple(pers_positions))
    if key in plans:
        return plans[key]
    if (selected_class is None) == (not pers_positions):
        raise ValueError(
            "provide exactly one of selected_class or pers_positions"
        )

    if selected_class is not None:
        selected_positions = selected_class.positions
        down_rules = analysis.rules_of_class(selected_class)
        up_classes = tuple(
            c for c in analysis.classes if c.index != selected_class.index
        )
        selected_index: int | None = selected_class.index
    else:
        bad = [p for p in pers_positions if p not in analysis.pers_positions]
        if bad:
            raise ValueError(
                f"positions {bad} are not persistent columns of "
                f"{analysis.predicate}"
            )
        selected_positions = tuple(sorted(pers_positions))
        down_rules = ()
        up_classes = analysis.classes
        selected_index = None

    up_positions = tuple(
        p for p in range(analysis.arity) if p not in selected_positions
    )

    down_joins = tuple(
        _down_join(a, selected_positions) for a in down_rules
    )
    up_joins = tuple(
        _up_join(a, up_positions)
        for cls in up_classes
        for a in analysis.rules_of_class(cls)
    )
    exit_joins = tuple(
        _exit_join(r, i, selected_positions, up_positions)
        for i, r in enumerate(analysis.exit_rules)
    )
    plan = plans[key] = SeparablePlan(
        predicate=analysis.predicate,
        arity=analysis.arity,
        selected_positions=selected_positions,
        up_positions=up_positions,
        down_joins=down_joins,
        exit_joins=exit_joins,
        up_joins=up_joins,
        selected_class_index=selected_index,
    )
    return plan


def compile_selection(selection: Selection) -> SeparablePlan:
    """Compile a plan for a classified *full* selection."""
    if not selection.is_full:
        raise NotFullSelectionError(
            f"query {selection.query} is not a full selection; use the "
            f"Lemma 2.1 rewrite (repro.core.rewrite) first"
        )
    if selection.selected_class is not None:
        return compile_plan(
            selection.analysis, selected_class=selection.selected_class
        )
    return compile_plan(
        selection.analysis, pers_positions=selection.selected_positions
    )
