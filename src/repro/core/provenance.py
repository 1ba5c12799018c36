"""Answer justifications: the paper's ``J(a)`` (Section 3.4), executable.

The correctness proof of the Separable algorithm records, for every
tuple that enters a carry relation, *which* rule application produced
it from which parent tuple; the resulting string ``J(a)`` is exactly
the derivation of an expansion string whose relation contains the
answer (Lemma 3.1).  This module makes that construction available at
runtime:

* :func:`execute_plan_traced` runs a compiled plan like
  :func:`repro.core.evaluator.execute_plan` but additionally records a
  first-derivation parent for every carry/seen tuple;
* :func:`justify` walks the parent chains of one answer back to the
  selection constants and returns a :class:`Justification` -- the rule
  indices of ``J(a)`` split into the down (selected class) and up
  (other classes) parts, plus the exit rule used;
* :meth:`Justification.derivation` is ``D(s)`` for a string ``s`` whose
  relation provably contains the answer -- the tests rebuild ``s`` via
  :func:`repro.datalog.expansion.string_for_derivation` and check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..budget import Budget, UNLIMITED
from ..datalog.database import Database, Relation
from ..datalog.joins import RowList, evaluate_body_into
from ..stats import EvaluationStats
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan

__all__ = ["Justification", "Trace", "execute_plan_traced", "justify"]

#: parent record: (rule index, parent tuple); None marks a loop seed.
Parent = Optional[tuple[int, tuple]]


@dataclass(frozen=True)
class Justification:
    """``J(a)`` for one answer of a Separable plan execution.

    Attributes
    ----------
    answer:
        The tuple over the plan's answer columns being justified.
    seed:
        The ``seen_1`` seed the derivation starts from (the selection
        constants, or a Lemma 2.1 sideways seed).
    down_rules:
        Indices of selected-class rules, in expansion order (first
        applied to the query instance first).
    exit_index:
        Which exit rule closed the derivation.
    up_rules:
        Indices of non-selected-class rules, in expansion order.
    """

    answer: tuple
    seed: tuple
    down_rules: tuple[int, ...]
    exit_index: int
    up_rules: tuple[int, ...]

    @property
    def derivation(self) -> tuple[int, ...]:
        """``D(s)`` of a string whose relation contains the answer.

        By Theorem 2.1 any interleaving of the per-class projections
        works; we use "all selected-class rules first", the canonical
        order of Lemma 3.3's proof.
        """
        return self.down_rules + self.up_rules

    def __str__(self) -> str:
        down = " ".join(f"r{i + 1}" for i in self.down_rules) or "ε"
        up = " ".join(f"r{i + 1}" for i in self.up_rules) or "ε"
        return (
            f"J({self.answer}) = [down: {down}] [exit{self.exit_index + 1}]"
            f" [up: {up}]"
        )


@dataclass
class Trace:
    """Parent pointers recorded during one traced plan execution."""

    plan: SeparablePlan
    down_parent: dict[tuple, Parent]
    exit_parent: dict[tuple, tuple[int, tuple]]
    up_parent: dict[tuple, Parent]


def _child_parent_rows(view: Database, join: CarryJoin, pseudo: str,
                       stats: EvaluationStats, order: str):
    """``(child, parent)`` per derivation of ``join`` over ``view``: the
    output tuple and the ``pseudo`` (carry or seen) tuple it came from,
    in the join's enumeration order (the first derivation of a child
    is the parent recorded for it)."""
    parent_atom = next(a for a in join.body if a.predicate == pseudo)
    width = len(join.output)
    rows = RowList()
    evaluate_body_into(view, join.body, join.output + parent_atom.args,
                       rows, stats=stats, order=order)
    return [(row[:width], row[width:]) for row in rows]


def _traced_loop(
    joins: tuple[CarryJoin, ...],
    initial: Iterable[tuple],
    arity: int,
    db: Database,
    parents: dict[tuple, Parent],
    stats: EvaluationStats,
    budget: Budget,
    order: str,
) -> set[tuple]:
    """A Figure 2 loop that records a first parent for every new tuple.

    Separate from the generated loop on purpose: a ``parents=`` flavour
    of ``loop_text`` would have to switch off the projected innermost
    level and carry a second row template, i.e. branch on its caller.
    """
    seen: set[tuple] = set()
    carry: set[tuple] = set()
    for s in initial:
        s = tuple(s)
        seen.add(s)
        carry.add(s)
        parents.setdefault(s, None)
    while carry:
        budget.check_wall(stats)
        stats.bump_iterations()
        view = db.with_mounts({CARRY: Relation(CARRY, arity, carry)})
        produced: dict[tuple, tuple[int, tuple]] = {}
        for join in joins:
            assert join.rule_index is not None
            for child, parent in _child_parent_rows(view, join, CARRY,
                                                    stats, order):
                if child not in seen and child not in produced:
                    produced[child] = (join.rule_index, parent)
        carry = set(produced)
        seen |= carry
        for child, parent_record in produced.items():
            parents[child] = parent_record
        budget.check_stats(stats)
    return seen


def execute_plan_traced(
    plan: SeparablePlan,
    db: Database,
    seeds: Iterable[tuple],
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
) -> tuple[frozenset[tuple], Trace]:
    """Run a plan recording provenance; returns ``(seen_2, trace)``.

    Answers equal :func:`repro.core.evaluator.execute_plan`'s exactly;
    the extra cost is one parent record per derived tuple.
    """
    if stats is None:
        stats = EvaluationStats()
    trace = Trace(plan, {}, {}, {})
    seen_1 = _traced_loop(
        plan.down_joins, seeds, plan.seed_arity, db,
        trace.down_parent, stats, budget, order,
    )

    view = db.with_mounts({SEEN: Relation(SEEN, plan.seed_arity, seen_1)})
    for join in plan.exit_joins:
        assert join.rule_index is not None
        for child, parent in _child_parent_rows(view, join, SEEN, stats,
                                                order):
            trace.exit_parent.setdefault(child, (join.rule_index, parent))
    carry_2 = set(trace.exit_parent)

    seen_2 = _traced_loop(
        plan.up_joins, carry_2, plan.answer_arity, db,
        trace.up_parent, stats, budget, order,
    )
    return frozenset(seen_2), trace


def justify(trace: Trace, answer: tuple) -> Justification:
    """Reconstruct ``J(answer)`` from a trace.

    Walks the up-loop parent chain from the answer to a ``carry_2``
    seed, through that seed's exit record to a ``seen_1`` tuple, then
    down the down-loop chain to the selection seed.
    """
    answer = tuple(answer)
    if answer not in trace.up_parent:
        raise KeyError(f"{answer!r} is not an answer of this execution")

    # Up chain: walking parents visits rules in reverse application
    # order, which IS expansion order (the up loop builds the string
    # from t_0 outward, the expansion from the query inward).
    up_rules: list[int] = []
    current = answer
    while True:
        record = trace.up_parent[current]
        if record is None:
            break
        rule_index, parent = record
        up_rules.append(rule_index)
        current = parent

    exit_index, seen1_tuple = trace.exit_parent[current]

    # Down chain: walking parents visits rules deepest-first; expansion
    # order is the reverse.
    down_rules_reversed: list[int] = []
    current = seen1_tuple
    while True:
        record = trace.down_parent[current]
        if record is None:
            break
        rule_index, parent = record
        down_rules_reversed.append(rule_index)
        current = parent

    return Justification(
        answer=answer,
        seed=current,
        down_rules=tuple(reversed(down_rules_reversed)),
        exit_index=exit_index,
        up_rules=tuple(up_rules),
    )


def explain(
    program,
    db: Database,
    query,
    analysis=None,
    order: str = "greedy",
) -> dict[tuple, Justification]:
    """Answer a full selection and justify every answer.

    Returns ``{full-arity answer tuple: Justification}``.  Partial
    selections are out of scope here (their answers combine several
    plan executions); use :func:`repro.core.api.evaluate_separable` for
    those.
    """
    from .compiler import compile_selection
    from .detection import require_separable
    from .selections import classify_selection, require_full

    if analysis is None:
        analysis = require_separable(program, query.predicate)
    selection = require_full(classify_selection(analysis, query))
    plan = compile_selection(selection)
    answers, trace = execute_plan_traced(plan, db, [selection.seed],
                                         order=order)
    # justify() wants the up tuple a fact came from, so the facts are
    # assembled one at a time.
    assemble = plan.assembler()
    result: dict[tuple, Justification] = {}
    for up_tuple in answers:
        (full,) = assemble(selection.seed, (up_tuple,))
        if query.matches(full):
            result[full] = justify(trace, up_tuple)
    return result
