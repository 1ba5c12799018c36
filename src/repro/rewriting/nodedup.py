"""Ablation: the Separable schema *without* the seen-difference dedup.

Lines 5 and 12 of Figure 2 (``carry := carry - seen``) are what make
the Separable algorithm terminate on cyclic data (Lemma 3.4) and touch
each tuple at most once.  This evaluator runs the same compiled plan
with those lines removed, in the spirit of iterative algorithms like
Henschen-Naqvi [HN84] that track levels without global duplicate
elimination -- and, like them, it fails on cyclic data.

Behaviour:

* on acyclic data it returns the same answers as the real evaluator,
  but ``tuples_produced`` grows with the number of distinct derivation
  paths rather than distinct tuples (quantified in benchmark E8);
* on cyclic data the carry sequence revisits a previous state, which is
  detected and surfaced as
  :class:`~repro.datalog.errors.CyclicDataError` (the paper: "the
  general Henschen and Naqvi algorithm fails for cyclic data").
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..budget import Budget, UNLIMITED
from ..core.plan import CARRY, SEEN, SeparablePlan
from ..datalog.database import Database, Relation
from ..datalog.errors import CyclicDataError
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from ..core.evaluator import _apply_joins

__all__ = ["execute_plan_nodedup"]


def _carry_loop_nodedup(
    joins,
    initial: set[tuple],
    arity: int,
    db: Database,
    carry_name: str,
    seen_name: str,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
) -> set[tuple]:
    """A Figure 2 loop with lines 5/12 removed (no set difference).

    Terminates when the carry empties (acyclic data) or raises
    :class:`CyclicDataError` when a carry state repeats.  Traced under
    ``nodedup.loop`` -- deliberately *not* ``separable.loop``, since
    without the set difference the carries are not disjoint and the
    Lemma 3.4 carry invariants do not hold for this ablation.
    """
    seen: set[tuple] = set(initial)
    carry: set[tuple] = set(initial)
    visited_states: set[frozenset[tuple]] = {frozenset(carry)}
    stats.record_relation(carry_name, len(carry))
    stats.record_relation(seen_name, len(seen))
    with span_of(tracer, "nodedup.loop", relation=seen_name,
                 seed=len(initial)):
        while carry:
            budget.check_wall(stats)
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            view = db.with_mounts({CARRY: Relation(CARRY, arity, carry)})
            carry = _apply_joins(joins, view, stats, order, tracer,
                                 label=seen_name)
            seen |= carry
            if tracer is not None:
                tracer.record("carry", len(carry))
            stats.record_relation(carry_name, len(carry))
            stats.record_relation(seen_name, len(seen))
            budget.check_relation(seen_name, len(seen), stats)
            budget.check_stats(stats)
            state = frozenset(carry)
            if carry and state in visited_states:
                raise CyclicDataError(
                    f"carry state of {carry_name} repeated without the "
                    f"seen-difference; the data is cyclic and the "
                    f"no-dedup iteration diverges",
                    stats=stats,
                )
            visited_states.add(state)
    return seen


def execute_plan_nodedup(
    plan: SeparablePlan,
    db: Database,
    seeds: Iterable[tuple],
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> frozenset[tuple]:
    """Run a compiled Separable plan without duplicate elimination."""
    if stats is None:
        stats = EvaluationStats()
    if not stats.strategy:
        stats.strategy = "nodedup"
    seed_set = {tuple(s) for s in seeds}
    seen_1 = _carry_loop_nodedup(
        plan.down_joins, seed_set, plan.seed_arity, db,
        "carry_1", "seen_1", stats, budget, order, tracer,
    )
    view = db.with_mounts({SEEN: Relation(SEEN, plan.seed_arity, seen_1)})
    carry_2 = _apply_joins(plan.exit_joins, view, stats, order, tracer)
    seen_2 = _carry_loop_nodedup(
        plan.up_joins, carry_2, plan.answer_arity, db,
        "carry_2", "seen_2", stats, budget, order, tracer,
    )
    stats.record_relation("ans", len(seen_2))
    return frozenset(seen_2)
