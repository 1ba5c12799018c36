"""Naive bottom-up evaluation: re-derive everything until fixpoint.

The textbook baseline.  Every round evaluates every rule against the
whole database and the round count is bounded by the number of derivable
facts, so naive evaluation is polynomial but wasteful -- each fact is
rederived on every later round.  It exists here as the simplest possible
oracle for the other evaluators and as the bottom rung of benchmark E8.
"""

from __future__ import annotations

from typing import Optional

from ..budget import Budget, UNLIMITED
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .database import Database
from .joins import evaluate_body_project
from .programs import Program

__all__ = ["naive_evaluate"]


def naive_evaluate(
    program: Program,
    edb: Database,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> Database:
    """Materialize every IDB predicate of ``program`` over ``edb``.

    Returns a new database containing the EDB relations plus one relation
    per IDB predicate holding its least-fixpoint extent.  ``edb`` itself
    is not modified.
    """
    if stats is None:
        stats = EvaluationStats()
    db = edb.copy()
    for predicate in program.idb_predicates:
        db.ensure(predicate, program.arity(predicate))

    with span_of(tracer, "naive.fixpoint"):
        changed = True
        while changed:
            budget.check_wall(stats)
            changed = False
            new_facts = 0
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            for ri, r in enumerate(program.rules):
                target = db.ensure(r.head.predicate, r.head.arity)
                produced_r = 0
                for fact in evaluate_body_project(db, r.body, r.head.args,
                                                  stats=stats, order=order,
                                                  tracer=tracer):
                    produced_r += 1
                    stats.bump_produced()
                    if target.add(fact):
                        changed = True
                        new_facts += 1
                if tracer is not None:
                    tracer.count(f"rule_apps:{r.head.predicate}#{ri}")
                    if produced_r:
                        tracer.count(
                            f"rule_out:{r.head.predicate}#{ri}", produced_r
                        )
            if tracer is not None:
                tracer.record("new_facts", new_facts)
            for predicate in program.idb_predicates:
                stats.record_relation(predicate, db.size(predicate))
                budget.check_relation(predicate, db.size(predicate), stats)
            budget.check_stats(stats)
    return db
