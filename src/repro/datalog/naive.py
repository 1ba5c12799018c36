"""Naive bottom-up evaluation: re-derive everything until fixpoint.

The textbook baseline: iterate the immediate-consequence operator T_P
from the EDB until nothing changes.  Every round evaluates every rule,
set-at-a-time, against the whole database as the round found it, then
installs what they derived, so round k holds exactly T_P^k(EDB) and the
round count is T_P's -- bounded by the number of derivable facts.
Polynomial but wasteful: each fact is rederived on every later round.
It exists here as the simplest possible oracle for the other
evaluators and as the bottom rung of benchmark E8.
"""

from __future__ import annotations

from typing import Optional

from ..budget import Budget, UNLIMITED
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .database import Database
from .joins import evaluate_body_into
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
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            # One application of T_P: every rule reads the database as
            # the round found it; what they derive is installed after.
            derived = []
            for ri, r in enumerate(program.rules):
                rows: set[tuple] = set()
                produced = evaluate_body_into(db, r.body, r.head.args, rows,
                                              stats=stats, order=order,
                                              tracer=tracer)
                derived.append((r.head, rows))
                if tracer is not None:
                    tracer.count(f"rule_apps:{r.head.predicate}#{ri}")
                    if produced:
                        tracer.count(
                            f"rule_out:{r.head.predicate}#{ri}", produced
                        )
            new_facts = sum(db.ensure(head.predicate, head.arity).add_all(rows)
                            for head, rows in derived)
            changed = new_facts > 0
            if tracer is not None:
                tracer.record("new_facts", new_facts)
            for predicate in program.idb_predicates:
                stats.record_relation(predicate, db.size(predicate))
                budget.check_relation(predicate, db.size(predicate), stats)
            budget.check_stats(stats)
    return db
