"""Semi-naive (delta) bottom-up evaluation, stratum by stratum.

This is the workhorse oracle of the package: every other strategy is
property-tested against it.  Evaluation proceeds over the strongly
connected components of the predicate dependency graph in bottom-up
order (:attr:`repro.datalog.programs.Program.evaluation_order`), so
predicates a recursion depends on are fully materialized before the
recursion itself runs -- exactly the paper's Section 2 assumption that
base predicates do not depend on ``t``.

Within an SCC the classic delta optimization applies: a rule can only
derive a new fact in round ``i`` if at least one of its recursive body
atoms matches a fact that was new in round ``i - 1``, so each rule is
evaluated once per recursive body occurrence with that occurrence
restricted to the previous delta.  Those delta variants are the join
terms of the Separable carry loop's generated function
(:meth:`~repro.datalog.plan_cache.PlanCache.loop_for`; ``carry`` is a
delta, ``seen`` a relation), which this module only drives.  Behind a
round zero of delta joins they are a view's write (:func:`seeded_terms`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from ..budget import Budget, UNLIMITED
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database
from .joins import evaluate_body_into
from .plan_cache import DELTA, EQ, PLAN_CACHE, RelationSink
from .programs import Program
from .rules import Rule

__all__ = ["seminaive_evaluate", "seminaive_stratum", "seeded_terms"]


class DeltaJoin(NamedTuple):
    """A rule body with one atom redirected to a delta: a join term of
    the stratum's generated loop.  ``flow`` is ``(a, h)``: the slot
    whose delta it reads (a member's, or one of :func:`seeded_terms`'
    round-zero slots after them) and the member whose facts it
    derives."""

    body: tuple[Atom, ...]
    output: tuple
    flow: tuple[int, int]

    def __str__(self) -> str:
        return "(%s) := %s" % (", ".join(map(str, self.output)),
                               " & ".join(map(str, self.body)))


@lru_cache(maxsize=1024)
def _stratum(rules: tuple[Rule, ...], scc: frozenset[str]) -> tuple:
    """``(members, terms, pseudo, names, labels, read)`` of one SCC,
    built once per ``(rules, scc)``: the members in name order; one
    :class:`DeltaJoin` per rule and body atom inside the SCC (a rule
    with none contributes nothing after round zero); what the bodies
    call the members' deltas (``DELTA + member``); what ``stats``
    records per member (its size, not its delta's) and the traced
    loop's labels (``PlanCache.loop_for``): a ``delta:`` series per
    member, the ``rule_apps:`` counter of every rule with a term beside
    its first term, the ``rule_out:`` counter of every term; the members
    some term reads in full beside a delta (a nonlinear or mutually
    recursive body)."""
    members = tuple(sorted(scc))
    terms, apps, outs, read = [], [], [], set()
    for ri, r in enumerate(rules):
        inside = [i for i, a in enumerate(r.body) if a.predicate in scc]
        if inside:
            apps.append((f"rule_apps:{r.head.predicate}#{ri}", len(terms)))
        for i in inside:
            a = r.body[i]
            terms.append(DeltaJoin(
                r.body[:i] + (Atom(DELTA + a.predicate, a.args),)
                + r.body[i + 1:], r.head.args,
                (members.index(a.predicate),
                 members.index(r.head.predicate))))
            outs.append(f"rule_out:{r.head.predicate}#{ri}")
        if len(inside) > 1:
            read.update(r.body[i].predicate for i in inside)
    labels = (tuple(["delta:" + p for p in members]), tuple(apps),
              tuple(outs), ())
    return (members, tuple(terms), tuple([DELTA + p for p in members]),
            tuple([(None, p) for p in members]), labels, frozenset(read))


#: What a rederive term calls the facts a delete removed from an SCC
#: member (``REMOVED + predicate``); never a parsed name, nor a delta's.
REMOVED = "∇"


def seeded_terms(rules: tuple[Rule, ...], scc: frozenset[str],
                 removed: bool) -> tuple:
    """``(members, terms, inputs, pseudo)`` of one SCC's write-path
    function (``PlanCache.loop_for`` with round-zero slots): the
    stratum's delta terms, then round zero's, reading the slots after
    the members' deltas in ``pseudo``, one per predicate of ``inputs``.

    Without ``removed`` the inputs are the predicates outside the SCC
    that its rules read, and round zero is their delta joins.  With
    ``removed`` they are the members, and round zero is one term per
    rule: ``REMOVED + head predicate`` matched against its head (head
    constants and repeated variables unify there) in front of its body,
    which derives the removed facts the database still derives.
    """
    members, terms, deltas, *_ = _stratum(rules, scc)
    terms = list(terms)
    if removed:
        inputs = members
        joins = [((Atom(REMOVED + r.head.predicate, r.head.args),) + r.body,
                  r.head.predicate, r) for r in rules]
    else:
        inputs = tuple(sorted({a.predicate for r in rules for a in r.body
                               if a.predicate not in scc | {EQ}}))
        joins = [(r.body[:i] + (Atom(DELTA + a.predicate, a.args),)
                  + r.body[i + 1:], a.predicate, r)
                 for r in rules for i, a in enumerate(r.body)
                 if a.predicate in inputs]
    for body, source, r in joins:
        terms.append(DeltaJoin(body, r.head.args, (
            len(members) + inputs.index(source),
            members.index(r.head.predicate))))
    prefix = REMOVED if removed else DELTA
    return (members, tuple(terms), inputs,
            deltas + tuple([prefix + p for p in inputs]))


def seminaive_stratum(
    rules: Iterable[Rule],
    scc: frozenset[str],
    db: Database,
    program: Program,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> None:
    """Run one SCC of mutually recursive predicates to fixpoint in ``db``.

    ``db`` must already contain every predicate the SCC depends on.
    Derived facts are added to ``db`` in place (one round's delta is
    held at a time, so the extent may live out of core).  A live
    ``tracer`` records one ``seminaive.scc`` span with a per-round
    ``delta:<p>`` series per member predicate (the sizes
    ``EvaluationStats`` cannot see) plus the initial/final relation
    sizes; without one, and without ``stats``, no relation is asked its
    size.
    """
    rules = tuple(rules)
    members, terms, pseudo, names, labels, read = _stratum(
        rules, frozenset(scc))
    rels = [db.ensure(p, program.arity(p)) for p in members]
    seen = [RelationSink(rel, len(rel) if stats is not None or p in read
                         else 0) for p, rel in zip(members, rels)]
    carry: list[set] = [set() for _ in members]

    def install(h: int, rows: set) -> None:
        fresh = rows - seen[h]
        seen[h] |= fresh
        carry[h] |= fresh

    # Only a traced run pays for the span's attributes and the rule
    # labels (they key the profiler's rule_apps/rule_out rows).
    attrs = {} if tracer is None else {
        "scc": list(members), "initial": {p: db.size(p) for p in members}}
    with span_of(tracer, "seminaive.scc", **attrs) as span:
        # Round 0 seeds the deltas: a full evaluation of every rule, each
        # installed before the next runs.
        if stats is not None:
            stats.bump_iterations()
        if tracer is not None:
            tracer.count("iterations")
        for ri, r in enumerate(rules):
            rows: set = set()
            made = evaluate_body_into(db, r.body, r.head.args, rows,
                                      stats=stats, order=order,
                                      tracer=tracer)
            install(members.index(r.head.predicate), rows)
            if tracer is not None:
                tracer.count(f"rule_apps:{r.head.predicate}#{ri}")
                if made:
                    tracer.count(f"rule_out:{r.head.predicate}#{ri}", made)
        if tracer is not None:
            for p, delta in zip(members, carry):
                tracer.record(f"delta:{p}", len(delta))
        if stats is not None:  # round 0's end: the loop checks the rest
            budget.check_wall(stats)
            for p, member in zip(members, seen):
                stats.record_relation(p, len(member))
                budget.check_relation(p, len(member), stats)
            budget.check_stats(stats)
        # Then the delta rounds, one generated function while the plans
        # hold (bound once per loop and plans, its probes taken anew on
        # another database's relations), each a round of the carry
        # loop's, checked at its end.
        carry = tuple(carry)
        while any(carry):
            run, _ = PLAN_CACHE.loop_for(terms, pseudo, carry, seen, order,
                                         db, tracer)
            carry = run(carry, seen, names, labels, stats, budget, tracer)
        if span is not None:
            span.attrs["final"] = {p: db.size(p) for p in members}


def seminaive_evaluate(
    program: Program,
    edb: Database,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> Database:
    """Materialize every IDB predicate of ``program`` over ``edb``.

    Returns a new database holding ``edb``'s relations themselves (the
    indexes the joins build stay with them; a durable file's are copied,
    as ``Engine`` does) and the least-fixpoint extent of each IDB
    predicate, in relations of its own.
    """
    if stats is None:
        stats = EvaluationStats()
    idb = program.idb_predicates
    db = edb.copy() if edb.shares_storage else edb._remounted(
        edb._backend, lambda _, name, rel: rel.copy() if name in idb else rel)
    for scc in program.evaluation_order:
        scc_rules = [
            r for r in program.rules if r.head.predicate in scc
        ]
        seminaive_stratum(scc_rules, scc, db, program, stats=stats,
                          budget=budget, order=order, tracer=tracer)
    # Predicates with no rules at all (possible after restriction) still
    # need empty relations so queries read as empty rather than missing.
    for predicate in program.idb_predicates:
        db.ensure(predicate, program.arity(predicate))
    return db
