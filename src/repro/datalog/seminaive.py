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
terms of one generated function per stratum
(:meth:`~repro.datalog.plan_cache.PlanCache.loop_for`, the semi-naive
flavour of the Separable carry loop: ``carry`` is the delta,
``seen`` the relation itself), which this module only drives.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ..budget import Budget, UNLIMITED
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database
from .joins import evaluate_body_into
from .plan_cache import DELTA, PLAN_CACHE, relation_sink
from .programs import Program
from .rules import Rule

__all__ = ["seminaive_evaluate", "seminaive_stratum", "delta_rounds"]


class DeltaJoin(NamedTuple):
    """A rule body with one SCC-internal atom redirected to its delta: a
    join term of the stratum's generated loop.  ``flow`` is ``(a, h)``,
    the members (by number) whose delta it reads and whose facts it
    derives."""

    body: tuple[Atom, ...]
    output: tuple
    flow: tuple[int, int]

    def __str__(self) -> str:
        return "(%s) := %s" % (", ".join(map(str, self.output)),
                               " & ".join(map(str, self.body)))


@lru_cache(maxsize=1024)
def _stratum(rules: tuple[Rule, ...], scc: frozenset[str]) -> tuple:
    """``(members, terms, apps, outs, read)`` of one SCC, built once per
    ``(rules, scc)``: the members in name order; one :class:`DeltaJoin`
    per rule and body atom inside the SCC (a rule with none contributes
    nothing after round zero); the ``rule_apps:`` counter of every rule
    with a term and the ``rule_out:`` counter of every term; the members
    some term reads in full beside a delta (a nonlinear or mutually
    recursive body)."""
    members = tuple(sorted(scc))
    terms, apps, outs, read = [], [], [], set()
    for ri, r in enumerate(rules):
        inside = [i for i, a in enumerate(r.body) if a.predicate in scc]
        for i in inside:
            a = r.body[i]
            terms.append(DeltaJoin(
                r.body[:i] + (Atom(DELTA + a.predicate, a.args),)
                + r.body[i + 1:], r.head.args,
                (members.index(a.predicate),
                 members.index(r.head.predicate))))
            outs.append(f"rule_out:{r.head.predicate}#{ri}")
        if inside:
            apps.append(f"rule_apps:{r.head.predicate}#{ri}")
        if len(inside) > 1:
            read.update(r.body[i].predicate for i in inside)
    return members, tuple(terms), tuple(apps), tuple(outs), frozenset(read)


def delta_rounds(
    rules: Iterable[Rule], scc: frozenset[str], db: Database,
    carry: Sequence[set], seen: Sequence[tuple], sizes: Sequence[int] = (),
    stats: Optional[EvaluationStats] = None, budget: Budget = UNLIMITED,
    order: str = "greedy", tracer=None,
) -> tuple:
    """Propagate the deltas ``carry`` (one set per member of ``scc``, in
    name order) through the delta variants of ``rules`` until a round
    derives nothing new; returns the members' final ``sizes``.

    ``seen[h] = (new, add)``: ``new(rows)`` is the set of ``rows`` member
    ``h`` has not derived yet and ``add`` installs it.  Given ``sizes``,
    the pairs write the member relations of ``db``
    (:func:`~repro.datalog.plan_cache.relation_sink`), whose sizes these
    are; given none, ``db`` is only read and what is derived lives where
    the pairs put it -- DRed's overestimate grows plain sets over the
    untouched database.
    """
    members, terms, apps, outs, _ = _stratum(tuple(rules), scc)
    grows = bool(sizes)
    carry, sizes = tuple(carry), tuple(sizes) or (0,) * len(members)
    while any(carry):
        run = PLAN_CACHE.loop_for(terms, members, carry, order, db, tracer,
                                  grows)
        carry, sizes = run(carry, seen, sizes, members, apps, outs, stats,
                           budget, tracer)
    return sizes


def seminaive_stratum(
    rules: Iterable[Rule],
    scc: frozenset[str],
    db: Database,
    program: Program,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
    initial_deltas: Optional[Mapping[str, Iterable]] = None,
) -> Optional[dict[str, set]]:
    """Run one SCC of mutually recursive predicates to fixpoint in ``db``.

    ``db`` must already contain every predicate the SCC depends on.
    Derived facts are added to ``db`` in place.  A live ``tracer``
    records one ``seminaive.scc`` span with a per-round ``delta:<p>``
    series per member predicate (the sizes ``EvaluationStats`` cannot
    see) plus the initial/final relation sizes; without one, and
    without ``stats``, no relation is asked its size.

    ``initial_deltas`` restarts the fixpoint from an explicit seed
    instead of the usual round-0 full evaluation: ``{predicate: facts}``
    for SCC members.  The seeds are installed (new ones become round
    0's delta) and propagation proceeds with delta variants only.  The
    caller must guarantee ``db`` is already a fixpoint of the SCC
    *except for* consequences of the seeds -- this is the delta-seeded
    restart incremental insert maintenance runs after a base mutation.
    Only this mode returns something: the facts the restart added, per
    member predicate (a full evaluation returns ``None`` and holds one
    round's delta at a time, so the extent may live out of core).
    """
    rules = tuple(rules)
    scc = frozenset(scc)
    members, _, _, _, read = _stratum(rules, scc)
    rels = [db.ensure(p, program.arity(p)) for p in members]
    seen = [relation_sink(rel) for rel in rels]
    carry: list[set] = [set() for _ in members]
    added = None
    if initial_deltas is not None:  # a restart says what it installed
        added = [set() for _ in members]
        seen = [(new, lambda fresh, add=add, also=also.update:
                 (add(fresh), also(fresh)))
                for (new, add), also in zip(seen, added)]

    def install(h: int, rows: set) -> None:
        new, add = seen[h]
        fresh = new(rows)
        if fresh:
            add(fresh)
            carry[h] |= fresh

    # Only a traced run pays for the span's attributes and the rule
    # labels (they key the profiler's rule_apps/rule_out rows).
    attrs = {} if tracer is None else {
        "scc": list(members), "initial": {p: db.size(p) for p in members}}
    with span_of(tracer, "seminaive.scc", **attrs) as span:
        # Round 0 seeds the deltas: the given ones, or a full
        # evaluation of every rule, each installed before the next runs.
        if stats is not None:
            stats.bump_iterations()
        if tracer is not None:
            tracer.count("iterations")
        if initial_deltas is not None:
            for p, facts in initial_deltas.items():
                if p not in scc:
                    raise ValueError(
                        f"initial delta for {p!r} is not a member of "
                        f"this SCC"
                    )
                install(members.index(p), set(map(tuple, facts)))
        else:
            for ri, r in enumerate(rules):
                rows: set = set()
                made = evaluate_body_into(db, r.body, r.head.args, rows,
                                          stats=stats, order=order,
                                          tracer=tracer)
                install(members.index(r.head.predicate), rows)
                if tracer is not None:
                    tracer.count(f"rule_apps:{r.head.predicate}#{ri}")
                    if made:
                        tracer.count(f"rule_out:{r.head.predicate}#{ri}",
                                     made)
        if tracer is not None:
            for p, delta in zip(members, carry):
                tracer.record(f"delta:{p}", len(delta))
        sizes = delta_rounds(
            rules, scc, db, carry, seen,
            [len(rel) if stats is not None or p in read else 0
             for p, rel in zip(members, rels)],
            stats, budget, order, tracer)
        if stats is not None:
            for p, n in zip(members, sizes):
                stats.record_relation(p, n)
                budget.check_relation(p, n, stats)
            budget.check_stats(stats)
        if span is not None:
            span.attrs["final"] = {p: db.size(p) for p in members}
    return None if added is None else dict(zip(members, added))


def seminaive_evaluate(
    program: Program,
    edb: Database,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> Database:
    """Materialize every IDB predicate of ``program`` over ``edb``.

    Returns a new database with the EDB relations plus the least-fixpoint
    extent of each IDB predicate; ``edb`` is not modified.
    """
    if stats is None:
        stats = EvaluationStats()
    db = edb.copy()
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
