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
restricted to the previous delta.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..budget import Budget, UNLIMITED
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database, Relation
from .joins import evaluate_body_project
from .programs import Program
from .rules import Rule

__all__ = ["seminaive_evaluate", "seminaive_stratum"]

_DELTA_PREFIX = "Δ"  # Δp never collides with parsed predicate names


def _delta_variants(r: Rule, scc: frozenset[str]) -> list[tuple[Atom, ...]]:
    """Bodies of ``r`` with one SCC-internal atom redirected to its delta.

    For a rule with ``k`` body atoms inside the SCC there are ``k``
    variants; a rule with none (possible when the SCC has several
    predicates) has no variants and contributes nothing after round one.
    """
    variants: list[tuple[Atom, ...]] = []
    for i, a in enumerate(r.body):
        if a.predicate in scc:
            redirected = Atom(_DELTA_PREFIX + a.predicate, a.args)
            variants.append(r.body[:i] + (redirected,) + r.body[i + 1:])
    return variants


def _install(rows: Iterable[tuple], target: Relation, delta: set,
             stats: Optional[EvaluationStats]) -> int:
    """Add one rule evaluation's output to ``target`` and what was new
    of it to ``delta``, set-at-a-time: one membership pass and one
    ``add_all`` (one index patch), not one ``add`` per fact.  Returns
    the number of rows produced, duplicates included."""
    rows = list(rows)
    if stats is not None:
        stats.bump_produced(len(rows))
    fresh = {f for f in rows if f not in target}
    target.add_all(fresh)
    delta |= fresh
    return len(rows)


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
    see) plus the initial/final relation sizes.

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
    rules = list(rules)
    for p in scc:
        db.ensure(p, program.arity(p))

    # Per-rule labels for the profiler's rule rows; only paid when
    # traced (the labels also key the rule_apps/rule_out counters).
    labels = (
        [f"{r.head.predicate}#{i}" for i, r in enumerate(rules)]
        if tracer is not None
        else None
    )

    with span_of(
        tracer, "seminaive.scc", scc=sorted(scc),
        initial={p: db.size(p) for p in sorted(scc)},
    ) as span:
        # Round 0: full evaluation of every rule (seeds the deltas).
        # New facts accumulate in plain sets and are installed into the
        # delta relations in one bulk add_all per predicate per round.
        delta_sets: dict[str, set] = {p: set() for p in scc}
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
                target = db.relation(p)
                assert target is not None
                fresh = {f for f in map(tuple, facts) if f not in target}
                target.add_all(fresh)
                delta_sets[p] |= fresh
        for ri, r in enumerate(rules if initial_deltas is None else ()):
            target = db.relation(r.head.predicate)
            assert target is not None
            produced_r = _install(
                evaluate_body_project(db, r.body, r.head.args, stats=stats,
                                      order=order, tracer=tracer),
                target, delta_sets[r.head.predicate], stats)
            if tracer is not None:
                tracer.count(f"rule_apps:{labels[ri]}")
                if produced_r:
                    tracer.count(f"rule_out:{labels[ri]}", produced_r)
        deltas: dict[str, Relation] = {
            p: Relation(p, program.arity(p), delta_sets[p]) for p in scc
        }
        # The relations copied round 0's sets; a seeded restart goes on
        # to collect every later round's delta in them.
        added = delta_sets if initial_deltas is not None else None
        if tracer is not None:
            for p in sorted(scc):
                tracer.record(f"delta:{p}", len(deltas[p]))

        variant_cache = {id(r): _delta_variants(r, scc) for r in rules}

        while any(deltas[p] for p in scc):
            budget.check_wall(stats)
            if stats is not None:
                for p in scc:
                    stats.record_relation(p, db.size(p))
                    budget.check_relation(p, db.size(p), stats)
                budget.check_stats(stats)
                stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            view = db.with_mounts(
                {_DELTA_PREFIX + p: rel for p, rel in deltas.items()})
            new_deltas: dict[str, set] = {p: set() for p in scc}
            for ri, r in enumerate(rules):
                target = db.relation(r.head.predicate)
                assert target is not None
                produced_r = 0
                for body in variant_cache[id(r)]:
                    produced_r += _install(
                        evaluate_body_project(
                            view, body, r.head.args, stats=stats,
                            order=order, tracer=tracer),
                        target, new_deltas[r.head.predicate], stats)
                if tracer is not None and variant_cache[id(r)]:
                    tracer.count(f"rule_apps:{labels[ri]}")
                    if produced_r:
                        tracer.count(f"rule_out:{labels[ri]}", produced_r)
            deltas = {p: Relation(p, program.arity(p), new_deltas[p])
                      for p in scc}
            if added is not None:
                for p in scc:
                    added[p] |= new_deltas[p]
            if tracer is not None:
                for p in sorted(scc):
                    tracer.record(f"delta:{p}", len(deltas[p]))

        if stats is not None:
            for p in scc:
                stats.record_relation(p, db.size(p))
                budget.check_relation(p, db.size(p), stats)
            budget.check_stats(stats)
        if span is not None:
            span.attrs["final"] = {p: db.size(p) for p in sorted(scc)}
    return added


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
