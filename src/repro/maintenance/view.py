"""A materialized IDB kept consistent under base-relation deltas.

:class:`MaintainedView` owns a database holding the EDB plus the least
fixpoint of every IDB predicate, and nothing per derivation.
:meth:`MaintainedView.apply` repairs it under a net batch of base
inserts and deletes in three phases.  Each phase of each SCC is one
generated function, the maintenance flavour of
:meth:`~repro.datalog.plan_cache.PlanCache.loop_for`: its round zero
joins what changed -- plain sets, passed in -- with the database, and
the rounds after it are the SCC's semi-naive fixpoint.

Deletions (DRed, delete-and-rederive)
    *Overestimate* the damage bottom-up per SCC: a derived fact joins
    the overestimate ``D`` as soon as *one* derivation uses a deleted or
    overestimated tuple.  Round zero is the delta joins with the base
    deletes and the lower SCCs' overestimates, and every join runs
    against the untouched original database (so derivations using two
    deleted tuples are still seen); ``D`` grows as plain sets.  Remove
    the base deletes and all of ``D``, then *rederive* bottom-up per
    SCC: round zero matches the removed facts against the head of each
    rule for their predicate -- head constants and repeated head
    variables unify there -- and joins the body behind the match, which
    puts back every removed fact that still has a derivation; the
    rounds after it propagate from those.  Survivors on a cycle come
    back exactly when they keep outside support.

Insertions (delta-seeded *restart*)
    Install the base inserts, then per SCC run round zero on the base
    inserts and the lower SCCs' additions, and semi-naive rounds from
    what it installs: the database is already a fixpoint except for
    their consequences.

A function is generated on its SCC's first write of that phase, and
the plan cache keeps the last few bound to the view's database.  A
write plans anew only when it fits none of them: some size -- of what
changed, of a member, of any relation the joins read -- is outside the
interval its plans were chosen for (a relation found empty has filled,
say), or an index it probes was dropped.  No join in this module runs
per fact and nothing is mounted.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..budget import UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database, Fact
from ..datalog.plan_cache import PLAN_CACHE, RelationSink
from ..datalog.programs import Program
from ..datalog.seminaive import seeded_terms, seminaive_evaluate
from ..datalog.terms import Constant
from ..observability.tracer import span_of
from ..stats import EvaluationStats

__all__ = ["MaintainedView"]

Delta = Mapping[str, tuple[frozenset, frozenset]]


def _report(tracer, stats: Optional[EvaluationStats], facts_in: int,
            facts_out: int) -> None:
    """File a phase's rounds and fact counts under its open span."""
    if tracer is not None:
        tracer.count("rounds", stats.iterations if stats else 0)
        tracer.count("facts_in", facts_in)
        tracer.count("facts_out", facts_out)


class MaintainedView:
    """A materialized IDB, maintained under base deltas by DRed."""

    def __init__(self, program: Program, edb: Database,
                 order: str = "greedy") -> None:
        self.program = program
        self.order = order
        self.idb = program.idb_predicates
        self._scc_rules = [
            (scc, tuple(r for r in program.rules if r.head.predicate in scc))
            for scc in program.evaluation_order
        ]
        self.rebuild(edb)

    # -- construction ------------------------------------------------------

    def rebuild(self, edb: Database) -> None:
        """Recompute the view from scratch (the overflow fallback)."""
        self.db = seminaive_evaluate(self.program, edb, order=self.order)
        #: (SCC number, phase) -> (members, terms, inputs, pseudo): its
        #: join terms (:func:`~repro.datalog.seminaive.seeded_terms`).
        self._paths: dict[tuple[int, str], tuple] = {}

    def select(self, query: Atom, tracer=None) -> frozenset[Fact]:
        """The answers of ``query`` on a derived predicate, read off its
        extent.

        The view holds the whole least fixpoint ``t``, so any selection
        -- full (Definition 2.7), partial, all-free, on a separable
        recursion or not -- is ``σ(t)``: one lookup on the relation's
        lazy index over the positions of the query's constants (built
        by the first read of that binding pattern, patched by every
        write after it; a live ``tracer`` sees the one ``index_builds``).
        """
        self.program.check_arity(query)
        positions = tuple(p for p, t in enumerate(query.args)
                          if isinstance(t, Constant))
        facts = self.db.relation(query.predicate).lookup(
            positions, tuple(query.args[p].value for p in positions), tracer)
        if query.has_repeated_variables():
            return frozenset(f for f in facts if query.matches(f))
        return frozenset(facts)

    # -- the generated functions -------------------------------------------

    def _fixpoint(self, k: int, phase: str, inputs: Mapping[str, set],
                  stats, over: Optional[dict] = None) -> dict[str, set]:
        """Run SCC ``k``'s function for ``phase`` to its fixpoint, round
        zero reading ``inputs`` (predicate -> facts).

        The overestimate puts what it derives in ``over`` and leaves the
        database alone; rederive and restart install it in the member
        relations and return it per member.
        """
        path = self._paths.get((k, phase))
        if path is None:
            scc, rules = self._scc_rules[k]
            path = self._paths[k, phase] = seeded_terms(
                rules, scc, phase == "rederive")
        members, terms, names, pseudo = path
        carry = (*[()] * len(members), *[inputs.get(p, ()) for p in names])
        if not any(carry):
            return {}
        added: dict[str, set] = {}
        if over is not None:
            seen = [over[p] for p in members]
        else:
            seen = [RelationSink(rel, len(rel),
                                 added.setdefault(p, set()).update)
                    for p, rel in zip(members, map(self.db.relation, members))]
        while any(carry):
            # After RelationSink, which may drop indexes a probe holds.
            run, _ = PLAN_CACHE.loop_for(terms, pseudo, carry, seen,
                                         self.order, self.db)
            # Returns early, carry left over, when a size leaves its
            # interval.
            carry = run(carry, seen, [(None, p) for p in members], (), stats,
                        UNLIMITED, None)
        return added

    # -- maintenance -------------------------------------------------------

    def apply(self, deltas: Delta,
              tracer=None) -> dict[str, tuple[frozenset, frozenset]]:
        """Apply net base deltas; returns net IDB changes per predicate.

        ``deltas`` maps base relation names to ``(inserted, deleted)``
        fact sets, as produced by
        :meth:`repro.maintenance.capture.DeltaCapture.net`.  Deltas
        naming an IDB predicate are rejected -- derived relations are
        owned by the view.  A live ``tracer`` gets one span per phase
        that runs -- ``view.overestimate`` and ``view.rederive`` for
        the deletions, ``view.restart`` for the insertions -- each
        counting its fixpoint ``rounds`` (round zero included) and its
        ``facts_in`` / ``facts_out``; the functions inside stay
        untraced.
        """
        eff_ins: dict[str, set[Fact]] = {}
        eff_dels: dict[str, set[Fact]] = {}
        for name, (ins, dels) in deltas.items():
            if name in self.idb:
                raise ValueError(
                    f"delta for derived predicate {name!r}; incremental "
                    f"maintenance only accepts base-relation deltas"
                )
            rel = self.db.relation(name)
            present = {tuple(f) for f in dels
                       if rel is not None and tuple(f) in rel}
            absent = {tuple(f) for f in ins
                      if rel is None or tuple(f) not in rel}
            if present:
                eff_dels[name] = present
            if absent:
                eff_ins[name] = absent

        if not (eff_ins or eff_dels):
            return {}

        # Per IDB fact we ever add or remove: was it present at entry?
        # Comparing against presence at exit yields the net IDB delta.
        touched: dict[str, dict[Fact, bool]] = {p: {} for p in self.idb}
        if eff_dels:
            self._apply_deletions(eff_dels, touched, tracer)
        if eff_ins:
            self._apply_insertions(eff_ins, touched, tracer)

        result: dict[str, tuple[frozenset, frozenset]] = {}
        for pred, entry in touched.items():
            rel = self.db.relation(pred)
            added = {f for f, was in entry.items() if not was and f in rel}
            removed = {f for f, was in entry.items()
                       if was and f not in rel}
            if added or removed:
                result[pred] = (frozenset(added), frozenset(removed))
        return result

    def _apply_deletions(self, dels: Mapping[str, set[Fact]],
                         touched: dict[str, dict[Fact, bool]],
                         tracer) -> None:
        # The overestimate of each SCC is round zero's input of the SCCs
        # above it, beside the base deletes.
        over: dict[str, set[Fact]] = {p: set() for p in self.idb}
        visible: dict[str, set[Fact]] = {**dels, **over}
        with span_of(tracer, "view.overestimate"):
            stats = tracer and EvaluationStats()
            for k in range(len(self._scc_rules)):
                self._fixpoint(k, "overestimate", visible, stats, over)
            removed = sum(map(len, over.values()))
            _report(tracer, stats, sum(map(len, dels.values())), removed)

        with span_of(tracer, "view.rederive"):
            # Remove the base deletes and the whole overestimate.
            for name, facts in dels.items():
                self.db.relation(name).discard_all(facts)
            for pred, facts in over.items():
                if self.db.relation(pred).discard_all(facts) != len(facts):
                    # Every overestimated fact is a rule head over the
                    # old database, so only a view that was no fixpoint
                    # derives one it does not hold (the service rebuilds).
                    raise RuntimeError(f"the view of {pred!r} is not a "
                                       f"fixpoint of its rules")
                touched[pred].update(dict.fromkeys(facts, True))

            # Put back, bottom-up per SCC, the removed facts that still
            # have a derivation, and what follows from them -- a delta
            # round per step of the cascade, not a sweep over every
            # removed fact per step.
            stats, back_in = tracer and EvaluationStats(), 0
            for k in range(len(self._scc_rules)):
                added = self._fixpoint(k, "rederive", over, stats)
                back_in += sum(map(len, added.values()))
            _report(tracer, stats, removed, back_in)

    def _apply_insertions(
        self, ins: Mapping[str, set[Fact]],
        touched: dict[str, dict[Fact, bool]], tracer,
    ) -> None:
        """Install base inserts and propagate them."""
        with span_of(tracer, "view.restart"):
            stats = tracer and EvaluationStats()
            for name, facts in ins.items():
                self.db.ensure(name, len(next(iter(facts)))).add_all(facts)
            changed: dict[str, set[Fact]] = {
                n: set(f) for n, f in ins.items()}
            for k in range(len(self._scc_rules)):
                added = self._fixpoint(k, "restart", changed, stats)
                for pred, facts in added.items():
                    changed.setdefault(pred, set()).update(facts)
                    touched[pred].update(dict.fromkeys(
                        facts - touched[pred].keys(), False))
            _report(tracer, stats, sum(map(len, ins.values())),
                    sum(len(f) for n, f in changed.items() if n not in ins))
