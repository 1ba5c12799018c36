"""A materialized IDB kept consistent under base-relation deltas.

:class:`MaintainedView` owns a database holding the EDB plus the least
fixpoint of every IDB predicate, and nothing per derivation.
:meth:`MaintainedView.apply` repairs it under a net batch of base
inserts and deletes in two phases:

Deletions (DRed, delete-and-rederive)
    Overestimate the damage bottom-up per SCC: a derived fact joins the
    overestimate ``D`` as soon as *one* derivation uses a deleted or
    overestimated tuple, with every delta join running against the
    untouched original database (so derivations using two deleted
    tuples are still seen).  Remove the base deletes and all of ``D``,
    then rederive bottom-up per SCC: one *candidate join* per rule --
    the rule body behind ``Δ̂?p(<head args>)``, the removed ``p`` facts
    mounted as a relation -- finds every removed fact that still has a
    derivation in the current database, and the delta-seeded restart
    below propagates from those.  Survivors on a cycle come back
    exactly when they keep outside support.

Insertions (delta-seeded restart)
    Install the base inserts, then per SCC seed the semi-naive fixpoint
    with the heads of delta joins against the changed lower predicates
    and restart it via ``seminaive_stratum(..., initial_deltas=...)``
    -- round zero's full evaluation is skipped because the database is
    already a fixpoint except for those seeds.

No join in this module runs per fact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Optional

from ..datalog.atoms import Atom
from ..datalog.database import Database, Fact, Relation
from ..datalog.joins import evaluate_body_into
from ..datalog.programs import Program
from ..datalog.rules import Rule
from ..datalog.seminaive import (
    delta_rounds, seminaive_evaluate, seminaive_stratum)
from ..datalog.terms import Constant
from ..observability.tracer import span_of
from ..stats import EvaluationStats

__all__ = ["MaintainedView"]

#: Delta relations mounted for maintenance joins; the hat distinguishes
#: them from the semi-naive evaluator's own "Δ" views.
_DELTA_PREFIX = "Δ̂"

#: Candidate facts mounted as ``Δ̂?p(<head args>)`` in front of a rule
#: body: the join then *is* the unification of the rule head with each
#: candidate -- head constants and repeated head variables included --
#: so one join per rule stands in for one head-bound body evaluation
#: per (fact, rule).
_CANDIDATE_PREFIX = _DELTA_PREFIX + "?"

Delta = Mapping[str, tuple[frozenset, frozenset]]


def _mounted(db: Database, prefix: str,
             facts: Mapping[str, set[Fact]]) -> Database:
    """``db`` with each non-empty fact set mounted beside its relations
    as relation ``prefix + predicate``, for the joins that read it."""
    return db.with_mounts({
        prefix + pred: Relation(prefix + pred, len(next(iter(tuples))), tuples)
        for pred, tuples in facts.items() if tuples})


@lru_cache(maxsize=4096)
def _delta_body(rule: Rule, i: int) -> tuple[Atom, ...]:
    """``rule.body`` with its ``i``-th atom reading the mounted delta."""
    a = rule.body[i]
    return (rule.body[:i] + (Atom(_DELTA_PREFIX + a.predicate, a.args),)
            + rule.body[i + 1:])


@lru_cache(maxsize=4096)
def _candidate_body(rule: Rule) -> tuple[Atom, ...]:
    """``rule.body`` behind the candidate atom of its head predicate."""
    head = rule.head
    return (Atom(_CANDIDATE_PREFIX + head.predicate, head.args),) + rule.body


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
            (scc, [r for r in program.rules if r.head.predicate in scc])
            for scc in program.evaluation_order
        ]
        self.rebuild(edb)

    # -- construction ------------------------------------------------------

    def rebuild(self, edb: Database) -> None:
        """Recompute the view from scratch (the overflow fallback)."""
        self.db = seminaive_evaluate(self.program, edb, order=self.order)

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

    # -- maintenance joins -------------------------------------------------

    def _delta_join_heads(self, rules: Iterable[Rule],
                          changed: Mapping[str, set]) -> dict[str, set[Fact]]:
        """Rule heads derivable with one body atom restricted to a delta.

        One evaluation per (rule, occurrence of a changed predicate),
        the delta occurrence reading the changed facts and every other
        atom reading the current database -- the standard semi-naive
        delta join, reused for the seeds of the DRed overestimate and of
        the insert restart.
        """
        heads: dict[str, set[Fact]] = {}
        if not any(changed.values()):
            return heads
        view = _mounted(self.db, _DELTA_PREFIX, changed)
        for r in rules:
            for i, a in enumerate(r.body):
                if changed.get(a.predicate):
                    evaluate_body_into(
                        view, _delta_body(r, i), r.head.args,
                        heads.setdefault(r.head.predicate, set()),
                        order=self.order)
        return heads

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
        counting its fixpoint ``rounds`` and its ``facts_in`` /
        ``facts_out``; the joins and loops inside stay untraced.
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
        # Overestimate bottom-up per SCC against the original database:
        # the delta joins with the lower deltas seed it, and from there
        # it is the SCC's semi-naive fixpoint with the overestimate as
        # ``seen`` -- later rounds read only the facts that just joined.
        over: dict[str, set[Fact]] = {p: set() for p in self.idb}
        visible: dict[str, set[Fact]] = {n: set(f) for n, f in dels.items()}
        with span_of(tracer, "view.overestimate"):
            stats = tracer and EvaluationStats()
            for scc, rules in self._scc_rules:
                heads = self._delta_join_heads(rules, visible)
                members = sorted(scc)
                for pred in members:
                    over[pred] = visible[pred] = heads.pop(pred, set())
                delta_rounds(
                    rules, scc, self.db, [set(over[p]) for p in members],
                    [(over[p].__rsub__, over[p].update) for p in members],
                    stats=stats, order=self.order)
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

            # Rederive survivors bottom-up per SCC.  One candidate join
            # per rule finds the removed facts that still have a
            # derivation in the current database; what is missing beyond
            # them can only follow from them, which is the delta-seeded
            # restart's precondition -- so the cascade costs one delta
            # round per step instead of one sweep over every removed
            # fact per step.
            stats, back_in = tracer and EvaluationStats(), 0
            for scc, rules in self._scc_rules:
                view = _mounted(self.db, _CANDIDATE_PREFIX,
                                {p: over[p] for p in scc})
                back: dict[str, set[Fact]] = {}
                for r in rules:
                    if over[r.head.predicate]:
                        evaluate_body_into(
                            view, _candidate_body(r), r.head.args,
                            back.setdefault(r.head.predicate, set()),
                            order=self.order)
                if any(back.values()):
                    added = seminaive_stratum(
                        rules, scc, self.db, self.program, stats=stats,
                        order=self.order, initial_deltas=back)
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
            for scc, rules in self._scc_rules:
                lower = {n: f for n, f in changed.items() if n not in scc}
                # The restart installs what is new of its seeds.
                seeds = self._delta_join_heads(rules, lower)
                if not any(seeds.values()):
                    continue
                added = seminaive_stratum(
                    rules, scc, self.db, self.program, stats=stats,
                    order=self.order, initial_deltas=seeds)
                for pred, facts in added.items():
                    changed.setdefault(pred, set()).update(facts)
                    touched[pred].update(dict.fromkeys(
                        facts - touched[pred].keys(), False))
            _report(tracer, stats, sum(map(len, ins.values())),
                    sum(len(f) for n, f in changed.items() if n not in ins))
