"""A materialized IDB kept consistent under base-relation deltas.

:class:`MaintainedView` owns a database holding the EDB plus the least
fixpoint of every IDB predicate, together with an exact derivation
count per derived fact (the number of distinct rule-body substitutions
producing it).  :meth:`MaintainedView.apply` repairs both under a net
batch of base inserts and deletes:

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

Counting (recount the affected set)
    The facts whose derivation count can have changed are exactly
    ``D`` (every lost derivation passes through a deleted tuple) plus
    the heads of delta joins seeded by the inserted facts against the
    final database (every gained derivation uses an inserted tuple,
    because the old database was already a fixpoint).  A count is a
    ``count`` aggregate over the head columns of a rule's join, so the
    affected facts still present are recounted set-at-a-time: per rule
    one candidate join, its bag of heads summed per predicate.  Counts
    stay *exact* -- the property suite checks them against a
    from-scratch oracle -- and no join in this module runs per fact.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from ..datalog.atoms import Atom
from ..datalog.database import Database, Fact, Relation
from ..datalog.joins import evaluate_body_into, evaluate_body_project
from ..datalog.programs import Program
from ..datalog.rules import Rule
from ..datalog.seminaive import seminaive_evaluate, seminaive_stratum
from ..datalog.terms import Constant

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


def _mount(view: Database, prefix: str,
           facts: Mapping[str, set[Fact]]) -> dict[str, str]:
    """Mount each non-empty fact set as relation ``prefix + predicate``
    in ``view``; returns ``{predicate: mounted name}``."""
    names: dict[str, str] = {}
    for pred, tuples in facts.items():
        if tuples:
            name = names[pred] = prefix + pred
            arity = len(next(iter(tuples)))
            view.attach(Relation(name, arity, tuples), name)
    return names


def _unmount(view: Database, names: Mapping[str, str]) -> None:
    for name in names.values():
        view.detach(name)


def _head_restricted(rule: Rule, names: Mapping[str, str]
                     ) -> tuple[Atom, ...]:
    """``rule.body`` behind the candidate atom of its head predicate
    (the plain body when no candidates are mounted for it)."""
    name = names.get(rule.head.predicate)
    if name is None:
        return rule.body
    return (Atom(name, rule.head.args),) + rule.body


class MaintainedView:
    """Materialized IDB + derivation counts, maintained under deltas."""

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
        # The database is a fixpoint, so every head a rule's join
        # yields is a derived fact: the bag of heads is the count table.
        self.counts: dict[str, dict[Fact, int]] = {
            pred: dict(self._derivation_counts(self.db, pred, {}))
            for pred in self.idb
        }

    def count(self, pred: str, fact: Fact) -> int:
        """Derivation count of ``fact`` (0 if not derived)."""
        return self.counts.get(pred, {}).get(tuple(fact), 0)

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

    def _derivation_counts(self, view: Database, pred: str,
                           names: Mapping[str, str]) -> Counter:
        """Derivation counts of ``pred`` facts in ``view``: one join per
        rule, each head tuple once per body substitution producing it.

        Restricted to the candidates mounted for ``pred`` in ``names``;
        with none mounted every derivable head is counted.
        """
        counts: Counter = Counter()
        for r in self.program.rules_for(pred):
            counts.update(evaluate_body_project(
                view, _head_restricted(r, names), r.head.args,
                order=self.order))
        return counts

    def _delta_join_heads(
        self, view: Database, rules: Iterable[Rule],
        changed: Mapping[str, set],
    ) -> dict[str, set[Fact]]:
        """Rule heads derivable with one body atom restricted to a delta.

        One evaluation per (rule, occurrence of a changed predicate),
        the delta occurrence reading the changed facts and every other
        atom reading the current database -- the standard semi-naive
        delta join, reused for the DRed overestimate, the insert seeds,
        and the gained-derivation candidates.
        """
        names = _mount(view, _DELTA_PREFIX, changed)
        if not names:
            return {}
        heads: dict[str, set[Fact]] = {}
        for r in rules:
            for i, a in enumerate(r.body):
                delta_name = names.get(a.predicate)
                if delta_name is None:
                    continue
                body = (r.body[:i]
                        + (Atom(delta_name, a.args),)
                        + r.body[i + 1:])
                evaluate_body_into(
                    view, body, r.head.args,
                    heads.setdefault(r.head.predicate, set()),
                    order=self.order)
        _unmount(view, names)
        return heads

    # -- maintenance -------------------------------------------------------

    def apply(self, deltas: Delta) -> dict[str, tuple[frozenset, frozenset]]:
        """Apply net base deltas; returns net IDB changes per predicate.

        ``deltas`` maps base relation names to ``(inserted, deleted)``
        fact sets, as produced by
        :meth:`repro.maintenance.capture.DeltaCapture.net`.  Deltas
        naming an IDB predicate are rejected -- derived relations are
        owned by the view.
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

        # Every maintenance join of this call reads one view database:
        # the relations of ``self.db`` shared, deltas and candidates
        # mounted beside them by name for the join that reads them.
        view = self.db.with_mounts({})

        if eff_dels:
            self._apply_deletions(view, eff_dels, touched)
        inserted = self._apply_insertions(view, eff_ins, touched) \
            if eff_ins else {}

        # Recount the affected set: everything removed or added along
        # the way, plus heads gaining a derivation through an inserted
        # fact (delta join against the *final* database).  Only facts
        # still present need the join: the removed ones gave up their
        # counts with their membership.
        gains = self._delta_join_heads(view, self.program.rules, inserted)
        live: dict[str, set[Fact]] = {}
        for pred in self.idb:
            rel = self.db.relation(pred)
            live[pred] = {f for f in touched[pred].keys()
                          | gains.get(pred, set()) if f in rel}
        names = _mount(view, _CANDIDATE_PREFIX, live)
        for pred in names:
            self.counts[pred].update(
                self._derivation_counts(view, pred, names))
        _unmount(view, names)

        result: dict[str, tuple[frozenset, frozenset]] = {}
        for pred in self.idb:
            rel = self.db.relation(pred)
            added: set[Fact] = set()
            removed: set[Fact] = set()
            for fact, was_present in touched[pred].items():
                now_present = rel is not None and fact in rel
                if was_present and not now_present:
                    removed.add(fact)
                elif now_present and not was_present:
                    added.add(fact)
            if added or removed:
                result[pred] = (frozenset(added), frozenset(removed))
        return result

    def _apply_deletions(self, view: Database,
                         dels: Mapping[str, set[Fact]],
                         touched: dict[str, dict[Fact, bool]]) -> None:
        # Overestimate bottom-up per SCC against the original database.
        over: dict[str, set[Fact]] = {p: set() for p in self.idb}
        visible: dict[str, set[Fact]] = {n: set(f) for n, f in dels.items()}
        for scc, rules in self._scc_rules:
            frontier: Mapping[str, set[Fact]] = visible
            while True:
                heads = self._delta_join_heads(view, rules, frontier)
                fresh: dict[str, set[Fact]] = {}
                for pred, facts in heads.items():
                    rel = self.db.relation(pred)
                    if rel is None:
                        continue
                    new = {f for f in facts
                           if f in rel and f not in over[pred]}
                    if new:
                        over[pred] |= new
                        fresh[pred] = new
                if not fresh:
                    break
                # Later rounds only need the facts that just joined D:
                # lower deltas were exhausted in the first round.
                frontier = fresh
            for pred in scc:
                if over.get(pred):
                    visible[pred] = over[pred]

        # Remove the base deletes and the whole overestimate.
        for name, facts in dels.items():
            rel = self.db.relation(name)
            if rel is not None:
                rel.discard_all(facts)
        for pred, facts in over.items():
            if not facts:
                continue
            self.db.relation(pred).discard_all(facts)
            per = self.counts.setdefault(pred, {})
            entry = touched[pred]
            for fact in facts:
                per.pop(fact, None)
                entry.setdefault(fact, True)

        # Rederive survivors bottom-up per SCC.  One candidate join per
        # rule finds the removed facts that still have a derivation in
        # the current database; what is missing beyond them can only
        # follow from them, which is the delta-seeded restart's
        # precondition -- so the cascade costs one delta round per step
        # instead of one sweep over every removed fact per step.
        for scc, rules in self._scc_rules:
            names = _mount(view, _CANDIDATE_PREFIX,
                           {p: over[p] for p in scc})
            back: dict[str, set[Fact]] = {}
            for r in rules:
                if r.head.predicate in names:
                    evaluate_body_into(
                        view, _head_restricted(r, names), r.head.args,
                        back.setdefault(r.head.predicate, set()),
                        order=self.order)
            _unmount(view, names)
            if any(back.values()):
                seminaive_stratum(rules, scc, self.db, self.program,
                                  order=self.order, initial_deltas=back)

    def _apply_insertions(
        self, view: Database, ins: Mapping[str, set[Fact]],
        touched: dict[str, dict[Fact, bool]],
    ) -> dict[str, set[Fact]]:
        """Install base inserts, propagate; returns all inserted facts."""
        for name, facts in ins.items():
            rel = self.db.ensure(name, len(next(iter(facts))))
            view.attach(rel, name)  # a relation this write created
            rel.add_all(facts)
        changed: dict[str, set[Fact]] = {n: set(f) for n, f in ins.items()}
        for scc, rules in self._scc_rules:
            lower = {n: f for n, f in changed.items() if n not in scc}
            seed_heads = self._delta_join_heads(view, rules, lower)
            seeds: dict[str, set[Fact]] = {}
            for pred in scc:
                rel = self.db.relation(pred)
                seeds[pred] = {f for f in seed_heads.get(pred, ())
                               if f not in rel}
            if not any(seeds.values()):
                continue
            added = seminaive_stratum(rules, scc, self.db, self.program,
                                      order=self.order, initial_deltas=seeds)
            for pred, facts in added.items():
                if facts:
                    changed.setdefault(pred, set()).update(facts)
                    per = touched[pred]
                    for fact in facts:
                        per.setdefault(fact, False)
        return changed
