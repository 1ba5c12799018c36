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
    then rederive: bottom-up per SCC, repeatedly re-add any removed
    fact that still has a derivation in the current database, until no
    candidate fires.  Survivors on a cycle come back exactly when they
    keep outside support.

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
    because the old database was already a fixpoint).  Each affected
    fact gets a fresh head-bound recount, so counts stay *exact* --
    the property suite checks them against a from-scratch oracle.
"""

from __future__ import annotations

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

Delta = Mapping[str, tuple[frozenset, frozenset]]


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
        self.counts: dict[str, dict[Fact, int]] = {}
        for pred in self.idb:
            per: dict[Fact, int] = {}
            rel = self.db.relation(pred)
            if rel is not None:
                for fact in rel:
                    per[fact] = self._recount(pred, fact)
            self.counts[pred] = per

    def count(self, pred: str, fact: Fact) -> int:
        """Derivation count of ``fact`` (0 if not derived)."""
        return self.counts.get(pred, {}).get(tuple(fact), 0)

    # -- derivation counting ----------------------------------------------

    @staticmethod
    def _head_bindings(rule: Rule, fact: Fact):
        """Bindings unifying the rule head with ``fact`` (None: no match)."""
        bindings: dict = {}
        for term, value in zip(rule.head.args, fact):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            elif bindings.setdefault(term, value) != value:
                return None
        return bindings

    def _recount(self, pred: str, fact: Fact) -> int:
        total = 0
        for rule in self.program.rules_for(pred):
            init = self._head_bindings(rule, fact)
            if init is None:
                continue
            # Only the number of substitutions matters: project onto ().
            for _ in evaluate_body_project(self.db, rule.body, (),
                                           initial_bindings=init,
                                           order=self.order):
                total += 1
        return total

    def _derivable(self, pred: str, fact: Fact) -> bool:
        for rule in self.program.rules_for(pred):
            init = self._head_bindings(rule, fact)
            if init is None:
                continue
            for _ in evaluate_body_project(self.db, rule.body, (),
                                           initial_bindings=init,
                                           order=self.order):
                return True
        return False

    # -- delta joins -------------------------------------------------------

    def _delta_join_heads(
        self, rules: Iterable[Rule], changed: Mapping[str, set]
    ) -> dict[str, set[Fact]]:
        """Rule heads derivable with one body atom restricted to a delta.

        One evaluation per (rule, occurrence of a changed predicate),
        the delta occurrence reading the changed facts and every other
        atom reading the current database -- the standard semi-naive
        delta join, reused for the DRed overestimate, the insert seeds,
        and the gained-derivation candidates.
        """
        changed = {n: facts for n, facts in changed.items() if facts}
        if not changed:
            return {}
        view = Database()
        for name in self.db.predicates():
            rel = self.db.relation(name)
            assert rel is not None
            view.attach(rel, name)
        delta_names: dict[str, str] = {}
        for name, facts in changed.items():
            arity = len(next(iter(facts)))
            delta_name = _DELTA_PREFIX + name
            view.attach(Relation(delta_name, arity, facts), delta_name)
            delta_names[name] = delta_name
        heads: dict[str, set[Fact]] = {}
        for r in rules:
            for i, a in enumerate(r.body):
                delta_name = delta_names.get(a.predicate)
                if delta_name is None:
                    continue
                body = (r.body[:i]
                        + (Atom(delta_name, a.args),)
                        + r.body[i + 1:])
                evaluate_body_into(
                    view, body, r.head.args,
                    heads.setdefault(r.head.predicate, set()),
                    order=self.order)
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

        # Per IDB fact we ever add or remove: was it present at entry?
        # Comparing against presence at exit yields the net IDB delta.
        touched: dict[str, dict[Fact, bool]] = {p: {} for p in self.idb}

        if eff_dels:
            self._apply_deletions(eff_dels, touched)
        inserted = self._apply_insertions(eff_ins, touched) if eff_ins \
            else {}

        # Recount the affected set: everything removed or added along
        # the way, plus heads gaining a derivation through an inserted
        # fact (delta join against the *final* database).
        gains = self._delta_join_heads(self.program.rules, inserted)
        for pred in self.idb:
            affected = set(touched[pred]) | gains.get(pred, set())
            if not affected:
                continue
            rel = self.db.relation(pred)
            per = self.counts.setdefault(pred, {})
            for fact in affected:
                if rel is not None and fact in rel:
                    per[fact] = self._recount(pred, fact)
                else:
                    per.pop(fact, None)

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

    def _apply_deletions(self, dels: Mapping[str, set[Fact]],
                         touched: dict[str, dict[Fact, bool]]) -> None:
        # Overestimate bottom-up per SCC against the original database.
        over: dict[str, set[Fact]] = {p: set() for p in self.idb}
        visible: dict[str, set[Fact]] = {n: set(f) for n, f in dels.items()}
        for scc, rules in self._scc_rules:
            frontier: Mapping[str, set[Fact]] = visible
            while True:
                heads = self._delta_join_heads(rules, frontier)
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
            rel = self.db.relation(pred)
            per = self.counts.setdefault(pred, {})
            for fact in facts:
                rel.discard(fact)
                per.pop(fact, None)
                touched[pred].setdefault(fact, True)

        # Rederive survivors bottom-up per SCC: re-add any removed fact
        # that still has a derivation, until no candidate fires.
        for scc, _rules in self._scc_rules:
            pool = [(p, f) for p in scc for f in over.get(p, ())]
            changed = True
            while changed and pool:
                changed = False
                remaining = []
                for pred, fact in pool:
                    if self._derivable(pred, fact):
                        self.db.relation(pred).add(fact)
                        changed = True
                    else:
                        remaining.append((pred, fact))
                pool = remaining

    def _apply_insertions(
        self, ins: Mapping[str, set[Fact]],
        touched: dict[str, dict[Fact, bool]],
    ) -> dict[str, set[Fact]]:
        """Install base inserts, propagate; returns all inserted facts."""
        for name, facts in ins.items():
            arity = len(next(iter(facts)))
            self.db.ensure(name, arity).add_all(facts)
        changed: dict[str, set[Fact]] = {n: set(f) for n, f in ins.items()}
        for scc, rules in self._scc_rules:
            for pred in scc:
                self.db.ensure(pred, self.program.arity(pred))
            lower = {n: f for n, f in changed.items() if n not in scc}
            seed_heads = self._delta_join_heads(rules, lower)
            seeds: dict[str, set[Fact]] = {}
            for pred in scc:
                rel = self.db.relation(pred)
                seeds[pred] = {f for f in seed_heads.get(pred, ())
                               if f not in rel}
            if not any(seeds.values()):
                continue
            added: dict[str, set[Fact]] = {p: set() for p in scc}

            def collect(relation, fact, sign, _added=added):
                if sign > 0:
                    _added[relation.name].add(fact)

            for pred in scc:
                self.db.relation(pred).observe(collect)
            try:
                seminaive_stratum(rules, scc, self.db, self.program,
                                  order=self.order, initial_deltas=seeds)
            finally:
                for pred in scc:
                    self.db.relation(pred).unobserve(collect)
            for pred, facts in added.items():
                if facts:
                    changed.setdefault(pred, set()).update(facts)
                    per = touched[pred]
                    for fact in facts:
                        per.setdefault(fact, False)
        return changed
