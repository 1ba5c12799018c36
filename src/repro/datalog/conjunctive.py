"""Conjunctive queries, left-to-right evaluation, and containment mappings.

The strings of an expansion (Section 2 of the paper) are conjunctive
queries over the EDB plus ``t_0``; Theorem 2.1's proof machinery is the
classic containment-mapping theorem of Chandra-Merlin [CM77] and
Aho-Sagiv-Ullman [ASU79]: two conjunctive queries define the same
relation iff containment mappings exist in both directions.  This module
implements both sides -- evaluation (used to cross-check the engines on
bounded expansions) and containment-mapping search (used to test
Theorem 2.1 directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database
from .joins import evaluate_body_into
from .terms import Constant, Term, Variable

__all__ = [
    "ConjunctiveQuery",
    "containment_mapping",
    "is_contained_in",
    "equivalent",
]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: distinguished terms + a body conjunction.

    ``head`` lists the output terms in order (the paper's distinguished
    variables; constants may appear after a selection is substituted in).
    """

    head: tuple[Term, ...]
    body: tuple[Atom, ...]

    @property
    def distinguished(self) -> tuple[Variable, ...]:
        """The distinguished variables, in head order (deduplicated)."""
        seen: list[Variable] = []
        for t in self.head:
            if isinstance(t, Variable) and t not in seen:
                seen.append(t)
        return tuple(seen)

    def variables(self) -> frozenset[Variable]:
        result = {t for t in self.head if isinstance(t, Variable)}
        for a in self.body:
            result |= a.variable_set()
        return frozenset(result)

    def nondistinguished(self) -> frozenset[Variable]:
        """Variables that occur only in the body (existential)."""
        return self.variables() - set(self.distinguished)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        head = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t
            for t in self.head
        )
        return ConjunctiveQuery(
            head, tuple(a.substitute(mapping) for a in self.body)
        )

    def evaluate(
        self,
        db: Database,
        stats: Optional[EvaluationStats] = None,
        order: str = "greedy",
    ) -> frozenset[tuple]:
        """All head tuples the query produces over ``db``."""
        results: set[tuple] = set()
        evaluate_body_into(db, self.body, self.head, results, stats=stats,
                           order=order)
        return frozenset(results)

    def __str__(self) -> str:
        head_text = ", ".join(str(t) for t in self.head)
        body_text = " & ".join(str(a) for a in self.body)
        return f"({head_text}) :- {body_text}"


def containment_mapping(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Optional[dict[Variable, Term]]:
    """A containment mapping from ``source`` to ``target``, if one exists.

    Following the definition in the proof of Theorem 2.1: a mapping ``m``
    from the variables of ``source`` to the terms of ``target`` such that

    * distinguished variables map to themselves (equivalently: the head
      of ``source``, after applying ``m``, equals the head of ``target``),
    * every atom of ``source``, after applying ``m``, appears among the
      atoms of ``target``.

    Finding one is NP-complete in general; the backtracking search below
    is fine at the sizes expansions produce.
    """
    if len(source.head) != len(target.head):
        return None

    mapping: dict[Variable, Term] = {}
    # Head constraint: m(source.head[i]) == target.head[i].
    for s_term, t_term in zip(source.head, target.head):
        if isinstance(s_term, Constant):
            if s_term != t_term:
                return None
        else:
            bound = mapping.get(s_term)
            if bound is None:
                mapping[s_term] = t_term
            elif bound != t_term:
                return None

    by_predicate: dict[str, list[Atom]] = {}
    for a in target.body:
        by_predicate.setdefault(a.predicate, []).append(a)

    atoms = list(source.body)

    def extend(i: int, m: dict[Variable, Term]) -> Optional[dict[Variable, Term]]:
        if i == len(atoms):
            return m
        a = atoms[i]
        for candidate in by_predicate.get(a.predicate, ()):
            if candidate.arity != a.arity:
                continue
            trial = dict(m)
            ok = True
            for s_term, t_term in zip(a.args, candidate.args):
                if isinstance(s_term, Constant):
                    if s_term != t_term:
                        ok = False
                        break
                else:
                    bound = trial.get(s_term)
                    if bound is None:
                        trial[s_term] = t_term
                    elif bound != t_term:
                        ok = False
                        break
            if ok:
                result = extend(i + 1, trial)
                if result is not None:
                    return result
        return None

    return extend(0, mapping)


def is_contained_in(
    smaller: ConjunctiveQuery, larger: ConjunctiveQuery
) -> bool:
    """True if ``smaller``'s relation is contained in ``larger``'s.

    By the containment-mapping theorem, Q1 is contained in Q2 iff there
    is a containment mapping *from Q2 to Q1* (the mapping direction is
    opposite to the containment direction).
    """
    return containment_mapping(larger, smaller) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True if the two queries define the same relation on every database.

    This is the both-directions containment-mapping test used throughout
    the proof of Theorem 2.1.
    """
    return (
        containment_mapping(q1, q2) is not None
        and containment_mapping(q2, q1) is not None
    )
