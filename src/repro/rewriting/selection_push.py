"""Selection pushing into fixpoints, after Aho and Ullman [AU79].

The paper's related-work section: "Aho and Ullman present a technique
of pushing selections into fixpoints that, when combined with
semi-naive evaluation, produces an instance of our algorithm if the
selection is on a 'stable' variable and the recursion is separable."

A query column is *stable* when no rule of the predicate ever changes
it: the head term at that position reappears, unchanged, at the same
position of every occurrence of the predicate in every rule body.  For
such columns, selection commutes with the least fixpoint, so the
constant can be substituted into the rules themselves::

    t(X, Y) :- friend(X, W) & t(W, Y).        σ_{2=camera}
    t(X, Y) :- perfectFor(X, Y).              ==================>

    t_sigma(X, camera) :- friend(X, W) & t_sigma(W, camera).
    t_sigma(X, camera) :- perfectFor(X, camera).

On separable recursions, stable columns are exactly the persistent
columns ``t|pers``, and this rewrite coincides with the Separable
algorithm's dummy-class case -- which is why [AU79] and Separable are
"incommensurate": pushing also applies to some *non-separable*
recursions (any rule shape, including nonlinear ones, qualifies if the
column is stable), while Separable also handles selections on class
columns, which are never stable.
"""

from __future__ import annotations

from typing import Optional

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, UnknownPredicateError
from ..datalog.programs import Program
from ..datalog.rules import Rule
from ..datalog.seminaive import seminaive_evaluate
from ..datalog.terms import Constant, ConstValue, Variable
from ..stats import EvaluationStats

__all__ = [
    "StablePushNotApplicable",
    "stable_positions",
    "push_selection",
    "evaluate_pushed",
]


class StablePushNotApplicable(EvaluationError):
    """No bound query column is stable, so [AU79] pushing cannot apply."""


def stable_positions(program: Program, predicate: str) -> tuple[int, ...]:
    """Columns of ``predicate`` that no rule ever changes.

    Position ``p`` is stable when, in every rule for ``predicate``, the
    head term at ``p`` equals the term at ``p`` of *every* body
    occurrence of ``predicate`` (vacuously for nonrecursive rules).
    Nonlinear rules are allowed -- each occurrence is checked.
    """
    rules = program.rules_for(predicate)
    if not rules:
        raise UnknownPredicateError(
            f"{predicate} is not an IDB predicate"
        )
    arity = program.arity(predicate)
    stable = set(range(arity))
    for r in rules:
        for occurrence in r.occurrences_of(predicate):
            for p in list(stable):
                if r.head.args[p] != occurrence.args[p]:
                    stable.discard(p)
    return tuple(sorted(stable))


def _sigma_name(predicate: str, pushed: dict[int, ConstValue]) -> str:
    key = "_".join(f"{p}_{v}" for p, v in sorted(pushed.items()))
    return f"{predicate}__sigma_{key}"


def push_selection(
    program: Program, query: Atom
) -> tuple[Program, str, dict[int, ConstValue]]:
    """Push the stable part of ``query``'s selection into the rules.

    Returns ``(rewritten program, answer predicate, pushed constants)``.
    The rewritten program defines ``answer predicate`` with the pushed
    constants substituted into every rule (rules whose head carries a
    conflicting constant are dropped); rules of other predicates are
    carried over unchanged.  Raises :class:`StablePushNotApplicable`
    when no bound column is stable.
    """
    predicate = query.predicate
    stable = set(stable_positions(program, predicate))
    pushed = {
        p: t.value
        for p, t in enumerate(query.args)
        if isinstance(t, Constant) and p in stable
    }
    if not pushed:
        raise StablePushNotApplicable(
            f"query {query} binds no stable column of {predicate}; "
            f"stable columns are {sorted(p + 1 for p in stable)}"
        )
    sigma = _sigma_name(predicate, pushed)

    rewritten: list[Rule] = []
    for r in program.rules:
        if r.head.predicate != predicate:
            rewritten.append(r)
            continue
        substitution: dict[Variable, Constant] = {}
        conflict = False
        for p, value in pushed.items():
            term = r.head.args[p]
            if isinstance(term, Constant):
                if term.value != value:
                    conflict = True
                    break
            else:
                prior = substitution.get(term)
                if prior is not None and prior.value != value:
                    conflict = True
                    break
                substitution[term] = Constant(value)
        if conflict:
            continue  # this rule can never produce matching tuples
        grounded = r.substitute(substitution)
        new_head = Atom(sigma, grounded.head.args)
        new_body = tuple(
            Atom(sigma, a.args) if a.predicate == predicate else a
            for a in grounded.body
        )
        rewritten.append(Rule(new_head, new_body))
    return Program(rewritten), sigma, pushed


def evaluate_pushed(
    program: Program,
    edb: Database,
    query: Atom,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> frozenset[tuple]:
    """Answer ``query`` by [AU79] selection pushing + semi-naive.

    Constants on non-stable columns (not pushable) are applied as a
    final filter.  The generated relation recorded in ``stats`` is the
    sigma predicate's extent -- for a pers-column selection on a
    separable recursion this matches Separable's ``seen_2``-side sizes.
    """
    if stats is None:
        stats = EvaluationStats()
    if not stats.strategy:
        stats.strategy = "pushdown"
    rewritten, sigma, _ = push_selection(program, query)
    result = seminaive_evaluate(
        rewritten, edb, stats=stats, budget=budget, order=order,
        tracer=tracer,
    )
    answers = frozenset(
        fact for fact in result.tuples(sigma) if query.matches(fact)
    )
    stats.record_relation("ans", len(answers))
    return answers
