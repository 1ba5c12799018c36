"""Generalized Magic Sets [BMSU86, BR87], as compared against in Section 4.

Given a program and a selection query, the rewrite produces:

* a seed fact ``magic_p__a(c...)`` from the query constants,
* one *magic rule* per IDB body occurrence, passing bindings sideways:
  ``magic_q__a'(bound args of q) :- magic_p__a(bound head args) &
  preceding body atoms``,
* one *modified rule* per adorned rule, guarded by its magic predicate:
  ``p__a(head) :- magic_p__a(bound head args) & body`` with IDB body
  atoms replaced by their adorned copies.

This is the non-supplementary variant -- exactly the rules the paper
displays for Example 1.2::

    magic(tom).
    magic(W) :- magic(X) & friend(X, W).
    buys(X, Y) :- magic(X) & perfectFor(X, Y).
    buys(X, Y) :- magic(X) & friend(X, W) & buys(W, Y).
    buys(X, Y) :- magic(X) & buys(X, Z) & cheaper(Z, Y).

The rewritten program is evaluated semi-naively; the relations the
method "generates" (Definition 4.2) are the ``magic_*`` relations plus
the adorned IDB relations, and Lemma 4.2 / the Example 1.2 analysis
concern their sizes.
"""

from __future__ import annotations

from typing import Optional

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import UnknownPredicateError
from ..datalog.programs import Program
from ..datalog.rules import Rule
from ..datalog.seminaive import seminaive_evaluate
from ..datalog.terms import Constant
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .adornment import (
    AdornedAtom,
    AdornedRule,
    Adornment,
    adorn_program,
    adorned_name,
)

__all__ = ["magic_rewrite", "MagicRewrite", "evaluate_magic"]


def _magic_name(predicate: str, adornment: Adornment) -> str:
    return f"magic_{adorned_name(predicate, adornment)}"


def _replace_idb(item: object) -> Atom:
    """Body atom as it appears in the rewritten program."""
    if isinstance(item, AdornedAtom):
        return Atom(
            adorned_name(item.atom.predicate, item.adornment),
            item.atom.args,
        )
    assert isinstance(item, Atom)
    return item


class MagicRewrite:
    """The result of a Magic Sets rewrite, ready to evaluate.

    Attributes
    ----------
    program:
        The rewritten Datalog program (magic rules + modified rules).
    seed:
        The seed fact, e.g. ``magic_buys__bf(tom)``.
    answer_predicate:
        The adorned copy of the query predicate, whose relation holds
        the answers after evaluation.
    generated_predicates:
        Every relation the method generates (all magic and adorned
        predicates) -- the Definition 4.2 measure.
    """

    def __init__(
        self,
        program: Program,
        seed: Atom,
        answer_predicate: str,
        generated_predicates: frozenset[str],
        query: Atom,
    ) -> None:
        self.program = program
        self.seed = seed
        self.answer_predicate = answer_predicate
        self.generated_predicates = generated_predicates
        self.query = query

    def __repr__(self) -> str:
        return (
            f"MagicRewrite({len(self.program)} rules, "
            f"seed={self.seed}, answers in {self.answer_predicate})"
        )


def _needed_after(
    ar: AdornedRule, index: int
) -> frozenset:
    """Variables required by atoms after position ``index`` or the head."""
    needed = set(ar.rule.head.variable_set())
    for item in ar.body[index:]:
        atom_obj = item.atom if isinstance(item, AdornedAtom) else item
        needed |= atom_obj.variable_set()
    return frozenset(needed)


def _supplementary_rules(
    predicate: str,
    adornment: Adornment,
    rule_index: int,
    ar: AdornedRule,
) -> list[Rule]:
    """The supplementary-magic rewrite of one adorned rule [BR87].

    Emits ``sup_{r,0} :- magic``, ``sup_{r,i} :- sup_{r,i-1} & q_i``,
    one magic rule per IDB subgoal fed from the preceding supplementary,
    and the final ``p^a :- sup_{r,n}``.
    """
    prefix = f"sup__{adorned_name(predicate, adornment)}__{rule_index}"
    magic_atom = Atom(
        _magic_name(predicate, adornment), ar.bound_head_terms()
    )

    bound_vars = {
        t for t in ar.bound_head_terms() if not isinstance(t, Constant)
    }
    sup_vars = tuple(
        v for v in sorted(bound_vars, key=str) if v in _needed_after(ar, 0)
    )
    rules = [Rule(Atom(f"{prefix}__0", sup_vars), (magic_atom,))]
    previous = Atom(f"{prefix}__0", sup_vars)

    known = set(bound_vars)
    for i, item in enumerate(ar.body, start=1):
        atom_obj = item.atom if isinstance(item, AdornedAtom) else item
        if isinstance(item, AdornedAtom):
            rules.append(
                Rule(
                    Atom(
                        _magic_name(item.atom.predicate, item.adornment),
                        item.bound_terms(),
                    ),
                    (previous,),
                )
            )
        known |= atom_obj.variable_set()
        needed = _needed_after(ar, i)
        sup_vars = tuple(
            v for v in sorted(known, key=str) if v in needed
        )
        target = Atom(f"{prefix}__{i}", sup_vars)
        rules.append(Rule(target, (previous, _replace_idb(item))))
        previous = target

    head = Atom(adorned_name(predicate, adornment), ar.rule.head.args)
    rules.append(Rule(head, (previous,)))
    return rules


def magic_rewrite(
    program: Program, query: Atom, style: str = "basic"
) -> MagicRewrite:
    """Rewrite ``program`` for ``query`` with Generalized Magic Sets.

    ``style="basic"`` (default) emits the non-supplementary rules the
    paper displays in Section 4; ``style="supplementary"`` emits the
    supplementary-magic variant of [BR87], which factors each rule
    through ``sup_{r,i}`` relations (same answers, same asymptotic
    shapes, different constants -- compared in the tests).
    """
    if style not in ("basic", "supplementary"):
        raise ValueError(f"unknown magic style {style!r}")
    if query.predicate not in program.idb_predicates:
        raise UnknownPredicateError(
            f"{query.predicate} is not an IDB predicate"
        )
    adorned, query_adornment = adorn_program(program, query)

    if style == "supplementary":
        rules: list[Rule] = []
        for (predicate, adornment), adorned_rules in sorted(adorned.items()):
            for rule_index, ar in enumerate(adorned_rules):
                rules.extend(
                    _supplementary_rules(
                        predicate, adornment, rule_index, ar
                    )
                )
        seed = Atom(
            _magic_name(query.predicate, query_adornment),
            tuple(t for t in query.args if isinstance(t, Constant)),
        )
        rewritten_program = Program(rules)
        generated = frozenset(
            p
            for p in rewritten_program.idb_predicates
        )
        return MagicRewrite(
            rewritten_program,
            seed,
            adorned_name(query.predicate, query_adornment),
            generated,
            query,
        )

    rules = []
    for (predicate, adornment), adorned_rules in sorted(adorned.items()):
        for ar in adorned_rules:
            magic_head_args = ar.bound_head_terms()
            magic_atom = Atom(
                _magic_name(predicate, adornment), magic_head_args
            )
            guard = (magic_atom,)

            # Magic rules: one per IDB body occurrence.
            preceding: list[Atom] = []
            for item in ar.body:
                if isinstance(item, AdornedAtom):
                    target = Atom(
                        _magic_name(item.atom.predicate, item.adornment),
                        item.bound_terms(),
                    )
                    # Skip trivial self-implications such as
                    # ``magic_p(X) :- magic_p(X).`` (arises when a rule
                    # passes its binding to the recursive call unchanged).
                    if not (target == magic_atom and not preceding):
                        rules.append(
                            Rule(target, guard + tuple(preceding))
                        )
                preceding.append(_replace_idb(item))

            # Modified rule: guard the original rule with its magic atom.
            new_head = Atom(
                adorned_name(predicate, adornment), ar.rule.head.args
            )
            rules.append(Rule(new_head, guard + tuple(preceding)))

    seed = Atom(
        _magic_name(query.predicate, query_adornment),
        tuple(t for t in query.args if isinstance(t, Constant)),
    )
    generated = frozenset(
        name
        for (p, a) in adorned
        for name in (adorned_name(p, a), _magic_name(p, a))
    )
    return MagicRewrite(
        Program(rules),
        seed,
        adorned_name(query.predicate, query_adornment),
        generated,
        query,
    )


def evaluate_magic(
    program: Program,
    edb: Database,
    query: Atom,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    style: str = "basic",
    tracer=None,
) -> frozenset[tuple]:
    """Answer ``query`` by Magic Sets: rewrite, evaluate, select.

    Relation sizes of every generated (magic / adorned / supplementary)
    predicate are recorded in ``stats`` under their rewritten names.
    """
    if stats is None:
        stats = EvaluationStats()
    if not stats.strategy:
        stats.strategy = "magic"
    with span_of(tracer, "magic.rewrite", style=style) as rewrite_span:
        rewrite = magic_rewrite(program, query, style=style)
        if rewrite_span is not None:
            rewrite_span.attrs["rules"] = len(rewrite.program)
    db = edb.copy()
    db.add_ground_atom(rewrite.seed)
    result = seminaive_evaluate(
        rewrite.program, db, stats=stats, budget=budget, order=order,
        tracer=tracer,
    )
    answers = frozenset(
        fact
        for fact in result.tuples(rewrite.answer_predicate)
        if query.matches(fact)
    )
    stats.record_relation("ans", len(answers))
    return answers
