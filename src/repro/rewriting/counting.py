"""The Generalized Counting Method [BMSU86, BR87, SZ86], path-indexed.

Section 4 of the paper displays the counting rules it compares against,
e.g. for Example 1.1::

    count(1, 1, 1, tom).
    count(i+1, 2j,   2k, W) :- count(i, j, k, X) & friend(X, W).
    count(i+1, 2j+1, 2k, W) :- count(i, j, k, X) & idol(X, W).

The third index encodes *which sequence of rules* was applied -- the
derivation path -- so the ``count`` relation holds one tuple per
(level, path, value), which is what makes the method Omega(2^n) on
Example 1.1 and Omega(p^n) on the Lemma 4.3 family: it tracks exactly
the per-derivation information that Theorem 2.1 proves irrelevant for
separable recursions.

We implement the method as a direct two-phase evaluator rather than a
rule rewrite (the arithmetic on the indices is not Datalog):

* **descent**: from the query constants, apply every recursive rule's
  *down part* (the nonrecursive atoms connected to the bound columns),
  extending the path by the rule index; ``count`` is the set of
  ``(level, path, bound-column values)`` triples.
* **ascent**: seed per-(level, path) answer sets from the exit rules,
  then replay each path backwards, applying each rule's *up part* (the
  nonrecursive atoms connected to the free columns) in reverse order.

As in the literature, the method requires acyclic data: on cyclic
databases the descent never terminates, which we surface as
:class:`~repro.datalog.errors.CyclicDataError` once the level exceeds
the pigeonhole bound (a path longer than the number of distinct
bound-column vectors must repeat one).  Rules whose down part cannot
bind the next level's bound columns, or whose nonrecursive atoms mix
bound- and free-column variables in one connected component, make the
method inapplicable (:class:`CountingNotApplicable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom, answer_assembler, connected_components
from ..datalog.database import Database, Relation
from ..datalog.errors import CyclicDataError, EvaluationError
from ..datalog.joins import evaluate_body_into
from ..datalog.programs import Program
from ..datalog.rectify import rectify_definition
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..observability.tracer import span_of
from ..stats import EvaluationStats

__all__ = [
    "CountingNotApplicable",
    "CountingPlan",
    "compile_counting",
    "counting_rules_text",
    "evaluate_counting",
]

_CARRY = "__count_carry__"


class CountingNotApplicable(EvaluationError):
    """The recursion/query shape is outside the counting method's class."""


@dataclass(frozen=True)
class _CountingRule:
    """Per-rule split into down and up parts for one binding pattern."""

    index: int
    down_atoms: tuple[Atom, ...]
    up_atoms: tuple[Atom, ...]
    #: head-variable terms at bound positions (join the carry here).
    down_input: tuple[Variable, ...]
    #: recursive-atom terms at bound positions (next level's values).
    down_output: tuple[Variable, ...]
    #: recursive-atom terms at free positions (join ascent carry here).
    up_input: tuple[Variable, ...]
    #: head terms at free positions (the ascended values).
    up_output: tuple[Variable, ...]


@dataclass(frozen=True)
class CountingPlan:
    """A compiled counting evaluation for one binding pattern."""

    predicate: str
    arity: int
    bound_positions: tuple[int, ...]
    free_positions: tuple[int, ...]
    rules: tuple[_CountingRule, ...]
    exit_rules: tuple[Rule, ...]
    head_vars: tuple[Variable, ...]


def compile_counting(program: Program, query: Atom) -> CountingPlan:
    """Split each recursive rule into down/up parts for ``query``.

    Raises :class:`CountingNotApplicable` when some rule cannot be
    split: a connected component of its nonrecursive atoms touches both
    bound-side and free-side variables, or the bound columns of the
    recursive call are not determined by the down part.
    """
    definition = program.definition(query.predicate)
    definition.check_linear()
    if not definition.exit_rules:
        raise CountingNotApplicable(
            f"{query.predicate} has no exit rule"
        )
    all_rules = rectify_definition(
        list(definition.recursive_rules) + list(definition.exit_rules)
    )
    n_rec = len(definition.recursive_rules)
    rec_rules, exit_rules = all_rules[:n_rec], all_rules[n_rec:]

    bound_positions = tuple(
        i for i, t in enumerate(query.args) if isinstance(t, Constant)
    )
    if not bound_positions:
        raise CountingNotApplicable(
            "counting requires at least one bound argument in the query"
        )
    free_positions = tuple(
        i for i in range(query.arity) if i not in bound_positions
    )

    head_vars = tuple(rec_rules[0].head.args) if rec_rules else tuple(
        exit_rules[0].head.args
    )

    counting_rules: list[_CountingRule] = []
    for index, r in enumerate(rec_rules):
        recursive = r.recursive_atom(query.predicate)
        assert recursive is not None
        if any(isinstance(t, Constant) for t in recursive.args):
            raise CountingNotApplicable(
                f"rule {r}: constant in recursive body instance"
            )
        nonrec = r.nonrecursive_body(query.predicate)

        bound_side: set[Variable] = set()
        free_side: set[Variable] = set()
        for p in range(r.head.arity):
            head_term = r.head.args[p]
            body_term = recursive.args[p]
            side = bound_side if p in bound_positions else free_side
            if isinstance(head_term, Variable):
                side.add(head_term)
            if isinstance(body_term, Variable):
                side.add(body_term)
        if bound_side & free_side:
            raise CountingNotApplicable(
                f"rule {r}: variable(s) "
                f"{sorted(v.name for v in bound_side & free_side)} shift "
                f"between bound and free columns"
            )

        down_atoms: list[Atom] = []
        up_atoms: list[Atom] = []
        for component in connected_components(list(nonrec)):
            component_vars: set[Variable] = set()
            for a in component:
                component_vars |= a.variable_set()
            touches_bound = bool(component_vars & bound_side)
            touches_free = bool(component_vars & free_side)
            if touches_bound and touches_free:
                raise CountingNotApplicable(
                    f"rule {r}: a connected component of nonrecursive "
                    f"subgoals touches both bound and free columns; "
                    f"counting cannot split it"
                )
            if touches_free:
                up_atoms.extend(component)
            else:
                # Components touching neither side act as existence
                # filters; they join the descent.
                down_atoms.extend(component)

        down_vars: set[Variable] = set()
        for a in down_atoms:
            down_vars |= a.variable_set()
        head_bound_vars = {
            r.head.args[p]
            for p in bound_positions
            if isinstance(r.head.args[p], Variable)
        }
        for p in bound_positions:
            term = recursive.args[p]
            if term not in down_vars and term not in head_bound_vars:
                raise CountingNotApplicable(
                    f"rule {r}: bound column {p + 1} of the recursive "
                    f"call is not determined by the down part"
                )
        up_vars: set[Variable] = set()
        for a in up_atoms:
            up_vars |= a.variable_set()
        body_free_vars = {
            recursive.args[p]
            for p in free_positions
            if isinstance(recursive.args[p], Variable)
        }
        for p in free_positions:
            term = r.head.args[p]
            if term not in up_vars and term not in body_free_vars:
                raise CountingNotApplicable(
                    f"rule {r}: free column {p + 1} of the head is not "
                    f"determined by the up part"
                )

        if all(
            recursive.args[p] == r.head.args[p] for p in bound_positions
        ):
            raise CountingNotApplicable(
                f"rule {r}: every bound column passes through the "
                f"recursive call unchanged, so the counting descent "
                f"makes no progress on this rule (it would self-loop); "
                f"the method does not apply to this binding pattern"
            )

        counting_rules.append(
            _CountingRule(
                index=index,
                down_atoms=tuple(down_atoms),
                up_atoms=tuple(up_atoms),
                down_input=tuple(r.head.args[p] for p in bound_positions),
                down_output=tuple(recursive.args[p] for p in bound_positions),
                up_input=tuple(recursive.args[p] for p in free_positions),
                up_output=tuple(r.head.args[p] for p in free_positions),
            )
        )

    return CountingPlan(
        predicate=query.predicate,
        arity=query.arity,
        bound_positions=bound_positions,
        free_positions=free_positions,
        rules=tuple(counting_rules),
        exit_rules=tuple(exit_rules),
        head_vars=head_vars,
    )


def counting_rules_text(program: Program, query: Atom) -> str:
    """The Section 4 style ``count`` rule listing for one query.

    Renders the rules the paper displays, e.g. for Example 1.1::

        count(0, 0, 0, tom).
        count(I+1, J, 3*K+1, W) :- count(I, J, K, X) & friend(X, W).
        count(I+1, J, 3*K+2, W) :- count(I, J, K, X) & idol(X, W).

    (the paper writes the two-rule case with factor 2; the general form
    uses ``(p+1)*K + i`` so every rule sequence gets a distinct path
    index).  Purely for display -- the evaluator computes the same
    relation directly.
    """
    plan = compile_counting(program, query)
    p = len(plan.rules)
    seed = ", ".join(
        str(query.args[pos]) for pos in plan.bound_positions
    )
    lines = [f"count(0, 0, 0, {seed})."]
    for cr in plan.rules:
        head_vars = ", ".join(str(v) for v in cr.down_input)
        next_vars = ", ".join(str(v) for v in cr.down_output)
        down = " & ".join(str(a) for a in cr.down_atoms)
        body = f"count(I, J, K, {head_vars})"
        if down:
            body += f" & {down}"
        lines.append(
            f"count(I+1, J, {p + 1}*K+{cr.index + 1}, {next_vars}) "
            f":- {body}."
        )
    return "\n".join(lines)


def evaluate_counting(
    program: Program,
    edb: Database,
    query: Atom,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    max_levels: Optional[int] = None,
    tracer=None,
) -> frozenset[tuple]:
    """Answer ``query`` by the Generalized Counting Method.

    Records the ``count`` relation size and the path-indexed answer
    relation (``count_ans``) in ``stats`` -- the Definition 4.2 measure
    for this method.  Raises :class:`CyclicDataError` when the descent
    exceeds the pigeonhole level bound (cyclic data), and
    :class:`~repro.datalog.errors.BudgetExceeded` when ``budget`` trips
    first.
    """
    if stats is None:
        stats = EvaluationStats()
    if not stats.strategy:
        stats.strategy = "counting"
    plan = compile_counting(program, query)
    seed = tuple(
        query.args[p].value  # type: ignore[union-attr]
        for p in plan.bound_positions
    )
    if max_levels is None:
        n_constants = max(len(edb.distinct_constants()), 1)
        max_levels = n_constants ** len(plan.bound_positions) + 1

    # -- descent: count = {(level, path) -> set of bound-column tuples} --
    # One shared carry relation is refilled per (path) group; rebuilding
    # the view database per group would dominate the runtime once the
    # path count grows exponentially.
    count: dict[tuple[int, tuple[int, ...]], set[tuple]] = {
        (0, ()): {seed}
    }
    count_size = 1
    frontier: list[tuple[tuple[int, ...], set[tuple]]] = [((), {seed})]
    level = 0
    down_carry = Relation(_CARRY, len(plan.bound_positions))
    down_view = edb.with_mounts({_CARRY: down_carry})
    down_bodies = {
        cr.index: (Atom(_CARRY, cr.down_input),) + cr.down_atoms
        for cr in plan.rules
    }
    with span_of(tracer, "counting.descent",
                 seed=list(seed)) as descent_span:
        while frontier:
            budget.check_wall(stats)
            if level >= max_levels:
                raise CyclicDataError(
                    f"counting descent exceeded {max_levels} levels; the "
                    f"data reachable from {seed} is cyclic (or a rule has "
                    f"an empty down part)",
                    stats=stats,
                )
            level += 1
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            new_frontier: list[tuple[tuple[int, ...], set[tuple]]] = []
            for path, values in frontier:
                down_carry.clear()
                down_carry.add_all(values)
                for cr in plan.rules:
                    produced: set[tuple] = set()
                    evaluate_body_into(
                        down_view, down_bodies[cr.index], cr.down_output,
                        produced, stats=stats, order=order, tracer=tracer,
                    )
                    if tracer is not None:
                        tracer.count(f"rule_apps:down#{cr.index}")
                        if produced:
                            tracer.count(
                                f"rule_out:down#{cr.index}", len(produced)
                            )
                    if produced:
                        new_path = path + (cr.index,)
                        count[(level, new_path)] = produced
                        count_size += len(produced)
                        new_frontier.append((new_path, produced))
                if budget is not UNLIMITED:
                    budget.check_relation("count", count_size, stats)
            if tracer is not None:
                tracer.record("frontier_paths", len(new_frontier))
                tracer.record("count_size", count_size)
            stats.record_relation("count", count_size)
            budget.check_relation("count", count_size, stats)
            budget.check_stats(stats)
            frontier = new_frontier
        if descent_span is not None:
            descent_span.attrs["levels"] = level
            descent_span.attrs["count_size"] = count_size

    # -- ascent: seed per-(level, path) answers from the exit rules ----
    answers_at: dict[tuple[int, tuple[int, ...]], set[tuple]] = {}
    answers_size = 0
    with span_of(tracer, "counting.ascent",
                 paths=len(count)) as ascent_span:
        exit_carry = Relation(_CARRY, len(plan.bound_positions))
        exit_view = edb.with_mounts({_CARRY: exit_carry})
        exit_bodies = []
        for exit_rule in plan.exit_rules:
            carry_atom = Atom(
                _CARRY,
                tuple(exit_rule.head.args[p] for p in plan.bound_positions),
            )
            output = tuple(
                exit_rule.head.args[p] for p in plan.free_positions
            )
            exit_bodies.append(
                ((carry_atom,) + tuple(exit_rule.body), output)
            )
        for (lvl, path), values in count.items():
            budget.check_wall(stats)
            exit_carry.clear()
            exit_carry.add_all(values)
            produced: set[tuple] = set()
            for ei, (body, output) in enumerate(exit_bodies):
                before = len(produced)
                evaluate_body_into(exit_view, body, output, produced,
                                   stats=stats, order=order, tracer=tracer)
                if tracer is not None:
                    tracer.count(f"rule_apps:exit#{ei}")
                    if len(produced) > before:
                        tracer.count(
                            f"rule_out:exit#{ei}", len(produced) - before
                        )
            if produced:
                answers_at[(lvl, path)] = produced
                answers_size += len(produced)

        # Replay each path backwards, deepest level first.
        up_carry = Relation(_CARRY, len(plan.free_positions))
        up_view = edb.with_mounts({_CARRY: up_carry})
        up_bodies = {
            cr.index: (Atom(_CARRY, cr.up_input),) + cr.up_atoms
            for cr in plan.rules
        }
        by_level: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for key in count:
            by_level.setdefault(key[0], []).append(key)
        for lvl in range(max(by_level, default=0), 0, -1):
            budget.check_wall(stats)
            for key in by_level.get(lvl, ()):
                if key not in answers_at:
                    continue
                _, path = key
                cr = plan.rules[path[-1]]
                parent = (lvl - 1, path[:-1])
                up_carry.clear()
                up_carry.add_all(answers_at[key])
                produced = set()
                evaluate_body_into(
                    up_view, up_bodies[cr.index], cr.up_output, produced,
                    stats=stats, order=order, tracer=tracer,
                )
                if produced:
                    target = answers_at.setdefault(parent, set())
                    before = len(target)
                    target |= produced
                    answers_size += len(target) - before
            stats.record_relation("count_ans", answers_size)
            budget.check_relation("count_ans", answers_size, stats)
            budget.check_stats(stats)
        if ascent_span is not None:
            ascent_span.attrs["answers_size"] = answers_size

    results = frozenset(
        fact
        for fact in answer_assembler(
            plan.arity, plan.bound_positions, plan.free_positions,
        )(seed, answers_at.get((0, ()), ()))
        if query.matches(fact)
    )
    stats.record_relation("count", count_size)
    stats.record_relation("count_ans", answers_size)
    stats.record_relation("ans", len(results))
    return results
