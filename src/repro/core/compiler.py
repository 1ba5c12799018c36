"""Instantiating the Separable evaluation schema (Section 3.3).

:func:`compile_plan` turns a :class:`~repro.core.analysis.RecursionAnalysis`
plus a choice of selected component into a
:class:`~repro.core.plan.SeparablePlan`:

* **class-driven** (the selection constants fully bind some equivalence
  class ``e_1``): the down loop applies the rules of ``e_1`` head-to-body
  (computing every value the ``t|e_1`` columns take at recursive call
  sites -- the paper's ``seen_1``); the up loop applies the rules of all
  other classes body-to-head.
* **pers-driven** (a constant sits in ``t|pers``): lines 1-7 collapse to
  ``seen_1 := {x_0}`` and *every* class runs in the up loop, exactly the
  paper's "dummy equivalence class" construction.

The asymmetry mirrors the left-to-right string evaluation of Section
3.4: predicate instances produced by ``e_1`` sit left of ``t_0`` and are
evaluated top-down from the constants; instances of the other classes
sit right of ``t_0`` and are evaluated bottom-up from its tuples.

What the compiler compiles is a query *form*, not a query:
Definition 2.7's choice of selected component and Lemma 2.1's rewrite
class depend only on which columns a query binds and which of its
variables repeat.  :func:`query_form` prepares a :class:`QueryForm`
on the first request of a shape and keeps it with the analysis; every
later request of that shape only binds its constants.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.errors import NotFullSelectionError
from ..datalog.terms import Constant, Variable
from .analysis import EquivalenceClass, RecursionAnalysis, RuleAnalysis
from .detection import require_separable
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan
from .rewrite import choose_rewrite_class, program_without_class
from .selections import Selection, classify_selection

__all__ = ["QueryForm", "ReadSet", "compile_plan", "compile_selection",
           "full_selection_key", "query_form", "read_spec"]


def _down_join(a: RuleAnalysis, positions: tuple[int, ...]) -> CarryJoin:
    """``f_1`` term for one rule of the selected class.

    The carry holds values of the *head* variables at the class columns;
    joining the rule's nonrecursive atoms yields the corresponding
    *body*-instance values -- the bindings passed down to the next
    recursion level (compare Figure 3's
    ``carry_1(W) := carry_1(X) & f(X, W)``).
    """
    carry_atom = Atom(CARRY, tuple(a.rule.head.args[p] for p in positions))
    output = tuple(a.recursive_atom.args[p] for p in positions)
    return CarryJoin(
        label=f"r{a.index + 1}",
        body=(carry_atom,) + a.nonrecursive_atoms,
        output=output,
        rule_index=a.index,
    )


def _up_join(a: RuleAnalysis, up_positions: tuple[int, ...]) -> CarryJoin:
    """``f_2`` term for one rule of a non-selected class.

    The carry holds values of the *body*-instance terms at every answer
    column; the rule's own class columns get joined through its
    nonrecursive atoms to produce the *head* values, while columns of
    other classes and persistent columns pass through unchanged
    (their body terms equal their head terms by Conditions 1-2).
    """
    carry_atom = Atom(
        CARRY, tuple(a.recursive_atom.args[p] for p in up_positions))
    output = tuple(a.rule.head.args[p] for p in up_positions)
    return CarryJoin(
        label=f"r{a.index + 1}",
        body=(carry_atom,) + a.nonrecursive_atoms,
        output=output,
        rule_index=a.index,
    )


def _exit_join(
    exit_rule,
    exit_index: int,
    selected_positions: tuple[int, ...],
    up_positions: tuple[int, ...],
) -> CarryJoin:
    """``carry_2`` initialization term for one exit rule (line 8).

    Joins the exit rule's body with ``seen_1`` on the selected columns
    and projects the answer columns (compare
    ``carry_2(W) := seen_1(X) & t_0(X, W)``).
    """
    seen_atom = Atom(
        SEEN, tuple(exit_rule.head.args[p] for p in selected_positions))
    output = tuple(exit_rule.head.args[p] for p in up_positions)
    return CarryJoin(
        label=f"exit{exit_index + 1}",
        body=(seen_atom,) + tuple(exit_rule.body),
        output=output,
        rule_index=exit_index,
    )


def compile_plan(
    analysis: RecursionAnalysis,
    selected_class: EquivalenceClass | None = None,
    pers_positions: Sequence[int] = (),
) -> SeparablePlan:
    """Instantiate the schema for one selected component.

    Exactly one of ``selected_class`` / ``pers_positions`` must be
    given: a fully bound equivalence class, or the bound persistent
    columns for the dummy-class case.

    Compiled once per argument pair and kept with the analysis
    (:attr:`RecursionAnalysis.compiled_plans`).
    """
    plans = analysis.compiled_plans
    key = (selected_class, tuple(pers_positions))
    if key in plans:
        return plans[key]
    if (selected_class is None) == (not pers_positions):
        raise ValueError(
            "provide exactly one of selected_class or pers_positions"
        )

    if selected_class is not None:
        selected_positions = selected_class.positions
        down_rules = analysis.rules_of_class(selected_class)
        up_classes = tuple(
            c for c in analysis.classes if c.index != selected_class.index
        )
        selected_index: int | None = selected_class.index
    else:
        bad = [p for p in pers_positions if p not in analysis.pers_positions]
        if bad:
            raise ValueError(
                f"positions {bad} are not persistent columns of "
                f"{analysis.predicate}"
            )
        selected_positions = tuple(sorted(pers_positions))
        down_rules = ()
        up_classes = analysis.classes
        selected_index = None

    up_positions = tuple(
        p for p in range(analysis.arity) if p not in selected_positions
    )

    down_joins = tuple(
        _down_join(a, selected_positions) for a in down_rules
    )
    up_joins = tuple(
        _up_join(a, up_positions)
        for cls in up_classes
        for a in analysis.rules_of_class(cls)
    )
    exit_joins = tuple(
        _exit_join(r, i, selected_positions, up_positions)
        for i, r in enumerate(analysis.exit_rules)
    )
    plan = plans[key] = SeparablePlan(
        predicate=analysis.predicate,
        arity=analysis.arity,
        selected_positions=selected_positions,
        up_positions=up_positions,
        down_joins=down_joins,
        exit_joins=exit_joins,
        up_joins=up_joins,
        selected_class_index=selected_index,
    )
    return plan


def compile_selection(selection: Selection) -> SeparablePlan:
    """Compile a plan for a classified *full* selection."""
    if not selection.is_full:
        raise NotFullSelectionError(
            f"query {selection.query} is not a full selection; use the "
            f"Lemma 2.1 rewrite (repro.core.rewrite) first"
        )
    if selection.selected_class is not None:
        return compile_plan(
            selection.analysis, selected_class=selection.selected_class
        )
    return compile_plan(
        selection.analysis, pers_positions=selection.selected_positions
    )


def full_selection_key(
    analysis: RecursionAnalysis,
    selected_class: Optional[EquivalenceClass],
    selected_positions: tuple[int, ...],
    seed: tuple,
    order: str,
) -> tuple:
    """The memo key identifying one full-selection carry/seen run.

    A compiled plan is a pure function of the analysis and the selected
    component, and a run of it is additionally a function of the seed
    vector and the join order, so this tuple keys exactly the Lemma 2.1
    unit of work a cross-request memo may share (its entry is the answer
    set the full selection returns).  A weak reference to the analysis
    (it keeps its hash: no Python ``__hash__`` call) keeps ``t`` and its
    ``t_part`` rewrite -- same name, different programs -- apart.  The
    service adds the EDB's state number; the first two members are the
    ``key`` of the selection's :class:`QueryForm`.
    """
    return _full_form(analysis, selected_class, selected_positions).key + (
        tuple(seed), order)


@dataclass(frozen=True, eq=False)
class QueryForm:
    """A query shape compiled: what Separable decides from which columns
    carry constants and which variables repeat, prepared once per shape
    by :func:`query_form`; a request only binds its constants.

    A *full* form (Definition 2.7) has a ``plan``: a request's seed is
    its constants at ``seed_positions``, its memo key ``key + (seed,
    order)`` (:func:`full_selection_key`), ``assemble`` turns the
    plan's ``seen_2`` into answers and ``reads`` is its
    :func:`read_spec`.  A *partial* form is Lemma 2.1 on
    the class ``batch`` is driven by: ``part`` is the full form of
    ``t_part``, ``batch`` the full form every sideways seed runs,
    ``sideways`` the ``(nonrecursive atoms, seed terms + head terms)``
    of each rule of the class, and ``init`` the head variables the
    constants at ``seed_positions`` bind.  A form with neither has no
    constants.  ``vacuous``: every constant sits where evaluation puts
    it and no variable repeats, so answers need no residual match.
    """

    analysis: RecursionAnalysis
    seed_positions: tuple[int, ...] = ()
    plan: Optional[SeparablePlan] = None
    key: tuple = ()
    assemble: Optional[Callable] = None
    reads: Optional[dict] = None
    part: Optional["QueryForm"] = None
    batch: Optional["QueryForm"] = None
    sideways: tuple = ()
    init: tuple = ()
    vacuous: bool = False

    def seed(self, query: Atom) -> tuple:
        """The constants ``query`` binds at the seed positions."""
        return query.values_at(self.seed_positions)

    def full_plan(self, query: Atom) -> SeparablePlan:
        """``plan``, or :class:`NotFullSelectionError` for ``query``."""
        if self.plan is None:
            raise NotFullSelectionError(
                f"query {query} is not a full selection on "
                f"{self.analysis.predicate}: no persistent column is "
                f"bound and no equivalence class is fully bound"
            )
        return self.plan


def query_form(
    analysis: RecursionAnalysis,
    query: Atom,
    allow_disconnected: bool = False,
) -> QueryForm:
    """The form of ``query`` on ``analysis``, prepared on first use.

    Kept in :attr:`RecursionAnalysis.query_forms` per predicate, Lemma
    2.1 mode and :attr:`Atom.shape <repro.datalog.atoms.Atom.shape>`, so
    the table is bounded by the program, not by the traffic.  A query
    that cannot be classified raises on every call and is never kept;
    two threads meeting a new shape may both prepare it, and either
    result is the same form.
    """
    shape = (query.predicate, allow_disconnected, query.shape)
    forms = analysis.query_forms
    form = forms.get(shape)
    if form is None:
        form = forms[shape] = _prepare(analysis, query, allow_disconnected)
    return form


def _full_form(
    analysis: RecursionAnalysis,
    selected_class: Optional[EquivalenceClass],
    positions: tuple[int, ...],
    vacuous: bool = False,
) -> QueryForm:
    if selected_class is not None:
        plan = compile_plan(analysis, selected_class=selected_class)
        component: tuple = ("class", selected_class.index)
    else:
        plan = compile_plan(analysis, pers_positions=positions)
        component = ("pers", positions)
    return QueryForm(analysis, plan.selected_positions, plan,
                     (weakref.ref(analysis), component), plan.assembler(),
                     read_spec(plan), vacuous=vacuous)


#: The stage of a term in a :func:`read_spec`: a down, exit or up term.
DOWN, EXIT, UP = 0, 1, 2


def read_spec(plan: SeparablePlan) -> dict:
    """``relation -> ((stage, positions, cols), ...)``: a row of a
    term's atom takes part in a run of ``plan`` only if its values at
    ``positions`` are some carry row's at the pseudo-atom columns that
    hold the same variables (Theorem 2.1), and every carry row ends up
    in ``seen_1`` (``DOWN`` and ``EXIT`` terms) or ``seen_2`` (``UP``
    terms): ``cols`` are its columns, ``None`` all of that set's, in
    order.  An atom sharing no variable with the carry has none."""
    whole = (tuple(range(plan.seed_arity)), tuple(range(plan.answer_arity)))
    reads: dict[str, set] = {}
    for stage, joins in ((DOWN, plan.down_joins), (EXIT, plan.exit_joins),
                         (UP, plan.up_joins)):
        for join in joins:
            pseudo, *atoms = join.body
            for atom in atoms:
                pairs = [(i, pseudo.args.index(t))
                         for i, t in enumerate(atom.args)
                         if isinstance(t, Variable) and t in pseudo.args]
                cols = tuple(j for _, j in pairs)
                reads.setdefault(atom.predicate, set()).add((
                    stage, tuple(i for i, _ in pairs),
                    None if cols == whole[stage == UP] else cols))
    return {name: tuple(terms) for name, terms in reads.items()}


class ReadSet:
    """A run's :func:`read_spec` over its ``seen_1`` and ``seen_2``;
    ``absorbed``: the runs of other seeds its down loop took in whole
    (:func:`~repro.core.evaluator.execute_plan`'s ``known``);
    ``resumed``: the run went on from an earlier run's sets
    (``execute_plan``'s ``resume``)."""

    __slots__ = ("spec", "seen", "keys", "met", "absorbed", "resumed")

    def __init__(self, spec: dict, seen_1: set, seen_2,
                 absorbed: int = 0, resumed: bool = False) -> None:
        self.spec, self.seen, self.keys = spec, (seen_1, seen_2), {}
        #: ``(relation, row) -> whether it lies in the read set``.
        self.met: dict[tuple, bool] = {}
        self.absorbed, self.resumed = absorbed, resumed

    def rows(self, stage: int, cols):
        """The rows of the set a ``stage`` term reads by their values at
        ``cols`` (kept): the set itself where ``cols`` is ``None``.

        Readers in other threads may ask at once (a resume outside the
        memo lock, a carry under it): a projection is built whole and
        published by one assignment, so none sees it half filled."""
        up = stage == UP
        if cols is None:
            return self.seen[up]
        rows = self.keys.get((up, cols))
        if rows is None:
            rows = {}
            for row in self.seen[up]:
                rows.setdefault(tuple([row[c] for c in cols]), []).append(row)
            self.keys[up, cols] = rows
        return rows

    def meets(self, written: dict) -> bool:
        """Whether a row of ``written`` (``relation -> rows``, ``None``
        if unknown) lies in the read set; the answer for each row is
        kept."""
        met = self.met
        for name, rows in written.items():
            terms = self.spec.get(name)
            if not terms:
                continue
            if rows is None:
                return True
            for r in rows:
                hit = met.get((name, r))
                if hit is None:
                    hit = met[name, r] = any(
                        tuple([r[p] for p in positions])
                        in self.rows(stage, cols)
                        for stage, positions, cols in terms)
                if hit:
                    return True
        return False

    def joined(self, inserted: dict) -> tuple[set, set, set]:
        """Per stage, the rows of its set that a row of ``inserted``
        (``relation -> rows``) joins in a term of that stage: from them
        alone such a term can derive a row the run did not (a resume's
        carries)."""
        found: tuple[set, set, set] = (set(), set(), set())
        for name, rows in inserted.items():
            for stage, positions, cols in self.spec.get(name, ()):
                keys = self.rows(stage, cols)
                for r in rows:
                    key = tuple([r[p] for p in positions])
                    if cols is None:
                        if key in keys:
                            found[stage].add(key)
                    else:
                        found[stage].update(keys.get(key, ()))
        return found


def _part_analysis(
    analysis: RecursionAnalysis, cls: EquivalenceClass,
    allow_disconnected: bool,
) -> RecursionAnalysis:
    """The analysis of ``t_part`` (the recursion without ``cls``): a
    function of the program alone, so derived once and kept with
    ``analysis`` -- 0.17 ms to re-derive."""
    key = (cls.index, allow_disconnected)
    part = analysis.part_analyses.get(key)
    if part is None:
        part = analysis.part_analyses[key] = require_separable(
            program_without_class(analysis, cls), analysis.predicate,
            allow_disconnected=allow_disconnected,
        )
    return part


def _prepare(analysis: RecursionAnalysis, query: Atom,
             allow_disconnected: bool) -> QueryForm:
    """Classify, rewrite and compile the shape of ``query``."""
    selection = classify_selection(analysis, query)
    variables = [t for t in query.args if not isinstance(t, Constant)]
    distinct = len(set(variables)) == len(variables)
    if selection.is_full:
        placed = selection.selected_positions
        return _full_form(analysis, selection.selected_class, placed,
                          distinct and set(selection.bound) <= set(placed))
    if not selection.has_constants:
        return QueryForm(analysis)
    # Lemma 2.1: the same query is full on t_part (cls's columns are
    # persistent there), and a sideways pass through each rule of cls
    # seeds full selections of the original recursion with the head
    # values of cls's columns they answer for.
    cls = choose_rewrite_class(analysis, set(selection.bound))
    head_vars = analysis.head_vars
    head_terms = tuple(head_vars[p] for p in cls.positions)
    bound = tuple(p for p in cls.positions if p in selection.bound)
    return QueryForm(
        analysis, bound,
        part=query_form(_part_analysis(analysis, cls, allow_disconnected),
                        query),
        batch=_full_form(analysis, cls, cls.positions),
        sideways=tuple(
            (a.nonrecursive_atoms,
             tuple(a.recursive_atom.args[p] for p in cls.positions)
             + head_terms)
            for a in analysis.rules_of_class(cls)),
        init=tuple(head_vars[p] for p in bound),
        # The rewritten class's bound columns seed the sideways pass
        # and are persistent (so selected) in t_part.
        vacuous=distinct and set(selection.bound) <= set(cls.positions),
    )
