"""Structural analysis behind Definition 2.4: classes, ``t|e_i``, ``t|pers``.

Given the definition of a linear recursive predicate ``t``, this module
computes, per recursive rule ``r_i``,

* ``t^h_i`` -- the argument positions of the *head* instance of ``t``
  whose variable is shared with some nonrecursive body atom,
* ``t^b_i`` -- the same for the *body* instance of ``t``,
* the shifting variables of ``r_i`` (Definition 2.3),

and, across rules, the equivalence classes ``e_1 .. e_n`` induced by
Condition 3 (rules with equal touched-position sets), the class columns
``t|e_i``, and the persistent columns ``t|pers``.

All position indices are 0-based here (the paper writes 1-based
superscripts); rules are rectified before analysis so heads are
identical, constant-free, and repeat-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..datalog.atoms import Atom, connected_components
from ..datalog.programs import Definition, Program
from ..datalog.rectify import is_rectified, rectify_definition
from ..datalog.rules import Rule
from ..datalog.terms import Variable

__all__ = [
    "RuleAnalysis",
    "EquivalenceClass",
    "RecursionAnalysis",
    "analyze_rule",
    "analyze_definition",
]


@dataclass(frozen=True)
class RuleAnalysis:
    """Per-rule structural facts for one rectified recursive rule.

    Attributes
    ----------
    rule:
        The rectified rule.
    index:
        Position of the rule within the definition's recursive rules.
    recursive_atom:
        The single body occurrence of the recursive predicate.
    nonrecursive_atoms:
        The paper's ``a_ij`` conjunction (everything else in the body).
    touched_head / touched_body:
        ``t^h_i`` / ``t^b_i`` as sorted 0-based position tuples.
    shifting:
        Shifting-variable violations as ``(variable, head_pos, body_pos)``
        triples (Definition 2.3); empty when Condition 1 holds.
    connected_component_count:
        Number of maximal connected sets the nonrecursive atoms form
        (Condition 4 requires exactly 1).
    """

    rule: Rule
    index: int
    recursive_atom: Atom
    nonrecursive_atoms: tuple[Atom, ...]
    touched_head: tuple[int, ...]
    touched_body: tuple[int, ...]
    shifting: tuple[tuple[Variable, int, int], ...]
    connected_component_count: int

    @property
    def touched_agree(self) -> bool:
        """Condition 2 for this rule: ``t^h_i == t^b_i``."""
        return self.touched_head == self.touched_body

    @property
    def is_redundant(self) -> bool:
        """True when the nonrecursive atoms touch no position of ``t``.

        Such a rule (e.g. ``t(X,Y) :- c(A,B) & t(X,Y).``) can never
        derive a tuple not already derived without it, so the evaluator
        drops it; see the note in DESIGN.md.
        """
        return not self.touched_head and not self.touched_body


@dataclass(frozen=True)
class EquivalenceClass:
    """One equivalence class ``e_i`` of Condition 3.

    ``positions`` is ``t|e_i`` (sorted, 0-based); ``rule_indices`` index
    into :attr:`RecursionAnalysis.rules`.
    """

    index: int
    positions: tuple[int, ...]
    rule_indices: tuple[int, ...]

    @property
    def width(self) -> int:
        """The paper's ``w(e_i)``: number of columns in ``t|e_i``."""
        return len(self.positions)


@dataclass(frozen=True)
class RecursionAnalysis:
    """Full structural analysis of a separable recursion.

    Only constructed once all four conditions of Definition 2.4 hold
    (plus the structural prerequisites: linearity, safety, variables-only
    recursive body instance).  The Separable compiler consumes this.
    """

    predicate: str
    arity: int
    head_vars: tuple[Variable, ...]
    rules: tuple[RuleAnalysis, ...]
    exit_rules: tuple[Rule, ...]
    classes: tuple[EquivalenceClass, ...]
    redundant_rule_indices: tuple[int, ...]
    # The analysis is part of every full-selection memo key; hashing its
    # rules afresh cost ~11 us per memo operation.  Computed once, kept
    # out of equality and repr (see ``Atom._hash``).
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self) -> tuple:
        return (self.predicate, self.arity, self.head_vars, self.rules,
                self.exit_rules, self.classes, self.redundant_rule_indices)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def pers_positions(self) -> tuple[int, ...]:
        """``t|pers``: positions belonging to no equivalence class."""
        in_class = {p for c in self.classes for p in c.positions}
        return tuple(p for p in range(self.arity) if p not in in_class)

    @cached_property
    def part_analyses(self) -> dict[tuple, "RecursionAnalysis"]:
        """Analyses of this recursion's ``t_part`` rewrites (Lemma 2.1:
        the recursion without one class), per ``(class index,
        allow_disconnected)``.  Filled in on first use by
        :mod:`repro.core.api`; kept here because they are a function of
        the program alone and so live exactly as long as this analysis.
        """
        return {}

    @cached_property
    def compiled_plans(self) -> dict[tuple, object]:
        """The :class:`~repro.core.plan.SeparablePlan` per ``(selected
        class, pers positions)``: a plan is a pure function of
        the analysis and those, so :func:`repro.core.compiler.compile_plan`
        builds each once and every later request reuses the object."""
        return {}

    @cached_property
    def query_forms(self) -> dict[tuple, object]:
        """The :class:`~repro.core.compiler.QueryForm` per query shape
        (:func:`repro.core.compiler.query_form`): bounded by the
        program's arities, never by the constants requests bind."""
        return {}

    def class_of_position(self, position: int) -> EquivalenceClass | None:
        """The class owning ``position``, or ``None`` for persistent ones."""
        for c in self.classes:
            if position in c.positions:
                return c
        return None

    def rules_of_class(self, cls: EquivalenceClass) -> tuple[RuleAnalysis, ...]:
        """The :class:`RuleAnalysis` objects of a class, in rule order."""
        return tuple(self.rules[i] for i in cls.rule_indices)

    def class_rule_index_sets(self) -> tuple[frozenset[int], ...]:
        """Rule-index sets per class, for derivation projections
        (:meth:`repro.datalog.expansion.ExpansionString.project_derivation`)."""
        return tuple(frozenset(c.rule_indices) for c in self.classes)

    def expansion_regex(self, selected_class_index: int | None = None) -> str:
        """The Section 3.2 regular-expression view of the expansion.

        For the motivating recursion the paper writes "Ignoring
        variables, the elements of the expansion can be described by
        the regular expression ``(a1 + a2)* t0 (b1 + b2)*``"; this
        renders the same description for any separable recursion, with
        the selected class (default: ``e_1``) on the left of the exit
        and the remaining classes on the right -- the Section 3.4
        string ordering.
        """

        def rule_label(a: RuleAnalysis) -> str:
            return (
                ".".join(x.predicate for x in a.nonrecursive_atoms)
                or f"r{a.index + 1}"
            )

        def class_star(cls: EquivalenceClass) -> str:
            labels = [rule_label(self.rules[i]) for i in cls.rule_indices]
            inner = " + ".join(labels)
            return f"({inner})*" if len(labels) > 1 else f"{inner}*"

        exit_labels = [
            ".".join(a.predicate for a in r.body) or "true"
            for r in self.exit_rules
        ]
        exit_part = (
            f"({' + '.join(exit_labels)})"
            if len(exit_labels) > 1
            else (exit_labels[0] if exit_labels else "true")
        )

        if selected_class_index is None and self.classes:
            selected_class_index = self.classes[0].index
        left = [
            class_star(c)
            for c in self.classes
            if c.index == selected_class_index
        ]
        right = [
            class_star(c)
            for c in self.classes
            if c.index != selected_class_index
        ]
        return " ".join(left + [exit_part] + right)


def analyze_rule(r: Rule, predicate: str, index: int) -> RuleAnalysis:
    """Compute the per-rule facts for one rectified recursive rule."""
    recursive = r.recursive_atom(predicate)
    if recursive is None:
        raise ValueError(f"rule {r} is not recursive in {predicate}")
    nonrec = r.nonrecursive_body(predicate)

    nonrec_vars: set[Variable] = set()
    for a in nonrec:
        nonrec_vars |= a.variable_set()

    touched_head = tuple(
        p
        for p, term in enumerate(r.head.args)
        if isinstance(term, Variable) and term in nonrec_vars
    )
    touched_body = tuple(
        p
        for p, term in enumerate(recursive.args)
        if isinstance(term, Variable) and term in nonrec_vars
    )

    shifting: list[tuple[Variable, int, int]] = []
    for head_pos, term in enumerate(r.head.args):
        if not isinstance(term, Variable):
            continue
        for body_pos in recursive.positions_of(term):
            if body_pos != head_pos:
                shifting.append((term, head_pos, body_pos))

    components = connected_components(list(nonrec))
    return RuleAnalysis(
        rule=r,
        index=index,
        recursive_atom=recursive,
        nonrecursive_atoms=nonrec,
        touched_head=touched_head,
        touched_body=touched_body,
        shifting=tuple(shifting),
        connected_component_count=len(components),
    )


def analyze_definition(
    definition: Definition,
) -> tuple[tuple[Rule, ...], tuple[Rule, ...], tuple[RuleAnalysis, ...]]:
    """Rectify a definition and analyze each recursive rule.

    Returns ``(rectified recursive rules, rectified exit rules,
    per-rule analyses)``.  Raises
    :class:`~repro.datalog.errors.NotLinearError` on nonlinear rules.
    """
    definition.check_linear()
    all_rules = list(definition.recursive_rules) + list(definition.exit_rules)
    rectified = rectify_definition(all_rules)
    n_rec = len(definition.recursive_rules)
    rec_rules = tuple(rectified[:n_rec])
    exit_rules = tuple(rectified[n_rec:])
    analyses = tuple(
        analyze_rule(r, definition.predicate, i)
        for i, r in enumerate(rec_rules)
    )
    return rec_rules, exit_rules, analyses


def build_classes(
    analyses: tuple[RuleAnalysis, ...],
) -> tuple[EquivalenceClass, ...]:
    """Group rules into equivalence classes by their touched positions.

    Callers must have verified Conditions 2 and 3 first; this simply
    groups rules with equal ``t^h_i`` (redundant rules excluded).  Class
    indices are 1-based to match the paper's ``e_1 .. e_n``.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    order: list[tuple[int, ...]] = []
    for a in analyses:
        if a.is_redundant:
            continue
        key = a.touched_head
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(a.index)
    return tuple(
        EquivalenceClass(
            index=i + 1, positions=key, rule_indices=tuple(groups[key])
        )
        for i, key in enumerate(order)
    )
