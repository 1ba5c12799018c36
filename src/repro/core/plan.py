"""The compiled plan IR for the Separable evaluation schema (Figure 2).

A :class:`SeparablePlan` is the instantiated schema of Section 3.3: a
*down loop* driving the selection constants through the selected
equivalence class (lines 1-7 of Figure 2, producing ``seen_1``), an
*exit join* seeding ``carry_2`` from the nonrecursive rule (line 8), and
an *up loop* applying the remaining classes (lines 10-14, producing
``seen_2 = ans``).

Each loop body is a union of :class:`CarryJoin` terms -- one per rule --
expressed as ordinary conjunctions in which a reserved pseudo-atom
(:data:`CARRY` or :data:`SEEN`) stands for the current carry/seen
relation; executing a term is just a call to
:func:`repro.datalog.joins.evaluate_body` against a view database with
the pseudo-relation attached.  This keeps the compiled form inspectable:
``SeparablePlan.describe()`` prints something very close to the paper's
Figures 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, answer_assembler
from ..datalog.terms import Term, Variable

__all__ = ["CARRY", "SEEN", "CarryJoin", "SeparablePlan"]

#: Pseudo-predicate standing for the current carry relation in a loop body.
CARRY = "__carry__"

#: Pseudo-predicate standing for ``seen_1`` in the exit join.
SEEN = "__seen1__"


@dataclass(frozen=True)
class CarryJoin:
    """One union term of a carry extension operator.

    ``body`` is a conjunction containing the rule's nonrecursive atoms
    plus one pseudo-atom (:data:`CARRY` or :data:`SEEN`); ``output``
    lists the terms whose values form the produced tuple.
    ``rule_index`` names the recursive rule (or exit rule) this term
    came from, so provenance traces can reconstruct the paper's
    justifications ``J(a)`` (Section 3.4).
    """

    label: str
    body: tuple[Atom, ...]
    output: tuple[Term, ...]
    rule_index: int | None = None

    def __str__(self) -> str:
        out = ", ".join(str(t) for t in self.output)
        body = " & ".join(str(a) for a in self.body)
        return f"[{self.label}] ({out}) := {body}"


@dataclass(frozen=True)
class SeparablePlan:
    """The full instantiated schema for one (recursion, selection shape).

    Attributes
    ----------
    predicate, arity:
        The recursive predicate this plan answers selections on.
    selected_positions:
        Seed columns (0-based): the selected class's ``t|e_1`` columns,
        or the bound persistent columns for a pers-driven selection.
    up_positions:
        Columns of ``carry_2`` / ``seen_2`` / ``ans``, in position order:
        everything outside the selected component.
    down_joins:
        Terms of ``f_1`` (empty for pers-driven selections, where the
        paper replaces lines 1-7 by ``seen_1(x_0)``).
    exit_joins:
        Terms of the ``carry_2`` initialization (one per exit rule).
    up_joins:
        Terms of ``f_2`` (rules of every non-selected class).
    selected_class_index:
        1-based index of the selected equivalence class, or ``None`` for
        the pers-driven (dummy class) case.
    tag:
        The *seed tag* variable of a tagged plan, else ``None``.  Every
        relation of a tagged plan carries one extra leading column that
        each join passes through unchanged: seeds ``(i, *seed_i)`` run
        as one fixpoint and ``seen_2`` splits by tag into what each seed
        alone would have produced (the batched Lemma 2.1 union of
        :mod:`repro.core.api`).
    """

    predicate: str
    arity: int
    selected_positions: tuple[int, ...]
    up_positions: tuple[int, ...]
    down_joins: tuple[CarryJoin, ...]
    exit_joins: tuple[CarryJoin, ...]
    up_joins: tuple[CarryJoin, ...]
    selected_class_index: int | None
    tag: Variable | None = None

    @property
    def seed_arity(self) -> int:
        """Columns of ``carry_1`` / ``seen_1``."""
        return len(self.selected_positions) + (self.tag is not None)

    @property
    def answer_arity(self) -> int:
        """Columns of ``carry_2`` / ``seen_2`` / ``ans``."""
        return len(self.up_positions) + (self.tag is not None)

    def assembler(self):
        """``(seed, seen_2 tuples) -> full-arity tuples`` of this plan
        (tags stripped): :func:`~repro.datalog.atoms.answer_assembler`
        over its seed and answer columns."""
        return answer_assembler(
            self.arity, self.selected_positions, self.up_positions)

    def describe(self) -> str:
        """Pretty-print the plan in the style of Figures 3 and 4."""
        lines = [
            f"separable plan for {self.predicate}/{self.arity}",
            f"  seed columns  {tuple(p + 1 for p in self.selected_positions)}"
            + (
                f"  (class e_{self.selected_class_index})"
                if self.selected_class_index is not None
                else "  (persistent columns; dummy class)"
            ),
            f"  answer columns {tuple(p + 1 for p in self.up_positions)}",
        ]
        if self.tag is not None:
            lines.append(
                f"  seed tag      {self.tag}  (leading column of every "
                f"relation: one fixpoint for all seeds)"
            )
        if self.down_joins:
            lines.append("  down loop (f_1):")
            lines.extend(f"    {j}" for j in self.down_joins)
        else:
            lines.append("  down loop: none (seen_1 := {x_0})")
        lines.append("  exit join (carry_2 init):")
        lines.extend(f"    {j}" for j in self.exit_joins)
        if self.up_joins:
            lines.append("  up loop (f_2):")
            lines.extend(f"    {j}" for j in self.up_joins)
        else:
            lines.append("  up loop: none (ans := carry_2)")
        return "\n".join(lines)
