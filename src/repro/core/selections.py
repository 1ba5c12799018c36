"""Selections on a separable recursion and the full-selection test.

A query like ``buys(tom, Y)?`` is a *selection*: some argument positions
of the query predicate carry constants.  Definition 2.7 calls a
selection *full* when either

* some persistent column (``t|pers``) carries a constant, or
* every column of at least one equivalence class ``e_i`` carries one.

The Separable evaluation schema (Figure 2) handles full selections
directly; partial selections go through the Lemma 2.1 rewrite
(:mod:`repro.core.rewrite`).  This module classifies a query against a
:class:`~repro.core.analysis.RecursionAnalysis` and picks the *selected
component* -- the dummy pers class or a fully bound equivalence class --
the compiler will drive the first carry loop with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.atoms import Atom
from ..datalog.errors import NotFullSelectionError
from ..datalog.terms import Constant, ConstValue, Variable
from .analysis import EquivalenceClass, RecursionAnalysis

__all__ = [
    "Selection",
    "classify_selection",
]


@dataclass(frozen=True)
class Selection:
    """A classified selection query on a separable recursion.

    Attributes
    ----------
    query:
        The original query atom.
    bound:
        ``{position: constant value}`` for every constant in the query.
    selected_class:
        The fully bound equivalence class driving the first carry loop,
        or ``None`` when the selection is driven by persistent columns
        (the paper's "dummy equivalence class" case) -- or when the
        selection is not full.
    selected_positions:
        The seed columns: the selected class's positions, or the bound
        persistent positions for a pers-driven selection.
    """

    query: Atom
    analysis: RecursionAnalysis
    bound: dict[int, ConstValue]
    selected_class: Optional[EquivalenceClass]
    selected_positions: tuple[int, ...]

    @property
    def is_full(self) -> bool:
        """Definition 2.7."""
        return bool(self.selected_positions)

    @property
    def has_constants(self) -> bool:
        return bool(self.bound)

    @property
    def seed(self) -> tuple[ConstValue, ...]:
        """The vector ``x_0`` of selection constants, in seed-column order."""
        return tuple(self.bound[p] for p in self.selected_positions)

    def residual_bound(self) -> dict[int, ConstValue]:
        """Constants outside the selected component.

        Definition 2.7 only needs one component fully bound; any other
        constants in the query are applied as a final filter on the
        answers (they cannot seed a second carry loop).
        """
        return {
            p: v
            for p, v in self.bound.items()
            if p not in self.selected_positions
        }

    def partially_bound_classes(self) -> tuple[EquivalenceClass, ...]:
        """Classes with at least one but not all columns bound.

        Nonempty exactly when a Lemma 2.1 rewrite is needed (assuming
        the selection has constants but is not full).
        """
        result = []
        for cls in self.analysis.classes:
            bound = sum(1 for p in cls.positions if p in self.bound)
            if 0 < bound < len(cls.positions):
                result.append(cls)
        return tuple(result)


def classify_selection(
    analysis: RecursionAnalysis, query: Atom
) -> Selection:
    """Classify ``query`` against the analysis (Definition 2.7).

    Picks the selected component with this preference order:

    1. bound persistent columns, if any (the dummy-class case -- always
       full, and the cheapest since it skips the first loop entirely);
    2. otherwise, the fully bound equivalence class with the most
       columns (most selective seed).
    """
    if query.predicate != analysis.predicate:
        raise ValueError(
            f"query {query} does not match predicate {analysis.predicate}"
        )
    if query.arity != analysis.arity:
        raise ValueError(
            f"query {query} has arity {query.arity}, expected "
            f"{analysis.arity}"
        )
    bound: dict[int, ConstValue] = {
        p: t.value
        for p, t in enumerate(query.args)
        if isinstance(t, Constant)
    }
    # Repeated query variables (e.g. t(X, X)?) add an implicit equality;
    # they do not affect fullness and are filtered by the caller.

    pers_bound = tuple(
        p for p in analysis.pers_positions if p in bound
    )
    if pers_bound:
        return Selection(
            query=query,
            analysis=analysis,
            bound=bound,
            selected_class=None,
            selected_positions=pers_bound,
        )

    best: Optional[EquivalenceClass] = None
    for cls in analysis.classes:
        if all(p in bound for p in cls.positions):
            if best is None or cls.width > best.width:
                best = cls
    if best is not None:
        return Selection(
            query=query,
            analysis=analysis,
            bound=bound,
            selected_class=best,
            selected_positions=best.positions,
        )
    return Selection(
        query=query,
        analysis=analysis,
        bound=bound,
        selected_class=None,
        selected_positions=(),
    )


def require_full(selection: Selection) -> Selection:
    """Return the selection, or raise if it is not full (Definition 2.7)."""
    if not selection.is_full:
        raise NotFullSelectionError(
            f"query {selection.query} is not a full selection on "
            f"{selection.analysis.predicate}: no persistent column is "
            f"bound and no equivalence class is fully bound"
        )
    return selection
