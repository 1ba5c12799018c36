"""Atoms (predicate instances) and operations on collections of atoms.

An atom is a predicate symbol applied to a tuple of terms, e.g.
``buys(X, Y)`` or ``friend(tom, W)``.  The paper calls these *predicate
instances*; conjunctions of them form rule bodies and the *strings* of an
expansion.

This module also provides the variable-connectivity machinery behind
Definitions 2.1 and 2.2 (connected predicate instances, maximal connected
sets), which Condition 4 of the separability test relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .terms import Constant, ConstValue, Term, Variable, make_term

__all__ = [
    "Atom",
    "answer_assembler",
    "atom",
    "connected_components",
    "shared_variables",
]


_DERIVED = dict(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate instance: predicate name plus argument terms."""

    predicate: str
    args: tuple[Term, ...]
    # Rule bodies key the plan cache, so atoms are hashed once or twice
    # per join per fixpoint round: the value is computed once here
    # (what the generated __hash__ would return every time) and kept out
    # of equality and repr.
    _hash: int = field(init=False, repr=False, compare=False)
    # What a query derives from its atom, kept on the one atom the parse
    # memo hands out per text: :attr:`shape` and :meth:`values_at`.
    _shape: Optional[tuple] = field(**_DERIVED)
    _bound: Optional[tuple] = field(**_DERIVED)

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ValueError("predicate name must be non-empty")
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def shape(self) -> tuple[int, ...]:
        """Per position ``-1`` for a constant, else the position of the
        variable's first occurrence: the atom, its constants' values aside."""
        shape = self._shape
        if shape is None:
            args = self.args
            shape = tuple([-1 if isinstance(t, Constant) else args.index(t)
                           for t in args])
            object.__setattr__(self, "_shape", shape)
        return shape

    def values_at(self, positions: tuple[int, ...]) -> tuple:
        """The values of the constants at ``positions`` (a query form's
        seed positions, say), kept until other positions are asked."""
        bound = self._bound
        if bound is not None and bound[0] == positions:
            return bound[1]
        args = self.args
        values = tuple([args[p].value for p in positions])
        object.__setattr__(self, "_bound", (positions, values))
        return values

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> tuple[Variable, ...]:
        """All variable occurrences, in position order (with duplicates)."""
        return tuple(t for t in self.args if isinstance(t, Variable))

    def variable_set(self) -> frozenset[Variable]:
        """The set of distinct variables appearing in this atom."""
        return frozenset(t for t in self.args if isinstance(t, Variable))

    def constants(self) -> tuple[Constant, ...]:
        """All constant occurrences, in position order (with duplicates)."""
        return tuple(t for t in self.args if isinstance(t, Constant))

    def is_ground(self) -> bool:
        """True if the atom contains no variables (i.e. it is a fact)."""
        return all(isinstance(t, Constant) for t in self.args)

    def positions_of(self, var: Variable) -> tuple[int, ...]:
        """0-based argument positions at which ``var`` occurs."""
        return tuple(i for i, t in enumerate(self.args) if t == var)

    def has_repeated_variables(self) -> bool:
        """True if some variable occurs in more than one argument position."""
        seen: set[Variable] = set()
        for t in self.args:
            if isinstance(t, Variable):
                if t in seen:
                    return True
                seen.add(t)
        return False

    def matches(self, fact: tuple) -> bool:
        """Whether ``fact`` (a tuple of this atom's arity) answers this
        atom as a query: constants equal, repeated variables consistent.

        The one residual check between a strategy's candidate tuples and
        the query's answers -- every strategy, the oracle's reference
        and the bench cross-checks filter through it.
        """
        seen: dict[Variable, ConstValue] = {}
        for value, term in zip(fact, self.args):
            if isinstance(term, Variable):
                if seen.setdefault(term, value) != value:
                    return False
            elif term.value != value:
                return False
        return True

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution, returning a new atom.

        Variables not in ``mapping`` are left unchanged; constants always
        pass through.
        """
        return Atom(
            self.predicate,
            tuple(
                mapping.get(t, t) if isinstance(t, Variable) else t
                for t in self.args
            ),
        )

    def rename(self, suffix: int) -> "Atom":
        """Rename every variable by appending ``_<suffix>``.

        This is the subscripting step of Procedure Expand (line 12 of
        Figure 1 in the paper).
        """
        from .terms import fresh_variable

        return Atom(
            self.predicate,
            tuple(
                fresh_variable(t, suffix) if isinstance(t, Variable) else t
                for t in self.args
            ),
        )

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:
        return f"Atom({str(self)!r})"


def atom(predicate: str, *args: object) -> Atom:
    """Convenience constructor coercing Python values into terms.

    >>> atom("friend", "X", "tom")
    Atom('friend(X, tom)')
    """
    return Atom(predicate, tuple(make_term(a) for a in args))


def answer_assembler(
    arity: int, selected: Sequence[int], others: Sequence[int]
) -> Callable[[tuple, Iterable[tuple]], set[tuple]]:
    """``(seed, rows) -> full-arity tuples``: ``seed`` holds the values
    of the ``selected`` columns and each row those of the ``others``
    (together every column of the predicate, each once).

    Where each column comes from is worked out once here; every tuple
    is then one concatenation, and one C-level pick unless the seed's
    columns lead or trail the row's.  The one column interleave: a
    Separable plan's ``seen_2`` and the counting method's level-0
    answers both become candidate answers through it.
    """
    if [*selected, *others] == [*range(arity)]:
        return lambda seed, rows: {seed + row for row in rows}
    if [*others, *selected] == [*range(arity)]:
        return lambda seed, rows: {row + seed for row in rows}
    pick = itemgetter(*(
        others.index(p) if p in others else len(others) + selected.index(p)
        for p in range(arity)
    ))
    return lambda seed, rows: {pick(row + seed) for row in rows}


def shared_variables(a: Atom, b: Atom) -> frozenset[Variable]:
    """Variables occurring in both ``a`` and ``b``."""
    return a.variable_set() & b.variable_set()


def connected_components(atoms: Sequence[Atom]) -> list[list[Atom]]:
    """Partition ``atoms`` into maximal connected sets (Definition 2.2).

    Two atoms are connected if they share a variable directly or through a
    chain of variable-sharing atoms (Definition 2.1).  Ground atoms share
    no variables with anything, so each forms its own singleton component.

    The returned components preserve the original ordering of atoms both
    across and within components (components are ordered by their first
    member).
    """
    n = len(atoms)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    by_var: dict[Variable, int] = {}
    for i, a in enumerate(atoms):
        for v in a.variable_set():
            if v in by_var:
                union(by_var[v], i)
            else:
                by_var[v] = i

    groups: dict[int, list[Atom]] = {}
    order: list[int] = []
    for i, a in enumerate(atoms):
        root = find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(a)
    return [groups[root] for root in order]

