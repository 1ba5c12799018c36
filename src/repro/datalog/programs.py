"""Programs: rule collections with IDB/EDB structure and dependency analysis.

A :class:`Program` owns a set of rules and answers the structural
questions every transformation in this package asks: which predicates
are IDB (appear in some head), which are EDB (appear in no head), what a
predicate's *definition* is (the set of rules heading it, Section 2 of
the paper), which predicates are recursive, and in what order non-mutual
IDB predicates can be materialized (the paper's Section 2 assumption that
base predicates "do not depend on t" becomes a topological order over
dependency-graph SCCs here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import networkx as nx

from .atoms import Atom
from .errors import ArityError, NotLinearError, SafetyError
from .rules import Rule

__all__ = ["Program", "Definition"]


@dataclass(frozen=True)
class Definition:
    """The definition of one IDB predicate: its rules, split by recursion.

    ``recursive_rules`` are the rules whose bodies mention the predicate;
    ``exit_rules`` (the paper's nonrecursive rule ``r_e``) are the rest.
    """

    predicate: str
    arity: int
    recursive_rules: tuple[Rule, ...]
    exit_rules: tuple[Rule, ...]

    @property
    def rules(self) -> tuple[Rule, ...]:
        """All rules of the definition, recursive first."""
        return self.recursive_rules + self.exit_rules

    @property
    def is_recursive(self) -> bool:
        return bool(self.recursive_rules)

    def is_linear(self) -> bool:
        """True if every recursive rule mentions the predicate once."""
        return all(
            r.is_linear_in(self.predicate) for r in self.recursive_rules
        )

    def check_linear(self) -> None:
        """Raise :class:`NotLinearError` unless the definition is linear."""
        for r in self.recursive_rules:
            if not r.is_linear_in(self.predicate):
                raise NotLinearError(
                    f"rule {r} mentions {self.predicate} more than once "
                    f"in its body; the definition is not linear"
                )

    def base_predicates(self) -> frozenset[str]:
        """Predicates other than ``self.predicate`` used by the rules.

        The paper calls any predicate other than ``t`` a *base predicate*;
        these may be EDB or independently-defined IDB.
        """
        preds: set[str] = set()
        for r in self.rules:
            preds |= r.body_predicates()
        preds.discard(self.predicate)
        return frozenset(preds)


class Program:
    """An ordered collection of rules with cached structural analysis.

    The program is immutable after construction; all derived properties
    (IDB/EDB split, dependency graph, strata) are computed lazily and
    cached.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules: tuple[Rule, ...] = tuple(rules)
        self._check_arities()

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)

    def __repr__(self) -> str:
        return f"Program({len(self._rules)} rules)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    # -- validation --------------------------------------------------------

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}

        def check(a: Atom) -> None:
            known = arities.setdefault(a.predicate, a.arity)
            if known != a.arity:
                raise ArityError(
                    f"predicate {a.predicate} used with arity {a.arity} "
                    f"and {known}"
                )

        for r in self._rules:
            check(r.head)
            for a in r.body:
                check(a)
        self._arities = arities

    def check_safety(self) -> None:
        """Raise :class:`SafetyError` if any rule is unsafe."""
        for r in self._rules:
            r.check_safety()

    def is_safe(self) -> bool:
        try:
            self.check_safety()
        except SafetyError:
            return False
        return True

    # -- structure ---------------------------------------------------------

    def arity(self, predicate: str) -> int:
        """Arity of a predicate mentioned anywhere in the program."""
        try:
            return self._arities[predicate]
        except KeyError:
            raise KeyError(f"predicate {predicate} not used in program") from None

    def check_arity(self, a: Atom) -> None:
        """Raise :class:`ArityError` unless ``a`` uses its predicate at
        the arity the program does."""
        known = self.arity(a.predicate)
        if a.arity != known:
            raise ArityError(
                f"predicate {a.predicate} used with arity {a.arity} "
                f"and {known}"
            )

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates appearing in the head of some rule."""
        return frozenset(r.head.predicate for r in self._rules)

    @cached_property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates appearing only in rule bodies."""
        mentioned: set[str] = set()
        for r in self._rules:
            mentioned |= r.body_predicates()
        return frozenset(mentioned - self.idb_predicates)

    @cached_property
    def predicates(self) -> frozenset[str]:
        """Every predicate mentioned anywhere."""
        return frozenset(self._arities)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """Rules whose head predicate is ``predicate``."""
        return tuple(r for r in self._rules if r.head.predicate == predicate)

    def definition(self, predicate: str) -> Definition:
        """The :class:`Definition` of an IDB predicate."""
        rules = self.rules_for(predicate)
        if not rules:
            raise KeyError(f"{predicate} is not an IDB predicate")
        recursive = tuple(r for r in rules if r.is_recursive_in(predicate))
        exits = tuple(r for r in rules if not r.is_recursive_in(predicate))
        return Definition(predicate, self.arity(predicate), recursive, exits)

    @cached_property
    def dependency_graph(self) -> "nx.DiGraph":
        """Directed graph with an edge p -> q when p's rules use q."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.predicates)
        for r in self._rules:
            for a in r.body:
                graph.add_edge(r.head.predicate, a.predicate)
        return graph

    def depends_on(self, predicate: str) -> frozenset[str]:
        """All predicates reachable from ``predicate``.

        Includes ``predicate`` itself exactly when it is recursive
        (reachable from itself through at least one edge).
        """
        reachable = set(nx.descendants(self.dependency_graph, predicate))
        if self.is_recursive_predicate(predicate):
            reachable.add(predicate)
        return frozenset(reachable)

    def is_recursive_predicate(self, predicate: str) -> bool:
        """True if ``predicate`` depends (transitively) on itself."""
        graph = self.dependency_graph
        if graph.has_edge(predicate, predicate):
            return True
        return bool(self.mutually_recursive_with(predicate))

    def mutually_recursive_with(self, predicate: str) -> frozenset[str]:
        """Other predicates in the same dependency-graph SCC as ``predicate``.

        Empty iff no other predicate is mutually recursive with it (the
        paper's standing assumption for the recursive predicate ``t``).
        """
        for component in nx.strongly_connected_components(self.dependency_graph):
            if predicate in component:
                return frozenset(component) - {predicate}
        return frozenset()

    @cached_property
    def evaluation_order(self) -> tuple[frozenset[str], ...]:
        """SCCs of IDB predicates in bottom-up (dependency-first) order.

        Materializing predicates stratum by stratum in this order is how
        the engine honours the paper's assumption that base predicates do
        not depend on the recursive predicate under evaluation.
        """
        graph = self.dependency_graph
        condensed = nx.condensation(graph)
        order: list[frozenset[str]] = []
        for node in reversed(list(nx.topological_sort(condensed))):
            members = frozenset(condensed.nodes[node]["members"])
            idb_members = members & self.idb_predicates
            if idb_members:
                order.append(idb_members)
        return tuple(order)

    # -- convenience -------------------------------------------------------

    def restricted_to(self, predicates: Iterable[str]) -> "Program":
        """Subprogram containing only rules heading the given predicates."""
        wanted = set(predicates)
        return Program(r for r in self._rules if r.head.predicate in wanted)

    def extended(self, extra: Sequence[Rule]) -> "Program":
        """A new program with ``extra`` rules appended."""
        return Program(self._rules + tuple(extra))
