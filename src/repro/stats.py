"""Evaluation statistics: the paper's comparison metric, instrumented.

Section 4 of the paper compares algorithms by *the size of the relations
generated* in the course of answering a query (Definition 4.2): a method
is O(f(n)) on a query if every relation it constructs has size O(f(n)),
and Omega(f(n)) if it constructs at least one relation of that size.

:class:`EvaluationStats` records, for every named working relation a
strategy builds (``magic``, ``count``, ``carry_1``, ``seen_2``, the
rewritten IDB, ...), the maximum number of tuples it ever held, plus
secondary counters (iterations, join results produced, base-relation
tuples examined) used by the focus experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = ["EvaluationStats"]


@dataclass(slots=True)
class EvaluationStats:
    """Mutable accumulator for one query evaluation.

    Attributes
    ----------
    strategy:
        Name of the method that produced these numbers.
    relation_sizes:
        ``{relation name: max tuples it ever held}``.  This realizes the
        paper's "relations generated by an algorithm" measure.
    iterations:
        Total fixpoint loop iterations across all loops.
    tuples_produced:
        Join output tuples produced (before duplicate elimination).
    tuples_examined:
        Base-relation tuples inspected by index lookups and scans -- the
        "focus" measure of Section 3.2 ("examines each tuple at most
        once" along paths from the selection constant).
    """

    strategy: str = ""
    relation_sizes: dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    tuples_produced: int = 0
    tuples_examined: int = 0

    # -- recording ----------------------------------------------------------

    def record_relation(self, name: str, size: int) -> None:
        """Record an observation of ``name`` holding ``size`` tuples."""
        if size > self.relation_sizes.get(name, -1):
            self.relation_sizes[name] = size

    def bump_iterations(self, count: int = 1) -> None:
        self.iterations += count

    def bump_produced(self, count: int = 1) -> None:
        self.tuples_produced += count

    def bump_examined(self, count: int = 1) -> None:
        self.tuples_examined += count

    # -- summary ------------------------------------------------------------

    @property
    def max_relation_size(self) -> int:
        """The largest relation generated -- the headline number of E1-E5."""
        return max(self.relation_sizes.values(), default=0)

    @property
    def total_relation_size(self) -> int:
        """Sum of max sizes over all generated relations."""
        return sum(self.relation_sizes.values())

    def largest_relation(self) -> tuple[str, int]:
        """(name, size) of the largest generated relation."""
        if not self.relation_sizes:
            return ("", 0)
        name = max(self.relation_sizes, key=self.relation_sizes.__getitem__)
        return (name, self.relation_sizes[name])

    @property
    def join_fanout(self) -> float:
        """Join outputs per examined base tuple (0.0 before any lookup).

        The profiler's headline selectivity figure: Separable runs on
        focused data keep this near 1 (Section 3.2's "examines each
        tuple at most once"), while an unfocused method grinds through
        tuples that produce nothing.
        """
        if self.tuples_examined <= 0:
            return 0.0
        return self.tuples_produced / self.tuples_examined

    def copy(self) -> "EvaluationStats":
        """An independent snapshot of this accumulator.

        The full-selection memo hands one cached branch accumulator to
        many concurrent consumers; anything that needs to keep mutating
        (a partial-result report, a running aggregate) copies first so
        the shared cache entry stays frozen in practice.
        """
        return EvaluationStats(
            strategy=self.strategy,
            relation_sizes=dict(self.relation_sizes),
            iterations=self.iterations,
            tuples_produced=self.tuples_produced,
            tuples_examined=self.tuples_examined,
        )

    def merge(self, other: "EvaluationStats") -> None:
        """Fold another accumulator into this one (size maxima, counter sums).

        Used when a query is evaluated as a union of subqueries (the
        Lemma 2.1 rewrite): the paper's measure for the union is the
        largest relation any subevaluation generated.
        """
        sizes = self.relation_sizes
        for name, size in other.relation_sizes.items():
            if size > sizes.get(name, -1):
                sizes[name] = size
        self.iterations += other.iterations
        self.tuples_produced += other.tuples_produced
        self.tuples_examined += other.tuples_examined

    def as_dict(self) -> dict[str, object]:
        """Plain-dict summary for serialization and bench reports."""
        return {
            "strategy": self.strategy,
            "max_relation_size": self.max_relation_size,
            "largest_relation": self.largest_relation()[0],
            "relation_sizes": dict(self.relation_sizes),
            "iterations": self.iterations,
            "tuples_produced": self.tuples_produced,
            "tuples_examined": self.tuples_examined,
        }

    def format_table(self) -> str:
        """A small human-readable table of generated relation sizes."""
        lines = [f"strategy: {self.strategy or '<unnamed>'}"]
        width = max((len(n) for n in self.relation_sizes), default=8)
        for name in sorted(self.relation_sizes):
            lines.append(f"  {name:<{width}}  {self.relation_sizes[name]:>10}")
        lines.append(
            f"  iterations={self.iterations} produced={self.tuples_produced} "
            f"examined={self.tuples_examined}"
        )
        return "\n".join(lines)
