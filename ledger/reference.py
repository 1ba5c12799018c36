"""An independent reference evaluator for the ledger's workload programs.

It shares no code with the program under test and reads only the
hand-written :class:`~workloads.Recursion` structure, never the rule
text.  The meaning it implements is the plain least-fixpoint one:

    ``t(h)`` holds iff some exit fact ``t0(z)`` agrees with ``h`` on the
    persistent positions and, for every class ``c``, ``h[c]`` reaches
    ``z[c]`` through zero or more of that class's step relations.

Selections are answered with breadth-first closures over Python sets.
Expected answers are computed during set-up, outside every timed
region, once per (database state, query).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

__all__ = ["Reference", "digest"]


def _closure(starts, edges: dict) -> set:
    """Everything reachable from ``starts`` (inclusive) along ``edges``."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        nxt = []
        for node in frontier:
            for succ in edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return seen


class Reference:
    """Answers selections on one recursion over one database state."""

    def __init__(self, recursion, facts: dict) -> None:
        self.recursion = recursion
        self.exit = set(facts.get(recursion.exit, ()))
        # Per class: head value -> body values, and the reverse.
        self.down: list[dict] = []
        self.up: list[dict] = []
        for _positions, steps in recursion.classes:
            down, up = defaultdict(set), defaultdict(set)
            for step in steps:
                for fact in facts.get(step.relation, ()):
                    head = tuple(fact[c] for c in step.head)
                    body = tuple(fact[c] for c in step.body)
                    down[head].add(body)
                    up[body].add(head)
            self.down.append(down)
            self.up.append(up)
        self._by_class: dict[int, dict] = {}
        self._answers: dict[tuple, frozenset] = {}

    def _exit_by_class(self, ci: int) -> dict:
        """Exit facts grouped by their projection onto class ``ci``,
        with that class's positions blanked (so unions deduplicate)."""
        index = self._by_class.get(ci)
        if index is None:
            positions = self.recursion.classes[ci][0]
            blank = (None,) * len(positions)
            grouped = defaultdict(set)
            for z in self.exit:
                grouped[tuple(z[p] for p in positions)].add(
                    _replace(z, positions, blank))
            index = self._by_class[ci] = dict(grouped)
        return index

    def answers(self, pattern: tuple) -> frozenset:
        """All ``t`` facts matching ``pattern`` (``None`` = free)."""
        cached = self._answers.get(pattern)
        if cached is None:
            cached = self._answers[pattern] = frozenset(self._solve(pattern))
        return cached

    def _solve(self, pattern: tuple) -> set:
        classes = self.recursion.classes
        # Start from the exit facts; the first fully bound class narrows
        # them to those it reaches (one forward closure, then set unions).
        current = None
        done = None
        for ci, (positions, _steps) in enumerate(classes):
            bound = tuple(pattern[p] for p in positions)
            if None in bound:
                continue
            index = self._exit_by_class(ci)
            hit: set = set()
            for value in _closure([bound], self.down[ci]):
                hit.update(index.get(value, ()))
            current = {_replace(z, positions, bound) for z in hit}
            done = ci
            break
        if current is None:
            current = set(self.exit)
        # Every other class: facts that differ only in this class's value
        # stand for every head reaching one of those values (one backward
        # closure per group).
        for ci, (positions, _steps) in enumerate(classes):
            if ci == done:
                continue
            blank = (None,) * len(positions)
            want = tuple(pattern[p] for p in positions)
            groups = defaultdict(set)
            for z in current:
                groups[_replace(z, positions, blank)].add(
                    tuple(z[p] for p in positions))
            current = {
                _replace(rest, positions, head)
                for rest, values in groups.items()
                for head in _closure(values, self.up[ci])
                if all(w is None or w == x for w, x in zip(want, head))
            }
        return {
            z for z in current
            if all(w is None or w == x for w, x in zip(pattern, z))
        }


def _replace(fact: tuple, positions: tuple, values: tuple) -> tuple:
    out = list(fact)
    for p, v in zip(positions, values):
        out[p] = v
    return tuple(out)


def digest(answer_sets) -> str:
    """A short stable digest of a sequence of answer sets."""
    h = hashlib.sha256()
    for answers in answer_sets:
        h.update(repr(sorted(answers)).encode())
    return h.hexdigest()[:16]
