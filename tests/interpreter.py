"""The interpreted reference for compiled join plans.

:func:`evaluate_body_interpreted` is :func:`repro.datalog.joins.
evaluate_body` as it was before plan compilation: same contract, but it
re-derives the join order and the bound/free split at every recursion
node and copies the bindings dict per extension.  No evaluator uses it;
it is the executable specification that ``test_plan_cache.py``,
``test_planner.py`` and ``test_property_plan_cache.py`` diff the
compiled path against.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.joins import Bindings
from repro.datalog.plan_cache import EQ, ORDERS
from repro.datalog.terms import Constant, ConstValue, Variable
from repro.stats import EvaluationStats

__all__ = ["evaluate_body_interpreted"]


def _eq_ready(a: Atom, bindings: Mapping[Variable, ConstValue]) -> bool:
    """True if at least one side of an ``eq/2`` atom has a value."""
    for t in a.args:
        if isinstance(t, Constant) or bindings.get(t) is not None:
            return True
    return False


def _eq_lookup(
    a: Atom,
    bindings: Mapping[Variable, ConstValue],
) -> Iterator[Bindings]:
    """Evaluate a built-in ``eq/2`` atom under ``bindings``."""
    if a.arity != 2:
        raise ValueError(f"built-in {EQ} requires arity 2, got {a}")
    left, right = a.args
    left_value = left.value if isinstance(left, Constant) else bindings.get(left)
    right_value = (
        right.value if isinstance(right, Constant) else bindings.get(right)
    )
    if left_value is not None and right_value is not None:
        if left_value == right_value:
            yield dict(bindings)
        return
    if left_value is None and right_value is None:
        raise ValueError(
            f"cannot evaluate {a}: both sides unbound (unsafe rule?)"
        )
    new = dict(bindings)
    if left_value is None:
        new[left] = right_value  # type: ignore[assignment]
    else:
        new[right] = left_value  # type: ignore[index]
    yield new


def _atom_lookup(
    db: Database,
    a: Atom,
    bindings: Mapping[Variable, ConstValue],
    stats: Optional[EvaluationStats],
    tracer=None,
) -> Iterator[Bindings]:
    """Yield extensions of ``bindings`` that satisfy atom ``a``.

    Uses a hash index on the currently-bound positions of ``a`` so that
    only matching tuples are fetched; the remaining (free) positions are
    checked tuple by tuple, handling repeated variables within the atom.
    """
    rel = db.relation(a.predicate)
    if rel is None or len(rel) == 0:
        return

    bound_positions: list[int] = []
    key: list[ConstValue] = []
    free: list[tuple[int, Variable]] = []
    for i, term in enumerate(a.args):
        if isinstance(term, Constant):
            bound_positions.append(i)
            key.append(term.value)
        else:
            value = bindings.get(term)
            if value is not None:
                bound_positions.append(i)
                key.append(value)
            else:
                free.append((i, term))

    candidates = rel.lookup(tuple(bound_positions), tuple(key),
                            tracer=tracer)
    if stats is not None:
        stats.bump_examined(len(candidates))
    if tracer is not None:
        tracer.count("atom_lookups")
        tracer.count("tuples_examined", len(candidates))
    for fact in candidates:
        new = dict(bindings)
        ok = True
        for i, var in free:
            value = fact[i]
            prior = new.get(var)
            if prior is None:
                new[var] = value
            elif prior != value:  # repeated variable within the atom
                ok = False
                break
        if ok:
            if tracer is not None:
                tracer.count("bindings_out")
            yield new


def _choose_next(
    remaining: list[Atom],
    bindings: Mapping[Variable, ConstValue],
    db: Database,
) -> int:
    """Index of the most-constrained remaining atom (greedy heuristic)."""
    best_index = 0
    best_key: tuple[int, int, int] | None = None
    for idx, a in enumerate(remaining):
        bound = 0
        for term in a.args:
            if isinstance(term, Constant) or term in bindings:
                bound += 1
        if a.predicate == EQ:
            # A ready eq atom (>= 1 side bound) is a free filter/assign;
            # an unready one must wait for other atoms to bind a side.
            ready = 0 if bound >= 1 else 1
            key = (ready, -bound, 0)
        else:
            rel = db.relation(a.predicate)
            size = len(rel) if rel is not None else 0
            key = (0, -bound, size)
        if best_key is None or key < best_key:
            best_key = key
            best_index = idx
    return best_index


def evaluate_body_interpreted(
    db: Database,
    atoms: Sequence[Atom],
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
) -> Iterator[Bindings]:
    """:func:`evaluate_body` without plan compilation.

    Re-derives the join order and bound/free split at every recursion
    node and copies the bindings dict per extension.  Kept as the
    executable specification the compiled path is property-tested
    against (``tests/property/test_property_plan_cache.py``); not used
    on any evaluator hot path.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown join order {order!r}")
    if order == "cost":
        # The reference interpreter has no cost model; any valid order
        # yields the same set, so fall back to the greedy heuristic.
        order = "greedy"
    start: Bindings = dict(initial_bindings) if initial_bindings else {}
    if not atoms:
        yield start
        return

    def recurse(remaining: list[Atom], bindings: Bindings) -> Iterator[Bindings]:
        if not remaining:
            yield bindings
            return
        if order == "greedy":
            idx = _choose_next(remaining, bindings, db)
        else:
            # Left to right, except unready eq atoms wait for a binder;
            # if only unready eqs remain, fall through to the first so
            # _eq_lookup raises the unsafe-rule ValueError.
            idx = 0
            for j, cand in enumerate(remaining):
                if cand.predicate != EQ or _eq_ready(cand, bindings):
                    idx = j
                    break
        chosen = remaining[idx]
        rest = remaining[:idx] + remaining[idx + 1:]
        if chosen.predicate == EQ:
            matches = _eq_lookup(chosen, bindings)
        else:
            matches = _atom_lookup(db, chosen, bindings, stats, tracer)
        for extended in matches:
            yield from recurse(rest, extended)

    yield from recurse(list(atoms), start)
