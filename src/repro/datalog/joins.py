"""Index-backed join evaluation of conjunctive rule bodies.

:func:`evaluate_body_into` evaluates a conjunction of atoms against a
:class:`~repro.datalog.database.Database` and adds each satisfying
substitution, projected onto an output template, to a caller's sink in
one call -- a whole set at a time, as each round of Figure 2 computes
its ``produced`` set.  It (or the plan method it calls) is the one way
a rule body runs outside a generated loop: naive evaluation, counting,
semi-naive's first round, the exit join of Figure 2, the Lemma 2.1
sideways pass and provenance all reduce to it.  A :class:`RowList` sink
keeps the order and multiplicity of what the join made, where a caller
can observe them.

Bodies are executed through compiled :class:`~repro.datalog.plan_cache.
JoinPlan` kernels cached in the module-wide
:data:`~repro.datalog.plan_cache.PLAN_CACHE` -- the atom order, index
signatures, and variable slots are derived once per (body,
bound-variable signature, order) and reused across every fixpoint
round.  ``tests/interpreter.py`` is the differential reference for them.

Three atom orders are offered (:data:`~repro.datalog.plan_cache.ORDERS`):

``"left_to_right"``
    Evaluate atoms exactly in the given order -- this matches the paper's
    left-to-right evaluation of expansion strings (Section 3.4) and is
    what the proofs reason about.  ``eq/2`` atoms whose sides are not
    yet bound are deferred until another atom binds a side (they are
    pure filters, so commuting them later never changes the result set).

``"greedy"``
    At each step pick the atom with the most bound argument positions
    (ties broken by smaller relation, then body position).  A standard,
    simple join-order heuristic; results are identical, only the work
    differs.  The order is derived once per call
    (``plan_cache.greedy_permutation``).

``"cost"``
    The selectivity-aware planner (:mod:`repro.datalog.planner`): the
    left-deep order with the smallest estimated sum of intermediate
    result sizes, from relation sizes and per-column distinct counts.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database
from .plan_cache import EQ, ORDERS, PLAN_CACHE
from .terms import Constant, ConstValue, Variable

__all__ = [
    "evaluate_body_into",
    "instantiate_args",
    "RowList",
    "EQ",
]

_EMPTY_SIG: frozenset[Variable] = frozenset()


class RowList(list):
    """A sink that keeps what a join made in the order it made it,
    duplicates included: ``add`` / ``update`` are ``append`` /
    ``extend``."""

    __slots__ = ()
    add = list.append
    update = list.extend


def evaluate_body_into(
    db: Database,
    atoms: Sequence[Atom],
    output: Sequence,
    sink,
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
) -> int:
    """Add ``instantiate_args(output, b)`` to ``sink`` for every
    substitution ``b`` satisfying every atom in ``atoms``.

    Compiles (or fetches from :data:`~repro.datalog.plan_cache.PLAN_CACHE`)
    a :class:`~repro.datalog.plan_cache.JoinPlan` for the body and the
    bound-variable signature of ``initial_bindings``, then runs its
    kernel, which writes into ``sink`` itself.  Returns the number of
    tuples produced (before duplicate elimination).

    Parameters
    ----------
    db:
        Source of facts for every predicate mentioned in ``atoms``.
    atoms:
        The conjunction to satisfy.  An empty conjunction is satisfied
        by exactly the initial bindings (vacuous truth).
    output:
        The term template each solution is grounded into, typically a
        rule head's args.  A variable outside the body is read from
        ``initial_bindings`` (``KeyError`` if it is not there).
    sink:
        Where the tuples go: a ``set``, or a :class:`RowList` where
        order or multiplicity matters.  No body relation may read it.
    initial_bindings:
        Pre-bound variables (e.g. selection constants pushed in).
    stats:
        Optional accumulator; base tuples fetched are counted as
        ``tuples_examined`` and the tuples made as ``tuples_produced``,
        once per call.
    order:
        One of :data:`~repro.datalog.plan_cache.ORDERS`:
        ``"greedy"``, ``"left_to_right"`` (see module docstring) or
        ``"cost"`` (the selectivity-aware planner).
    tracer:
        Optional :class:`~repro.observability.Tracer`; receives
        per-atom lookup counts, tuples fetched, the join fan-out
        (``bindings_out``), and the plan-cache traffic
        (``plan_compiles`` / ``plan_cache_hits`` / ``plan_cache_misses``).
    """
    if order not in ORDERS:
        raise ValueError(f"unknown join order {order!r}")
    if not atoms:
        sink.add(instantiate_args(output, initial_bindings or {}))
        if stats is not None:
            stats.bump_produced()
        return 1
    body = tuple(atoms)
    if initial_bindings:
        sig = frozenset(
            t
            for a in body
            for t in a.args
            if isinstance(t, Variable)
            and initial_bindings.get(t) is not None
        )
    else:
        sig = _EMPTY_SIG
    plan = PLAN_CACHE.plan_for(body, sig, order, db, tracer)
    return plan.execute_into(tuple(output), db, sink, initial_bindings,
                             stats, tracer)


def instantiate_args(
    args: Sequence, bindings: Mapping[Variable, ConstValue]
) -> tuple[ConstValue, ...]:
    """Ground a term sequence under ``bindings`` into a fact tuple.

    Raises ``KeyError`` if some variable is unbound -- for safe rules
    evaluated over their full body this cannot happen.
    """
    values: list[ConstValue] = []
    for term in args:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            values.append(bindings[term])
    return tuple(values)
