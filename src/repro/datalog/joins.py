"""Index-backed join evaluation of conjunctive rule bodies.

Three entry points evaluate a conjunction of atoms against a
:class:`~repro.datalog.database.Database`: :func:`evaluate_body`
enumerates the satisfying substitutions (variable -> constant value),
:func:`evaluate_body_project` yields them projected onto an output
template, and :func:`evaluate_body_into` collects that projection into a
caller's set.  They are the inner loop of every evaluator in this
package: naive, semi-naive, magic, counting, and the Separable carry
loops all reduce to body evaluations.

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

from typing import Iterator, Mapping, Optional, Sequence

from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database
from .plan_cache import EQ, ORDERS, PLAN_CACHE
from .terms import Constant, ConstValue, Variable

__all__ = [
    "evaluate_body",
    "evaluate_body_project",
    "evaluate_body_into",
    "instantiate_args",
    "Bindings",
    "EQ",
]

#: Evaluators bind variables directly to raw constant values.
Bindings = dict[Variable, ConstValue]

_EMPTY_SIG: frozenset[Variable] = frozenset()


def _plan_for(db, atoms, initial_bindings, order, tracer):
    """The cached :class:`JoinPlan` for ``atoms`` under the
    bound-variable signature of ``initial_bindings``; None for the empty
    conjunction (vacuous truth: exactly the initial bindings)."""
    if order not in ORDERS:
        raise ValueError(f"unknown join order {order!r}")
    if not atoms:
        return None
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
    return PLAN_CACHE.plan_for(body, sig, order, db, tracer)


def evaluate_body(
    db: Database,
    atoms: Sequence[Atom],
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
) -> Iterator[Bindings]:
    """Enumerate substitutions satisfying every atom in ``atoms``.

    Compiles (or fetches from :data:`~repro.datalog.plan_cache.PLAN_CACHE`)
    a :class:`~repro.datalog.plan_cache.JoinPlan` for the body and the
    bound-variable signature of ``initial_bindings``, then runs it.

    Parameters
    ----------
    db:
        Source of facts for every predicate mentioned in ``atoms``.
    atoms:
        The conjunction to satisfy.  An empty conjunction yields exactly
        the initial bindings (vacuous truth).
    initial_bindings:
        Pre-bound variables (e.g. selection constants pushed in).
    stats:
        Optional accumulator; base tuples fetched are counted as
        ``tuples_examined`` (folded in when the enumeration ends or is
        abandoned, not per lookup).
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
    plan = _plan_for(db, atoms, initial_bindings, order, tracer)
    if plan is None:
        return iter((dict(initial_bindings) if initial_bindings else {},))
    return plan.execute(db, initial_bindings, stats, tracer)


def evaluate_body_project(
    db: Database,
    atoms: Sequence[Atom],
    output: Sequence,
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
) -> Iterator[tuple[ConstValue, ...]]:
    """``instantiate_args(output, b) for b in evaluate_body(...)``, fused.

    The fixpoint loops all follow a body evaluation with an immediate
    projection onto the rule head; going through a bindings dict per
    derivation costs a dict build plus one hash per variable.  This
    entry point has the compiled plan ground ``output`` (typically
    ``rule.head.args``) directly from its kernel's locals instead.
    Counters, ordering, and result multiset match the two-step form
    exactly, and so does the laziness: a consumer that adds to a body
    relation mid-iteration (naive and semi-naive round 0 do) sees its
    own tuples.
    """
    plan = _plan_for(db, atoms, initial_bindings, order, tracer)
    if plan is None:
        return iter((instantiate_args(output, initial_bindings or {}),))
    return plan.execute_project(tuple(output), db, initial_bindings, stats,
                                tracer)


def evaluate_body_into(
    db: Database,
    atoms: Sequence[Atom],
    output: Sequence,
    sink: set,
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
) -> int:
    """``sink.update(evaluate_body_project(...))``, set-at-a-time.

    The carry loops of Figure 2 only ever collect a join's output into
    a fresh ``produced`` set, so nothing needs to surface tuple by
    tuple: the kernel writes into ``sink`` itself.  Returns the number
    of tuples produced (before duplicate elimination) and, unlike the
    lazy entry points, counts them on ``stats.tuples_produced`` too.
    ``sink`` must not be read by the body.
    """
    plan = _plan_for(db, atoms, initial_bindings, order, tracer)
    if plan is None:
        sink.add(instantiate_args(output, initial_bindings or {}))
        if stats is not None:
            stats.bump_produced()
        return 1
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
