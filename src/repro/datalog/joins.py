"""Index-backed join evaluation of conjunctive rule bodies.

The single entry point :func:`evaluate_body` enumerates all substitutions
(variable -> constant value) that satisfy a conjunction of atoms against
a :class:`~repro.datalog.database.Database`.  It is the inner loop of
every evaluator in this package: naive, semi-naive, magic, counting, and
the Separable carry loops all reduce to body evaluations.

Bodies are executed through compiled :class:`~repro.datalog.plan_cache.
JoinPlan` kernels cached in the module-wide
:data:`~repro.datalog.plan_cache.PLAN_CACHE` -- the atom order, index
signatures, and variable slots are derived once per (body,
bound-variable signature, order) and reused across every fixpoint
round.  The pre-existing interpreter survives as
:func:`evaluate_body_interpreted`: same contract, no compilation, used
as the differential reference for the compiled path.

Two atom orders are offered:

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
    differs.  The compiled path derives the order once per call
    (``plan_cache.greedy_permutation``); the interpreted path
    re-derives it per recursion node.
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
    "evaluate_body_interpreted",
    "instantiate_args",
    "Bindings",
    "EQ",
]

#: Evaluators bind variables directly to raw constant values.
Bindings = dict[Variable, ConstValue]

_EMPTY_SIG: frozenset[Variable] = frozenset()


def _plan_for(db, atoms, initial_bindings, order, tracer, adaptive):
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
    return PLAN_CACHE.plan_for(body, sig, order, db, tracer,
                               adaptive=adaptive)


def evaluate_body(
    db: Database,
    atoms: Sequence[Atom],
    initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
    stats: Optional[EvaluationStats] = None,
    order: str = "greedy",
    tracer=None,
    adaptive=None,
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
        ``"greedy"``, ``"left_to_right"`` (see module docstring),
        ``"cost"`` (the selectivity-aware planner), or ``"adaptive"``
        (``cost`` plus mid-fixpoint re-planning when an
        :class:`~repro.datalog.planner.AdaptiveState` is attached).
    tracer:
        Optional :class:`~repro.observability.Tracer`; receives
        per-atom lookup counts, tuples fetched, the join fan-out
        (``bindings_out``), and the plan-cache traffic
        (``plan_compiles`` / ``plan_cache_hits`` / ``plan_cache_misses``).
    adaptive:
        Optional :class:`~repro.datalog.planner.AdaptiveState` owned by
        the enclosing fixpoint loop; only meaningful with
        ``order="adaptive"``.
    """
    plan = _plan_for(db, atoms, initial_bindings, order, tracer, adaptive)
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
    adaptive=None,
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
    plan = _plan_for(db, atoms, initial_bindings, order, tracer, adaptive)
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
    adaptive=None,
) -> int:
    """``sink.update(evaluate_body_project(...))``, set-at-a-time.

    The carry loops of Figure 2 only ever collect a join's output into
    a fresh ``produced`` set, so nothing needs to surface tuple by
    tuple: the kernel writes into ``sink`` itself.  Returns the number
    of tuples produced (before duplicate elimination) and, unlike the
    lazy entry points, counts them on ``stats.tuples_produced`` too.
    ``sink`` must not be read by the body.
    """
    plan = _plan_for(db, atoms, initial_bindings, order, tracer, adaptive)
    if plan is None:
        sink.add(instantiate_args(output, initial_bindings or {}))
        if stats is not None:
            stats.bump_produced()
        return 1
    return plan.execute_into(tuple(output), db, sink, initial_bindings,
                             stats, tracer)


# ---------------------------------------------------------------------------
# The interpreted reference path
# ---------------------------------------------------------------------------


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
    if order in ("cost", "adaptive"):
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
