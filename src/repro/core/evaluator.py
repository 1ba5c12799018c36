"""Executing compiled Separable plans (the while loops of Figure 2).

:func:`execute_plan` runs the two carry/seen fixpoint loops over a
database and returns the final ``seen_2`` tuples (the answer columns).
Termination follows Lemma 3.4: the set differences at lines 5 and 12
guarantee no tuple enters a carry twice, so each loop runs at most
``n^k`` iterations -- cyclic data is handled for free, in contrast to
the Counting and Henschen-Naqvi baselines.

The relations generated (``carry_1``, ``seen_1``, ``carry_2``,
``seen_2``, ``ans``) are recorded in the
:class:`~repro.stats.EvaluationStats` under exactly those names; they
are what Lemma 4.1's ``O(n^max(w(e1), k-w(e1)))`` bound speaks about.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Optional

from ..budget import Budget, UNLIMITED
from ..datalog.database import Database, Relation
from ..datalog.plan_cache import PLAN_CACHE
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan

__all__ = ["execute_plan", "loop_source"]


def _apply_joins(
    joins: Iterable[CarryJoin],
    view: Database,
    stats: Optional[EvaluationStats],
    order: str,
    tracer=None,
    label: Optional[str] = None,
) -> set[tuple]:
    """Evaluate a union of carry-join terms against a view database.

    With a live ``tracer`` and a ``label`` (the loop's relation name),
    each join term's applications and distinct outputs are attributed
    to ``rule_apps:<label>#<i>`` / ``rule_out:<label>#<i>`` counters --
    the compiled-plan analogue of the per-rule rows the profiler shows
    for rewritten-program strategies.

    It goes to the plan cache and the plan's set-at-a-time kernel
    directly: what :func:`~repro.datalog.joins.evaluate_body_into` would
    re-derive per call is invariant here (a carry join's body and output
    are non-empty tuples with nothing pre-bound).
    """
    produced: set[tuple] = set()
    plan_for = PLAN_CACHE.plan_for
    unbound: frozenset = frozenset()
    for ji, join in enumerate(joins):
        before = len(produced)
        plan_for(join.body, unbound, order, view, tracer).execute_into(
            join.output, view, produced, None, stats, tracer)
        if tracer is not None and label is not None:
            tracer.count(f"rule_apps:{label}#{ji}")
            out = len(produced) - before
            if out:
                tracer.count(f"rule_out:{label}#{ji}", out)
    return produced


def _carry_loop(
    joins: tuple[CarryJoin, ...],
    initial: set[tuple],
    arity: int,
    db: Database,
    carry_name: str,
    seen_name: str,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
) -> set[tuple]:
    """One while loop of Figure 2, as the paper writes it; returns the
    final ``seen`` set.  The reference :func:`_generated_loop` is diffed
    against: it runs only under :func:`_reference_loops`.

    ``initial`` seeds both carry and seen (lines 1-2 / 8-9); each
    iteration applies the union of ``joins`` to the carry, removes
    already-seen tuples (the crucial set difference), and accumulates.
    A live ``tracer`` records a ``separable.loop`` span with the
    per-iteration post-difference carry sizes -- Lemma 3.4's
    disjointness makes ``seed + sum(carries) == |seen|`` an invariant
    the differential oracle checks on every traced run.
    """
    seen: set[tuple] = set(initial)
    carry: set[tuple] = set(initial)
    stats.record_relation(carry_name, len(carry))
    stats.record_relation(seen_name, len(seen))
    # One view and one carry relation for the whole loop: each round
    # refills the relation in place (a clear + bulk add_all) instead of
    # rebuilding the Database wrapper and re-copying the base mounts.
    carry_rel = Relation(CARRY, arity)
    view = db.with_mounts({CARRY: carry_rel})
    with span_of(tracer, "separable.loop", relation=seen_name,
                 seed=len(initial)) as span:
        while carry:
            budget.check_wall(stats)
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            if joins:  # else nothing reads the carry relation
                carry_rel.clear()
                carry_rel.add_all(carry)
            produced = _apply_joins(joins, view, stats, order, tracer,
                                    label=seen_name)
            carry = produced - seen
            seen |= carry
            if tracer is not None:
                tracer.record("carry", len(carry))
            stats.record_relation(carry_name, len(carry))
            stats.record_relation(seen_name, len(seen))
            budget.check_relation(seen_name, len(seen), stats)
            budget.check_stats(stats)
        if span is not None:
            span.attrs["final_seen"] = len(seen)
    return seen


def _generated_loop(
    joins: tuple[CarryJoin, ...],
    initial: set[tuple],
    db: Database,
    carry_name: str,
    seen_name: str,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
) -> set[tuple]:
    """:func:`_carry_loop`, compiled: the same loop, relation records,
    budget checks, span and counters, run by the generated function of
    :meth:`~repro.datalog.plan_cache.PlanCache.loop_for`.

    That function is valid over an interval of ``len(carry)``: its size
    rank among the joins' fixed relations (``order="greedy"`` plans
    depend on it) or its power-of-two bucket (``order="cost"``).  When a
    round leaves the interval it hands ``carry`` back and this driver
    asks for the function of the new one -- one plan lookup per join per
    interval change where the reference loop makes one per join per
    round.
    """
    seen: set[tuple] = set(initial)
    carry: set[tuple] = set(initial)
    stats.record_relation(carry_name, len(carry))
    stats.record_relation(seen_name, len(seen))
    with span_of(tracer, "separable.loop", relation=seen_name,
                 seed=len(initial)) as span:
        while carry:
            run = PLAN_CACHE.loop_for(joins, CARRY, carry, order, db, tracer)
            carry = run(carry, seen, carry_name, seen_name, stats, budget,
                        tracer)
        if span is not None:
            span.attrs["final_seen"] = len(seen)
    return seen


_REFERENCE: ContextVar[bool] = ContextVar("reference_loops", default=False)


@contextmanager
def _reference_loops():
    """Within the block, :func:`execute_plan` (in this thread) runs
    every carry loop through :func:`_carry_loop`: how the differential
    oracle and the tests get the reference the generated loop is diffed
    against."""
    token = _REFERENCE.set(True)
    try:
        yield
    finally:
        _REFERENCE.reset(token)


def loop_source(plan: SeparablePlan, which: str,
                traced: bool = False) -> list[str]:
    """The generated Python texts ``plan``'s ``which`` (``"down"`` or
    ``"up"``) loop has run in this process -- what tracebacks through a
    ``<separable-loop:...>`` file show.  One text per set of join orders
    and live terms the loop was entered with (see
    :meth:`~repro.datalog.plan_cache.PlanCache.loops_for`): none before
    the first run, several once ``carry`` has changed its size rank."""
    joins = getattr(plan, f"{which}_joins")
    return list(dict.fromkeys(
        source for was_traced, source, *_ in PLAN_CACHE.loops_for(joins)
        if was_traced == traced))


def execute_plan(
    plan: SeparablePlan,
    db: Database,
    seeds: Iterable[tuple],
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
) -> frozenset[tuple]:
    """Run a compiled plan from the given seed tuples.

    ``seeds`` are tuples over the plan's seed columns -- for an ordinary
    full selection this is the single vector ``x_0`` of selection
    constants; the Lemma 2.1 evaluation passes sideways-computed seed
    sets through the same entry point.

    Returns the final ``seen_2``: tuples over ``plan.up_positions``.
    Callers reassemble full-arity answers by interleaving the selection
    constants (see :mod:`repro.core.api`).
    """
    if stats is None:
        # The relation, total and iteration limits are metered on the
        # statistics, so a caller that keeps none still needs them kept.
        stats = EvaluationStats()
    seed_set = {tuple(s) for s in seeds}
    for s in seed_set:
        if len(s) != plan.seed_arity:
            raise ValueError(
                f"seed {s!r} has {len(s)} columns, plan expects "
                f"{plan.seed_arity}"
            )

    reference = _REFERENCE.get()

    def loop(joins, initial, arity, carry_name, seen_name):
        if reference:
            return _carry_loop(joins, initial, arity, db, carry_name,
                               seen_name, stats, budget, order, tracer)
        return _generated_loop(joins, initial, db, carry_name, seen_name,
                               stats, budget, order, tracer)

    # Lines 1-7: the down loop (or seen_1 := {x_0} for pers selections).
    seen_1 = loop(plan.down_joins, seed_set, plan.seed_arity,
                  "carry_1", "seen_1")

    # Line 8: carry_2 := g_2(seen_1) -- join seen_1 with each exit body.
    with span_of(tracer, "separable.exit", seen_1=len(seen_1)):
        view = db.with_mounts(
            {SEEN: Relation(SEEN, plan.seed_arity, seen_1)})
        carry_2 = _apply_joins(plan.exit_joins, view, stats, order, tracer,
                               label="exit")

    # Lines 9-15: the up loop; ans := seen_2.
    seen_2 = loop(plan.up_joins, carry_2, plan.answer_arity,
                  "carry_2", "seen_2")
    if plan.tag is None:
        # A tagged seen_2 holds (tag, answer) pairs, one per seed that
        # reaches the answer: its size is not the number of answers
        # (the caller, who splits by tag, records that).
        stats.record_relation("ans", len(seen_2))
    return frozenset(seen_2)
