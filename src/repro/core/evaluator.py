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

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Iterable, Optional

from ..budget import Budget, UNLIMITED
from ..datalog.database import Database, Relation
from ..datalog.plan_cache import PLAN_CACHE
from ..datalog.planner import AdaptiveState
from ..observability.tracer import live
from ..stats import EvaluationStats
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan

__all__ = ["execute_plan", "loop_source"]


def _with_pseudo(
    db: Database, name: str, relation: Relation
) -> Database:
    """A view of ``db`` with one pseudo-relation attached (shared, not
    copied)."""
    view = Database()
    for pred in db.predicates():
        rel = db.relation(pred)
        assert rel is not None
        view.attach(rel, pred)
    view.attach(relation, name)
    return view


def _apply_joins(
    joins: Iterable[CarryJoin],
    view: Database,
    stats: Optional[EvaluationStats],
    order: str,
    tracer=None,
    label: Optional[str] = None,
    adaptive=None,
) -> set[tuple]:
    """Evaluate a union of carry-join terms against a view database.

    With a live ``tracer`` and a ``label`` (the loop's relation name),
    each join term's applications and distinct outputs are attributed
    to ``rule_apps:<label>#<i>`` / ``rule_out:<label>#<i>`` counters --
    the compiled-plan analogue of the per-rule rows the profiler shows
    for rewritten-program strategies.

    This runs once per round of a carry loop, ~1000 times on a deep
    chain, so it goes to the plan cache and the plan's set-at-a-time
    kernel directly: what :func:`~repro.datalog.joins.evaluate_body_into`
    would re-derive per call is loop-invariant here (a carry join's body
    and output are non-empty tuples with nothing pre-bound).
    """
    produced: set[tuple] = set()
    plan_for = PLAN_CACHE.plan_for
    unbound: frozenset = frozenset()
    for ji, join in enumerate(joins):
        before = len(produced)
        plan_for(
            join.body, unbound, order, view, tracer, adaptive
        ).execute_into(join.output, view, produced, None, stats, tracer)
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
    parallel=None,
) -> set[tuple]:
    """One while loop of Figure 2; returns the final ``seen`` set.

    ``initial`` seeds both carry and seen (lines 1-2 / 8-9); each
    iteration applies the union of ``joins`` to the carry, removes
    already-seen tuples (the crucial set difference), and accumulates.
    A live ``tracer`` records a ``separable.loop`` span with the
    per-iteration post-difference carry sizes -- Lemma 3.4's
    disjointness makes ``seed + sum(carries) == |seen|`` an invariant
    the differential oracle checks on every traced run.

    With a :class:`~repro.parallel.ParallelExecutor` in ``parallel``,
    iterations whose carry clears the partition threshold evaluate the
    union of joins across hash partitions of the carry on the worker
    pool; the loop structure, the seen bookkeeping, the span series,
    and the budget checks all stay in this (parent) process, so every
    traced invariant is identical to the serial run.
    """
    seen: set[tuple] = set(initial)
    carry: set[tuple] = set(initial)
    # order="adaptive": one feedback loop per carry loop, comparing the
    # planner's row estimates against actual production each iteration
    # and re-planning (bounded) on >4x divergence.  Partitioned
    # (parallel) iterations skip the feedback -- workers plan privately.
    adaptive = AdaptiveState() if order == "adaptive" else None
    stats.record_relation(carry_name, len(carry))
    stats.record_relation(seen_name, len(seen))
    span_cm = (
        tracer.span("separable.loop", relation=seen_name,
                    seed=len(initial))
        if tracer is not None
        else nullcontext()
    )
    # One view and one carry relation for the whole loop: each round
    # refills the relation in place (a clear + bulk add_all) instead of
    # rebuilding the Database wrapper and re-copying the base mounts.
    carry_rel = Relation(CARRY, arity)
    view = _with_pseudo(db, CARRY, carry_rel)
    with span_cm as span:
        while carry:
            budget.check_wall(stats)
            stats.bump_iterations()
            if tracer is not None:
                tracer.count("iterations")
            if parallel is not None and parallel.should_partition(
                joins, len(carry)
            ):
                produced = parallel.apply_joins(
                    db, joins, carry, arity, CARRY, stats, order,
                    budget=budget, tracer=tracer, label=seen_name,
                )
            else:
                if joins:  # else nothing reads the carry relation
                    carry_rel.clear()
                    carry_rel.add_all(carry)
                produced = _apply_joins(joins, view, stats, order, tracer,
                                        label=seen_name, adaptive=adaptive)
                if adaptive is not None:
                    adaptive.observe_round(len(produced), tracer)
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

    That function is valid while ``len(carry)`` keeps its size rank
    among the joins' fixed relations (``order="greedy"`` plans depend on
    it); when a round leaves that interval it hands ``carry`` back and
    this driver asks for the function of the new rank -- one plan lookup
    per join per rank change where the reference loop makes one per join
    per round.
    """
    seen: set[tuple] = set(initial)
    carry: set[tuple] = set(initial)
    stats.record_relation(carry_name, len(carry))
    stats.record_relation(seen_name, len(seen))
    span_cm = (
        tracer.span("separable.loop", relation=seen_name,
                    seed=len(initial))
        if tracer is not None
        else nullcontext()
    )
    with span_cm as span:
        while carry:
            run = PLAN_CACHE.loop_for(joins, CARRY, len(carry), order, db,
                                      tracer)
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
        source for was_traced, source, _ in PLAN_CACHE.loops_for(joins)
        if was_traced == traced))


def execute_plan(
    plan: SeparablePlan,
    db: Database,
    seeds: Iterable[tuple],
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
    parallel=None,
) -> frozenset[tuple]:
    """Run a compiled plan from the given seed tuples.

    ``seeds`` are tuples over the plan's seed columns -- for an ordinary
    full selection this is the single vector ``x_0`` of selection
    constants; the Lemma 2.1 evaluation passes sideways-computed seed
    sets through the same entry point.

    ``parallel`` is an optional
    :class:`~repro.parallel.ParallelExecutor`: carry-loop iterations
    above its partition threshold evaluate across the worker pool (see
    :func:`_carry_loop`); answers, spans, and statistics are unchanged.

    Returns the final ``seen_2``: tuples over ``plan.up_positions``.
    Callers reassemble full-arity answers by interleaving the selection
    constants (see :mod:`repro.core.api`).
    """
    tracer = live(tracer)
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

    # The reference loop decides per round what the generated one fixes
    # per loop: whether to partition the carry over a worker pool, and
    # which plan a cost order wants now.
    per_round = (
        (parallel is not None and parallel.active)
        or order in ("cost", "adaptive")
        or _REFERENCE.get()
    )

    def loop(joins, initial, arity, carry_name, seen_name):
        # A loop without join terms is one empty round; there is
        # nothing to compile.
        if per_round or not joins:
            return _carry_loop(joins, initial, arity, db, carry_name,
                               seen_name, stats, budget, order, tracer,
                               parallel)
        return _generated_loop(joins, initial, db, carry_name, seen_name,
                               stats, budget, order, tracer)

    # Lines 1-7: the down loop (or seen_1 := {x_0} for pers selections).
    seen_1 = loop(plan.down_joins, seed_set, plan.seed_arity,
                  "carry_1", "seen_1")

    # Line 8: carry_2 := g_2(seen_1) -- join seen_1 with each exit body.
    # The exit stage has the same shape as one carry iteration (a union
    # of joins each consuming the pseudo-relation exactly once), so the
    # same partitioning argument applies: seen_1 splits into disjoint
    # shares whose outputs union exactly to the serial result.
    exit_cm = (
        tracer.span("separable.exit", seen_1=len(seen_1))
        if tracer is not None
        else nullcontext()
    )
    with exit_cm:
        if parallel is not None and parallel.should_partition(
            plan.exit_joins, len(seen_1), pseudo=SEEN
        ):
            carry_2 = parallel.apply_joins(
                db, plan.exit_joins, seen_1, plan.seed_arity, SEEN,
                stats, order, budget=budget, tracer=tracer, label="exit",
            )
        else:
            view = _with_pseudo(db, SEEN,
                                Relation(SEEN, plan.seed_arity, seen_1))
            carry_2 = _apply_joins(plan.exit_joins, view, stats, order,
                                   tracer, label="exit")

    # Lines 9-15: the up loop; ans := seen_2.
    seen_2 = loop(plan.up_joins, carry_2, plan.answer_arity,
                  "carry_2", "seen_2")
    if plan.tag is None:
        # A tagged seen_2 holds (tag, answer) pairs, one per seed that
        # reaches the answer: its size is not the number of answers
        # (the caller, who splits by tag, records that).
        stats.record_relation("ans", len(seen_2))
    return frozenset(seen_2)
