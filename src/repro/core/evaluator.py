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
from typing import Iterable, Optional, Sequence

from ..budget import Budget, UNLIMITED
from ..datalog.database import Database, Relation
from ..datalog.plan_cache import PLAN_CACHE
from ..observability.tracer import span_of
from ..stats import EvaluationStats
from .plan import CARRY, SEEN, CarryJoin, SeparablePlan

__all__ = ["execute_batch", "execute_plan", "loop_source"]


def _apply_joins(
    joins: Iterable[CarryJoin],
    view: Database,
    stats: Optional[EvaluationStats],
    order: str,
    tracer=None,
    label: Optional[str] = None,
    plans: Optional[list] = None,
) -> set[tuple]:
    """Evaluate a union of carry-join terms against a view database.

    With a live ``tracer`` and a ``label`` (the loop's relation name),
    each join term's applications and distinct outputs are attributed
    to ``rule_apps:<label>#<i>`` / ``rule_out:<label>#<i>`` counters --
    the compiled-plan analogue of the per-rule rows the profiler shows
    for rewritten-program strategies.

    It goes to the plan cache (unless given ``plans``, one per term)
    and the plan's set-at-a-time kernel directly: what
    :func:`~repro.datalog.joins.evaluate_body_into` would re-derive per
    call is invariant here (a carry join's body and output are non-empty
    tuples with nothing pre-bound).
    """
    produced: set[tuple] = set()
    if plans is None:
        plans = _plans(joins, view, order, tracer)
    for ji, (join, plan) in enumerate(zip(joins, plans)):
        before = len(produced)
        plan.execute_into(join.output, view, produced, None, stats, tracer)
        if tracer is not None and label is not None:
            tracer.count(f"rule_apps:{label}#{ji}")
            out = len(produced) - before
            if out:
                tracer.count(f"rule_out:{label}#{ji}", out)
    return produced


def _plans(joins, view: Database, order: str, tracer=None) -> list:
    """The plan :data:`PLAN_CACHE` picks for each join term on ``view``."""
    return [PLAN_CACHE.plan_for(join.body, frozenset(), order, view, tracer)
            for join in joins]


def _size(groups: dict) -> int:  # rows over a batch's seeds
    return sum(map(len, groups.values()))


@contextmanager
def _whole(stats: EvaluationStats):
    """Keep the counts the block books in ``stats`` only if it returns."""
    booked = stats.iterations, stats.tuples_examined, stats.tuples_produced
    try:
        yield
    except BaseException:
        stats.iterations, stats.tuples_examined, stats.tuples_produced = booked
        raise


def _carry_loop(
    joins: tuple[CarryJoin, ...],
    initial: dict,
    arity: int,
    db: Database,
    carry_name: str,
    seen_name: str,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
) -> dict:
    """One while loop of Figure 2, as the paper writes it, per seed set
    of ``initial`` (a full selection's is ``initial[None]``); returns the
    ``seen`` sets.  The reference :func:`_generated_loop` is diffed
    against: it runs only under :func:`_reference_loops`.

    ``initial`` seeds both carry and seen (lines 1-2 / 8-9); each
    iteration applies the union of ``joins`` to the carry, removes
    already-seen tuples (the crucial set difference), and accumulates
    -- for a Lemma 2.1 batch, to each non-empty carry in turn by the
    plans of the largest, booked at the totals over the seeds, whole
    rounds only (:func:`_whole`; the tracer counts term by term).  A live
    ``tracer`` records a ``separable.loop`` span with the per-iteration
    post-difference carry sizes -- Lemma 3.4's disjointness makes ``seed
    + sum(carries) == |seen|`` an invariant the oracle checks.
    """
    seen = {k: set(rows) for k, rows in initial.items()}
    carry = {k: set(rows) for k, rows in initial.items() if rows}
    total = _size(seen)
    stats.record_relation(carry_name, total)
    stats.record_relation(seen_name, total)
    # One view and one carry relation for the whole loop: each run
    # refills the relation in place (a clear + bulk add_all) instead of
    # rebuilding the Database wrapper and re-copying the base mounts.
    carry_rel = Relation(CARRY, arity)
    view = db.with_mounts({CARRY: carry_rel})
    with span_of(tracer, "separable.loop", relation=seen_name,
                 seed=total) as span:
        while carry:
            budget.check_wall(stats)
            if tracer is not None:
                tracer.count("iterations")
            todo, carry = carry, {}
            first = max(todo, key=lambda k: len(todo[k]))  # planned on
            with _whole(stats):
                stats.bump_iterations()
                for k in sorted(todo, key=lambda k: k != first):
                    if joins:  # else nothing reads the carry relation
                        carry_rel.clear()
                        carry_rel.add_all(todo[k])
                    if k == first:
                        plans = _plans(joins, view, order, tracer)
                    fresh = _apply_joins(joins, view, stats, order, tracer,
                                         seen_name, plans) - seen[k]
                    seen[k] |= fresh
                    carry.update({k: fresh} if fresh else ())
            total += _size(carry)
            if tracer is not None:
                tracer.record("carry", _size(carry))
            stats.record_relation(carry_name, _size(carry))
            stats.record_relation(seen_name, total)
            budget.check_relation(seen_name, total, stats)
            budget.check_stats(stats)
        if span is not None:
            span.attrs["final_seen"] = total
    return seen


def _credits(label: str, joins) -> tuple:
    """The counters a traced generated loop credits its terms with."""
    terms = range(len(joins))
    return (tuple([(f"rule_apps:{label}#{j}", j) for j in terms]), (),
            tuple([f"rule_out:{label}#{j}" for j in terms]))


def _generated_loop(
    joins: tuple[CarryJoin, ...],
    initial: dict,
    db: Database,
    carry_name: str,
    seen_name: str,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
    absorb: tuple = (),
    covered: Sequence[set] = (),
    resume: Optional[tuple] = None,
) -> dict:
    """:func:`_carry_loop`, compiled: the same loop, relation records,
    budget checks, span and counters (books kept in locals), run by the
    function :meth:`~repro.datalog.plan_cache.PlanCache.loop_for` makes
    of it as of a one-member stratum: slot ``carry``, member ``seen``
    (a batch's: dicts of sets by seed).

    That function is valid over an interval of ``len(carry)`` (a
    batch's largest): its size rank among the joins' fixed relations
    (``order="greedy"``) or its power-of-two bucket (``order="cost"``).
    When a round leaves it, it hands ``carry`` back and this driver asks
    for the function of the new one -- one plan lookup per join per
    interval change where the reference loop makes one per join per
    round, and none for a function ``loop_for`` already bound for sizes
    that hold on ``db`` (an earlier query's, on this database or an
    earlier snapshot; only its probes are taken anew where they read a
    relation ``db`` replaced).

    A full selection's loop may reuse runs already made on ``db``: with
    ``absorb = (known, found)`` its rounds end in
    :func:`~repro.datalog.plan_cache._absorb` (``known``: ``seed ->
    (seen_1, seen_2)``), and the rows of the sets ``covered`` start in
    ``seen`` and out of ``carry``.  A traced span counts both as
    ``absorbed``: ``seed + sum(carries) + absorbed`` is its
    ``final_seen``.  With ``resume = (rows, seen)`` a full selection's
    loop goes on from an earlier run's ``seen`` (copied), ``rows`` its
    carry and joining it: the span's ``seed`` is that ``seen``.
    """
    if resume is not None:
        rows, old = resume
        one = set(old).union(rows)
        seen, carry = {None: one}, (set(rows),)
    else:
        seen = {k: set(rows) for k, rows in initial.items()}
        one = seen.get(None)  # a full selection's: not a batch
        carry = ({k: rows for k, rows in initial.items() if rows}
                 if one is None else one.difference(*covered),)
    member = (seen if one is None else one,)
    absorbed = 0
    if covered:
        one.update(*covered)
        absorbed = len(one) - len(carry[0])
    stats.record_relation(carry_name, _size(seen) - absorbed
                          if resume is None else len(carry[0]))
    stats.record_relation(seen_name, _size(seen))
    names = ((carry_name, seen_name),)
    labels = () if tracer is None else (("carry",),
                                        *_credits(seen_name, joins))
    with span_of(tracer, "separable.loop", relation=seen_name,
                 seed=_size(seen) - absorbed) as span:
        while carry[0]:
            run, _ = PLAN_CACHE.loop_for(joins, (CARRY,), carry, member,
                                         order, db, tracer)
            carry = run(carry, member, names, labels, stats, budget, tracer,
                        *absorb)
        if span is not None:
            span.attrs["final_seen"] = _size(seen)
            if absorb:
                absorbed += sum(rows for *_, rows in absorb[1])
            if absorbed:
                span.attrs["absorbed"] = absorbed
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


def _exit_stage(joins: tuple[CarryJoin, ...], seen_1: dict, arity: int,
                db: Database, stats: EvaluationStats, order: str,
                tracer=None, reference: bool = False) -> dict:
    """Line 8 of Figure 2, ``carry_2 := g_2(seen_1)``, per seed by the
    plans of the largest ``seen_1``: in one generated pass over the sets
    as they are, or -- under :func:`_reference_loops` -- by the kernels
    over a view of each; the statistics book the pass whole or not."""
    if not reference:
        labels = () if tracer is None else ((), *_credits("exit", joins))
        run, _ = PLAN_CACHE.loop_for(joins, (SEEN,), (seen_1,), (), order,
                                     db, tracer)
        return run((seen_1,), (), (), labels, stats, UNLIMITED, tracer)[0]
    views = {k: db.with_mounts({SEEN: Relation(SEEN, arity, rows)})
             for k, rows in seen_1.items()}
    plans = _plans(joins, views[max(seen_1, key=lambda k: len(seen_1[k]))],
                   order, tracer)
    with _whole(stats):
        return {k: _apply_joins(joins, view, stats, order, tracer, "exit",
                                plans) for k, view in views.items()}


def _figure_2(plan: SeparablePlan, db: Database, seeds, stats, budget,
              order: str, tracer=None, known: Optional[dict] = None,
              resume: Optional[tuple] = None) -> tuple[dict, dict, list]:
    """Both loops and the exit join from each seed set of ``seeds`` (by
    seed; a batch's seeds in lockstep); returns ``(seen_1, seen_2,
    absorbed)``: the entries of ``known`` the down loop absorbed, as
    ``(seen_1, seen_2, rows)`` (never under :func:`_reference_loops`).
    A ``resume`` (:func:`execute_plan`) runs the generated loops under
    :func:`_reference_loops` too."""
    for seed in (s for rows in seeds.values() for s in rows):
        if len(seed) != plan.seed_arity:
            raise ValueError(f"seed {seed!r} has {len(seed)} columns, "
                             f"plan expects {plan.seed_arity}")
    reference = _REFERENCE.get()
    found: list = []

    def loop(joins, initial, arity, carry_name, seen_name, *reuse):
        if reference:
            return _carry_loop(joins, initial, arity, db, carry_name,
                               seen_name, stats, budget, order, tracer)
        return _generated_loop(joins, initial, db, carry_name, seen_name,
                               stats, budget, order, tracer, *reuse)

    if resume is not None:
        # Theorem 3.1 on a database that only gained rows: a row the
        # earlier run's loops did not derive comes, through an added
        # row, from a seen row that row joins -- each loop goes on from
        # those, its seen the earlier run's, and the exit joins the new
        # seen_1 rows plus the old ones an added exit row joins.
        (old_1, old_2), (down, exit_, up) = resume

        def go_on(joins, carry_name, seen_name, rows, old) -> dict:
            if rows:
                return _generated_loop(joins, {}, db, carry_name, seen_name,
                                       stats, budget, order, tracer, (), (),
                                       (rows, old))
            stats.record_relation(carry_name, 0)  # it stays where it was
            stats.record_relation(seen_name, len(old))
            return {None: old}

        seen_1 = go_on(plan.down_joins, "carry_1", "seen_1", down, old_1)
        rest = (seen_1[None] - old_1 if down else set()) | exit_
        carry_2: set = set()
        if rest:
            with span_of(tracer, "separable.exit", seen_1=len(rest)):
                carry_2 = _exit_stage(plan.exit_joins, {None: rest},
                                      plan.seed_arity, db, stats, order,
                                      tracer)[None]
        return seen_1, go_on(plan.up_joins, "carry_2", "seen_2",
                             (carry_2 - old_2) | up, old_2), found

    # Lines 1-7: the down loop (or seen_1 := {x_0} for pers selections).
    seen_1 = loop(plan.down_joins, seeds, plan.seed_arity, "carry_1",
                  "seen_1", () if known is None else (known, found))
    # An absorbed row's seen_1 is closed under the down step and its
    # exit and up loop made its seen_2; closure distributes over union
    # (Theorem 2.1), so the exit joins only the rest of seen_1 (none
    # runs if none is left) and the up loop starts with those seen_2.
    rest = {k: rows.difference(*[e[0] for e in found])
            for k, rows in seen_1.items()} if found else seen_1
    with span_of(tracer, "separable.exit", seen_1=_size(rest)):
        carry_2 = {k: set() for k in rest} if found and not _size(rest) \
            else _exit_stage(plan.exit_joins, rest, plan.seed_arity, db,
                             stats, order, tracer, reference)
    # Lines 9-15: the up loop; ans := seen_2.
    return seen_1, loop(plan.up_joins, carry_2, plan.answer_arity,
                        "carry_2", "seen_2", (), [e[1] for e in found]), found


def execute_plan(
    plan: SeparablePlan,
    db: Database,
    seeds: Iterable[tuple],
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
    seen_1: Optional[list] = None,
    known: Optional[dict] = None,
    resume: Optional[tuple] = None,
) -> frozenset[tuple]:
    """Run a compiled plan from the given seed tuples.

    ``seeds`` are tuples over the plan's seed columns -- for an ordinary
    full selection this is the single vector ``x_0`` of selection
    constants.

    Returns the final ``seen_2``: tuples over ``plan.up_positions``.
    Callers reassemble full-arity answers by interleaving the selection
    constants (see :mod:`repro.core.api`).  A ``seen_1`` list gets the
    final ``seen_1`` appended, then the entries of ``known`` -- ``seed
    -> (seen_1, seen_2)`` of runs of ``plan`` already made on ``db``, a
    live table -- the down loop absorbed (:func:`_figure_2`).

    ``resume = ((seen_1, seen_2), (down, exit, up))`` goes on from an
    earlier run of ``plan`` from the same seed, on a database that
    differs from this one only by added rows (in what that run read):
    its sets, and the rows of its ``seen_1`` that an added row joins in
    a down and in an exit term, and of its ``seen_2`` in an up term
    (:meth:`~repro.core.compiler.ReadSet.joined`).  The result is the
    run's on this database; the earlier sets are not touched.
    """
    if stats is None:
        # The relation, total and iteration limits are metered on the
        # statistics, so a caller that keeps none still needs them kept.
        stats = EvaluationStats()
    first, last, found = _figure_2(
        plan, db, {None: {tuple(s) for s in seeds}}, stats, budget, order,
        tracer, known, resume)
    if seen_1 is not None:
        seen_1 += [first[None], found]
    seen_2 = last[None]
    stats.record_relation("ans", len(seen_2))
    return frozenset(seen_2)


def execute_batch(plan: SeparablePlan, db: Database, seeds: Iterable[tuple],
                  stats: Optional[EvaluationStats] = None,
                  budget: Budget = UNLIMITED, order: str = "greedy",
                  tracer=None, seen_1=None) -> list[set[tuple]]:
    """``execute_plan(plan, db, [seed])``'s ``seen_2`` for each seed, as
    one fixpoint (a Lemma 2.1 union's ``t_full``) of lockstep rounds that
    keep a carry and a seen per seed.  Relations are booked at their
    totals over the seeds; ``ans`` is left to the caller, each seed's
    ``seen_1`` to a ``seen_1`` list."""
    first, last, _ = _figure_2(
        plan, db, {i: {tuple(s)} for i, s in enumerate(seeds)},
        EvaluationStats() if stats is None else stats, budget, order,
        tracer)
    if seen_1 is not None:
        seen_1.extend(first.values())
    return list(last.values())
