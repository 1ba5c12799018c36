"""The books of a generated loop: locals, written back once a call.

A generated carry loop or stratum keeps its iterations, examined and
produced counts, relation maxima and tracer sums in locals, and compares
them with limits read once from the budget.  These tests pin what that
must not change -- every limit trips where the per-round reference trips
it, with the same message and the same statistics, and a probe raising
mid-round leaves the statistics the reference leaves -- and what it
buys: a round makes no call into ``EvaluationStats``, ``Budget`` or the
tracer's counters.
"""

import re
import time
from contextlib import nullcontext

import pytest

from repro.budget import Budget
from repro.core.compiler import compile_plan
from repro.core.detection import require_separable
from repro.core.evaluator import _reference_loops, execute_batch, execute_plan
from repro.datalog.database import Database, Relation
from repro.datalog.errors import BudgetExceeded
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import PLAN_CACHE
from repro.datalog.seminaive import seminaive_evaluate
from repro.differential.oracle import _span_rows
from repro.observability import Tracer
from repro.stats import EvaluationStats
from repro.workloads.paper import (
    example_1_1_database,
    example_1_1_program,
    example_2_4_program,
)

from .test_batched_union import fan_database as union_database
from .test_evaluator import TWO_RULES, fan_database, plan_of

MODES = ("untraced", "traced", "reference")

LINEAR = parse_program(
    "tc(X, Y) :- tc(X, W) & e(W, Y).\ntc(X, Y) :- e(X, Y)."
).program


def passed_deadline() -> Budget:
    """A budget whose deadline passed a second ago."""
    return Budget(max_wall_seconds=0.5).start_clock(
        now=time.monotonic() - 1.5)


def chain_plan(n):
    """Example 1.1 selected at the head of a chain of ``n``: a down loop
    of ~n one-tuple rounds."""
    db = example_1_1_database(n)
    plan, seed = plan_of(example_1_1_program(), "buys", "buys(a1, Y)")
    return (lambda stats, budget, tracer: execute_plan(
        plan, db, [seed], stats, budget, tracer=tracer))


def two_rules_plan():
    """Two down terms whose carry outgrows ``s`` and shrinks again: the
    loop is entered three times."""
    db = fan_database()
    plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
    return (lambda stats, budget, tracer: execute_plan(
        plan, db, [seed], stats, budget, tracer=tracer))


def stratum_run(n):
    """Right-linear transitive closure of a chain of ``n``: one stratum
    of ~n rounds."""
    db = Database.from_facts({"e": [(i, i + 1) for i in range(n)]})
    return (lambda stats, budget, tracer: seminaive_evaluate(
        LINEAR, db, stats, budget, tracer=tracer))


def outcome(run, mode, budget):
    """``(limit, message, books, span rows)`` of one run in ``mode``:
    the reference runs traced, so its spans can be compared; a wall
    clock's overrun is left out of the message."""
    stats = EvaluationStats()
    tracer = None if mode == "untraced" else Tracer()
    limit = message = None
    try:
        with _reference_loops() if mode == "reference" else nullcontext():
            run(stats, budget, tracer)
    except BudgetExceeded as exc:
        assert exc.stats is stats
        limit = exc.limit
        message = re.sub(r"over by [0-9.]+s", "over by", str(exc))
    books = (stats.iterations, stats.tuples_examined, stats.tuples_produced,
             stats.relation_sizes)
    return limit, message, books, tracer and _span_rows(tracer)


CARRY_LIMITS = {
    "relation_tuples": Budget(max_relation_tuples=20),
    "total_tuples": Budget(max_total_tuples=50),
    "iterations": Budget(max_iterations=30),
}
FAN_LIMITS = {
    "relation_tuples": Budget(max_relation_tuples=6),
    "total_tuples": Budget(max_total_tuples=12),
    "iterations": Budget(max_iterations=3),
}


@pytest.mark.parametrize("limit", [*CARRY_LIMITS, "wall_clock"])
@pytest.mark.parametrize("shape", ["chain", "fan"])
def test_a_carry_loop_trips_where_the_reference_does(shape, limit):
    run = chain_plan(60) if shape == "chain" else two_rules_plan()
    limits = CARRY_LIMITS if shape == "chain" else FAN_LIMITS
    budget = limits.get(limit) or passed_deadline()
    runs = {mode: outcome(run, mode, budget) for mode in MODES}
    assert runs["untraced"][0] == limit
    assert runs["untraced"][:3] == runs["traced"][:3] \
        == runs["reference"][:3]
    assert runs["traced"][3] == runs["reference"][3]


#: What the stratum raised on ``stratum_run(30)`` when it called
#: ``check_wall``, ``record_relation``, ``check_relation`` and
#: ``check_stats`` every round: limit, message, (iterations, examined,
#: produced, relation_sizes).
STRATUM_TRIPS = {
    "relation_tuples": (
        Budget(max_relation_tuples=100), "relation tc reached 114 tuples "
        "(budget 100)", (4, 201, 114, {"tc": 114})),
    "total_tuples": (
        Budget(max_total_tuples=150), "total generated tuples reached 165 "
        "(budget 150)", (6, 305, 165, {"tc": 165})),
    "iterations": (
        Budget(max_iterations=5), "iteration count reached 6 (budget 5)",
        (6, 305, 165, {"tc": 165})),
    "wall_clock": (
        None, "wall clock exceeded the 0.500s budget (over by)",
        (1, 30, 30, {})),
}


@pytest.mark.parametrize("limit", list(STRATUM_TRIPS))
def test_a_stratum_trips_where_it_did_per_round(limit):
    budget, message, books = STRATUM_TRIPS[limit]
    runs = {mode: outcome(stratum_run(30), mode, budget or passed_deadline())
            for mode in MODES}
    assert runs["untraced"][:3] == (limit, message, books)
    assert runs["untraced"][:3] == runs["traced"][:3] \
        == runs["reference"][:3]
    assert runs["traced"][3] == runs["reference"][3]


def batch_run():
    """Example 2.4's ``t_full`` for five seeds at once (Lemma 2.1): three
    chains, a seed that dies at once and one that starts half-way down
    a chain -- a carry and a seen per seed, in lockstep rounds."""
    analysis = require_separable(example_2_4_program(), "t")
    plan = compile_plan(analysis, selected_class=analysis.classes[0])
    db = union_database()
    seeds = [(f"p{j}_0", f"q{j}_0") for j in range(3)] + [
        ("no", "no"), ("p1_2", "q1_2")]
    return (lambda stats, budget, tracer: execute_batch(
        plan, db, seeds, stats, budget, tracer=tracer))


#: What ``batch_run()`` raised when the batch was one fixpoint over
#: seed-tagged tuples: limit, message, (iterations, produced,
#: relation_sizes).  Relations are booked at their totals over the
#: seeds, so every limit trips in the same round.
BATCH_TRIPS = {
    "relation_tuples": (
        Budget(max_relation_tuples=12), "relation seen_1 reached 13 tuples "
        "(budget 12)", (2, 8, {"carry_1": 5, "seen_1": 13})),
    "total_tuples": (
        Budget(max_total_tuples=30), "total generated tuples reached 36 "
        "(budget 30)", (6, 22, {"carry_1": 5, "seen_1": 19, "carry_2": 4,
                                "seen_2": 8})),
    "iterations": (
        Budget(max_iterations=4), "iteration count reached 5 (budget 4)",
        (5, 14, {"carry_1": 5, "seen_1": 19})),
    "wall_clock": (
        None, "wall clock exceeded the 0.500s budget (over by)",
        (0, 0, {"carry_1": 5, "seen_1": 5})),
}


@pytest.mark.parametrize("limit", list(BATCH_TRIPS))
def test_a_batch_trips_where_the_tagged_fixpoint_did(limit):
    budget, message, (iterations, produced, sizes) = BATCH_TRIPS[limit]
    runs = {mode: outcome(batch_run(), mode, budget or passed_deadline())
            for mode in MODES}
    for mode, (tripped, said, books, _) in runs.items():
        assert (tripped, said, books[0], books[2], books[3]) == (
            limit, message, iterations, produced, sizes), mode
    assert runs["untraced"][:3] == runs["traced"][:3] \
        == runs["reference"][:3]
    assert runs["traced"][3] == runs["reference"][3]


class Raising(Relation):
    """A relation whose ``k``-th probe raises."""

    __slots__ = ()
    left = [0]

    def _tick(self):
        self.left[0] -= 1
        if self.left[0] == 0:
            raise OSError("disk I/O error")

    def lookup(self, positions, key, tracer=None):
        self._tick()
        return super().lookup(positions, key, tracer)

    def lookup_projected(self, positions, cols, key, tracer=None):
        self._tick()
        return super().lookup_projected(positions, cols, key, tracer)


@pytest.mark.parametrize("shape", ["chain", "fan"])
def test_a_probe_raising_mid_round_leaves_the_reference_books(
        shape, monkeypatch):
    """The round's earlier terms are in ``stats``, the raising one is
    not, and the relation maxima are those of the rounds before -- as
    the reference loop, which flushes per kernel run, leaves them."""
    if shape == "chain":
        db = example_1_1_database(30)
        plan, seed = plan_of(example_1_1_program(), "buys", "buys(a1, Y)")
        name, at = "friend", 12
    else:
        db = fan_database()
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        name, at = "s", 4
    rel = db.relation(name)
    db = db.with_mounts({name: Raising(name, rel.arity, rel)})
    runs = {}
    for mode in MODES:
        monkeypatch.setattr(Raising, "left", [at])
        stats, tracer = EvaluationStats(), Tracer() if mode != "untraced" \
            else None
        with pytest.raises(OSError), \
                _reference_loops() if mode == "reference" else nullcontext():
            execute_plan(plan, db, [seed], stats, tracer=tracer)
        runs[mode] = (stats.as_dict(), tracer and _span_rows(tracer))
    assert runs["untraced"][0] == runs["traced"][0] == runs["reference"][0]
    assert runs["untraced"][0]["iterations"] > 1
    assert runs["traced"][1] == runs["reference"][1]


def spied(calls):
    """``EvaluationStats`` and ``Budget`` subclasses that log every
    method call (and every total asked for) into ``calls``."""

    def logged(cls, name):
        method = getattr(cls, name)

        def log(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        return log

    stats = type("Stats", (EvaluationStats,), {
        name: logged(EvaluationStats, name)
        for name in ("record_relation", "bump_iterations", "bump_produced",
                     "bump_examined", "merge", "copy")})
    stats.total_relation_size = property(lambda self: (
        calls.append("total_relation_size"),
        EvaluationStats.total_relation_size.fget(self))[1])
    budget = type("Limits", (Budget,), {
        name: logged(Budget, name)
        for name in ("check_wall", "check_relation", "check_stats")})
    return stats, budget


class CountingTracer(Tracer):
    def __init__(self):
        super().__init__()
        self.counts = 0
        self.recorded: dict[str, int] = {}

    def count(self, name, n=1):
        self.counts += 1
        super().count(name, n)

    def record(self, name, value):
        self.recorded[name] = self.recorded.get(name, 0) + 1
        super().record(name, value)


@pytest.mark.parametrize("make", [chain_plan, stratum_run],
                         ids=["carry-loop", "stratum"])
def test_a_round_makes_no_books_call(make):
    """Untraced, the calls into ``EvaluationStats`` / ``Budget`` do not
    grow with the rounds; traced, neither do the tracer's ``count``
    calls, and each carry round records one ``carry`` size."""
    calls, traced = {}, {}
    for n in (50, 200):
        log: list = []
        stats_type, budget_type = spied(log)
        stats = stats_type()
        PLAN_CACHE.clear()
        make(n)(stats, budget_type(), None)
        calls[n] = (len(log), stats.iterations)
        tracer = CountingTracer()
        PLAN_CACHE.clear()
        stats = EvaluationStats()
        make(n)(stats, Budget(), tracer)
        traced[n] = (tracer.counts, tracer.recorded, stats.iterations)
    assert calls[50][0] == calls[200][0]
    assert calls[200][1] - calls[50][1] >= 150  # the rounds did grow
    assert traced[50][0] == traced[200][0]
    for n in (50, 200):
        recorded, rounds = traced[n][1:]
        if make is chain_plan:
            assert recorded == {"carry": rounds}
        else:  # round zero runs before the loop, and records too
            assert recorded == {"delta:tc": rounds}


NONLINEAR = parse_program(
    "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, W) & tc(W, Y)."
).program


def nonlinear_run(n):
    """Nonlinear transitive closure of a chain of ``n``: ``tc`` is read
    in full beside its delta, so each term installs what it derived
    before the next runs."""
    db = Database.from_facts({"e": [(i, i + 1) for i in range(n)]})
    return (lambda stats, budget, tracer: seminaive_evaluate(
        NONLINEAR, db, stats, budget, tracer=tracer))


#: What ``nonlinear_run(30)`` raised when its terms installed one at a
#: time in every flavour: limit, message, (iterations, examined,
#: produced, relation_sizes).
NONLINEAR_TRIPS = {
    "relation_tuples": (
        Budget(max_relation_tuples=100), "relation tc reached 165 tuples "
        "(budget 100)", (2, 590, 387, {"tc": 165})),
    "total_tuples": (
        Budget(max_total_tuples=150), "total generated tuples reached 165 "
        "(budget 150)", (2, 590, 387, {"tc": 165})),
    "iterations": (
        Budget(max_iterations=3), "iteration count reached 4 (budget 3)",
        (4, 6751, 5892, {"tc": 465})),
    "wall_clock": (
        None, "wall clock exceeded the 0.500s budget (over by)",
        (1, 89, 59, {})),
}


@pytest.mark.parametrize("limit", list(NONLINEAR_TRIPS))
def test_a_nonlinear_stratum_trips_where_it_did(limit):
    budget, message, books = NONLINEAR_TRIPS[limit]
    runs = {mode: outcome(nonlinear_run(30), mode,
                          budget or passed_deadline())
            for mode in ("untraced", "traced")}
    assert runs["untraced"][:3] == runs["traced"][:3] \
        == (limit, message, books)
