"""The books of a generated loop: locals, written back once a call.

A generated carry loop or stratum keeps its iterations, examined and
produced counts, relation maxima and tracer sums in locals, and compares
them with limits read once from the budget.  These tests pin what that
must not change -- every limit trips where the per-round reference trips
it, with the same message and the same statistics; the books of every
run equal the reference's; and every flavour books whole rounds, so a
probe raising mid-round leaves the books of the rounds before it --
and what it buys: a round makes no call into ``EvaluationStats``,
``Budget`` or the tracer's counters.
"""

import re
import time
from contextlib import nullcontext

import pytest

from repro.budget import Budget
from repro.core.compiler import compile_plan
from repro.core.detection import require_separable
from repro.core.evaluator import (
    _reference_loops,
    execute_batch,
    execute_plan,
    loop_source,
)
from repro.datalog.database import Database, Relation
from repro.datalog.errors import BudgetExceeded
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import PLAN_CACHE, PlanCache
from repro.maintenance import MaintainedView
from repro.maintenance import view as view_module
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
    """A round books whole or not at all: none of the raising round's
    terms is in ``stats``, whichever term raised, and the books are
    those of a run stopped by ``max_iterations`` after the rounds that
    completed.  The tracer still counts term by term, as the reference
    loop's kernels do."""
    if shape == "chain":
        db = example_1_1_database(30)
        plan, seed = plan_of(example_1_1_program(), "buys", "buys(a1, Y)")
        name, at = "friend", 12
    else:
        db = fan_database()
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        name, at = "s", 4
    rel = db.relation(name)
    raising = db.with_mounts({name: Raising(name, rel.arity, rel)})
    runs = {}
    for mode in MODES:
        monkeypatch.setattr(Raising, "left", [at])
        stats, tracer = EvaluationStats(), Tracer() if mode != "untraced" \
            else None
        with pytest.raises(OSError), \
                _reference_loops() if mode == "reference" else nullcontext():
            execute_plan(plan, raising, [seed], stats, tracer=tracer)
        runs[mode] = (stats.as_dict(), tracer and _span_rows(tracer))
    assert runs["untraced"][0] == runs["traced"][0] == runs["reference"][0]
    completed = runs["untraced"][0]["iterations"]
    assert completed > 1
    assert runs["traced"][1] == runs["reference"][1]
    # The same rounds, ended by the budget at the last one's end.
    stats = EvaluationStats()
    with pytest.raises(BudgetExceeded):
        execute_plan(plan, db, [seed], stats,
                     Budget(max_iterations=completed - 1))
    assert stats.as_dict() == runs["untraced"][0]


TWO_KEYS = parse_program(
    "t(X, Y) :- e(X, W) & t(W, Y).\n"
    "t(X, Y) :- f(W, X) & t(W, Y).\n"
    "t(X, Y) :- t0(X, Y)."
).program
SWAPPED = parse_program(
    "t(X, Z, Y) :- a(X, Z, W, V) & t(W, V, Y).\n"
    "t(X, Z, Y) :- b(Z, X, W, V) & t(W, V, Y).\n"
    "t(X, Z, Y) :- t0(X, Z, Y)."
).program


def two_keys_run():
    """Two down terms of one shape, ``e`` probed on its first column and
    ``f`` on its second, over carries of several rows: one pass over
    each carry runs both."""
    e = [(i, (3 * i + 1) % 17) for i in range(17)]
    f = [((5 * i + 2) % 17, i) for i in range(17)]
    db = Database.from_facts({"e": e, "f": f,
                              "t0": [(i, f"end{i}") for i in (4, 9)]})
    plan, seed = plan_of(TWO_KEYS, "t", "t(0, Y)")
    return plan, (lambda stats, budget, tracer: execute_plan(
        plan, db, [seed], stats, budget, tracer=tracer))


def swapped_run():
    """Example 2.4's kind of two-column key, read in two orders: the
    terms are two runs of one term each, so a round books both."""
    nodes = [(f"x{i}", f"y{i}") for i in range(12)]
    db = Database.from_facts({
        "a": [(*nodes[i], *nodes[(i * 5 + j) % 12])
              for i in range(12) for j in (1, 2)],
        "b": [(nodes[i][1], nodes[i][0], *nodes[(i * 7 + 3) % 12])
              for i in range(12)],
        "t0": [(*nodes[i], f"z{i}") for i in range(0, 12, 3)]})
    plan, seed = plan_of(SWAPPED, "t", "t(x0, y0, Y)")
    return plan, (lambda stats, budget, tracer: execute_plan(
        plan, db, [seed], stats, budget, tracer=tracer))


def example_2_4_run():
    """Example 2.4's full selection on its two-column class: the carry
    is keyed on both columns."""
    analysis = require_separable(example_2_4_program(), "t")
    plan = compile_plan(analysis, selected_class=analysis.classes[0])
    db = union_database()
    return plan, (lambda stats, budget, tracer: execute_plan(
        plan, db, [("x0", "y0")], stats, budget, tracer=tracer))


def books(stats) -> tuple:
    return (stats.iterations, stats.tuples_examined, stats.tuples_produced,
            stats.relation_sizes)


@pytest.mark.parametrize("make", [two_keys_run, swapped_run, example_2_4_run,
                                  lambda: (None, batch_run())],
                         ids=["two-keys", "swapped", "example-2-4", "batch"])
def test_the_untraced_books_equal_the_reference(make):
    plan, run = make()
    PLAN_CACHE.clear()
    runs = {}
    for mode in ("untraced", "reference"):
        stats = EvaluationStats()
        with _reference_loops() if mode == "reference" else nullcontext():
            answers = run(stats, Budget(), None)
        runs[mode] = answers, books(stats)
    assert runs["untraced"] == runs["reference"]
    assert runs["untraced"][1][0] > 2
    assert runs["untraced"][1][3]["carry_1"] > 1  # several rows a round
    if make is two_keys_run:
        text, = loop_source(plan, "down")
        assert "    (J0,) = J" in text.splitlines()
        assert text.count("for f0 in carry:") == 1


def test_a_view_write_books_what_the_term_major_text_books(monkeypatch):
    """A view's write runs a stratum's untraced round text, which has
    no reference loop: its books, per phase, are held to those of the
    term-major traced text of the same loops."""
    edb = Database.from_facts({"e": [(i, i + 1) for i in range(12)]
                               + [(i, i + 3) for i in range(0, 12, 4)]})
    write = {"e": (frozenset({(5, 20), (20, 21), (21, 2)}),
                   frozenset({(6, 7)}))}
    loop_for = PlanCache.loop_for

    def traced(self, joins, pseudo, carry, seen, order, db, tracer=None):
        run, fits = loop_for(self, joins, pseudo, carry, seen, order, db,
                             Tracer())
        labels = (tuple(f"series{m}" for m in range(len(seen))), (), (), ())
        return (lambda carry, seen, names, _, stats, budget, __: run(
            carry, seen, names, labels, stats, budget, Tracer())), fits

    booked = {}
    for flavour in ("untraced", "traced"):
        view = MaintainedView(LINEAR, edb)
        phases = booked[flavour] = []
        monkeypatch.setattr(view_module, "_report", lambda _, stats, *__:
                            phases.append(books(stats)))
        if flavour == "traced":
            monkeypatch.setattr(PlanCache, "loop_for", traced)
        changes = view.apply(write, tracer=Tracer())
        monkeypatch.undo()
        booked[flavour].append(changes)
    assert booked["untraced"] == booked["traced"]
    assert len(booked["untraced"]) == 4  # three phases and the changes
    assert all(phase[0] > 1 for phase in booked["untraced"][:3])


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
