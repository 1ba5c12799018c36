"""Shared fixtures and oracles for the test suite.

The central oracle is :func:`oracle_answers`: semi-naive materialization
followed by query matching.  Every strategy (Separable, Magic, Counting,
no-dedup) is tested for answer-set equality against it.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.budget import UNLIMITED
from repro.core.evaluator import _reference_loops, execute_plan
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.errors import BudgetExceeded
from repro.datalog.parser import parse_program
from repro.datalog.programs import Program
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.terms import Constant, Variable
from repro.differential.oracle import _span_rows
from repro.observability import Tracer
from repro.stats import EvaluationStats
from repro.workloads import paper


def oracle_answers(program: Program, edb: Database, query: Atom) -> frozenset:
    """Reference answers: full materialization + selection filter."""
    materialized = seminaive_evaluate(program, edb)
    answers = set()
    for fact in materialized.tuples(query.predicate):
        bindings: dict[Variable, object] = {}
        ok = True
        for value, term in zip(fact, query.args):
            if isinstance(term, Constant):
                if term.value != value:
                    ok = False
                    break
            else:
                prior = bindings.setdefault(term, value)
                if prior != value:
                    ok = False
                    break
        if ok:
            answers.add(fact)
    return frozenset(answers)


def run_loops(plan, db, seeds, reference, traced=False, order="greedy",
              budget=UNLIMITED):
    """``execute_plan`` through the reference carry loop
    (``_carry_loop``) or through the generated one.  Returns ``(answers,
    or the limit of the BudgetExceeded raised, stats, span rows)`` --
    what the two must agree on, span rows less ``plan_cache_hits``."""
    stats = EvaluationStats()
    tracer = Tracer() if traced else None
    try:
        with _reference_loops() if reference else nullcontext():
            outcome = execute_plan(
                plan, db, seeds, stats=stats, budget=budget, order=order,
                tracer=tracer,
            )
    except BudgetExceeded as exc:
        assert exc.stats is stats
        outcome = exc.limit
    return outcome, stats, _span_rows(tracer) if traced else None


@pytest.fixture
def example_1_1():
    """(program, database) for Example 1.1 with a small concrete EDB."""
    program = paper.example_1_1_program()
    db = Database.from_facts(
        {
            "friend": [("tom", "sue"), ("sue", "ann"), ("ann", "joe")],
            "idol": [("tom", "ann"), ("joe", "kim")],
            "perfectFor": [
                ("ann", "camera"),
                ("kim", "tent"),
                ("sue", "boat"),
            ],
        }
    )
    return program, db


@pytest.fixture
def example_1_2():
    """(program, database) for Example 1.2 with a small concrete EDB."""
    program = paper.example_1_2_program()
    db = Database.from_facts(
        {
            "friend": [("tom", "sue"), ("sue", "ann")],
            "cheaper": [("cup", "knife"), ("knife", "tent")],
            "perfectFor": [("ann", "tent"), ("tom", "boat")],
        }
    )
    return program, db


@pytest.fixture
def example_2_4():
    """(program, database) for the ternary Example 2.4 recursion."""
    program = paper.example_2_4_program()
    db = Database.from_facts(
        {
            "a": [
                ("c", "d", "e", "f"),
                ("e", "f", "g", "h"),
                ("c", "x", "e", "f"),
            ],
            "b": [("p", "q"), ("q", "r")],
            "t0": [("g", "h", "p"), ("e", "f", "p"), ("c", "d", "z")],
        }
    )
    return program, db


@pytest.fixture
def transitive_closure():
    """The classic separable recursion: transitive closure of an edge set."""
    program = parse_program(
        """
        tc(X, Y) :- edge(X, W) & tc(W, Y).
        tc(X, Y) :- edge(X, Y).
        """
    ).program
    db = Database.from_facts(
        {
            "edge": [
                ("a", "b"),
                ("b", "c"),
                ("c", "d"),
                ("b", "e"),
                ("e", "d"),
            ]
        }
    )
    return program, db
