"""Property tests for the generated semi-naive loop.

``seminaive_stratum`` drives one generated function per stratum
(``PlanCache.loop_for``); ``naive_evaluate`` shares none of it.  The
programs drawn here put every shape the generator special-cases into
one evaluation: a nonlinear rule (both delta variants read the growing
relation), a two-member SCC whose members differ in arity, a rule with
no SCC atom inside that SCC (it has no delta variant), a head constant
and a repeated head variable -- in a drawn rule order, which is the
order of the loop's join terms.  ``derandomize`` as in the maintenance
suite: a failure in CI is a failure everywhere.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.joins import evaluate_body_project
from repro.datalog.naive import naive_evaluate
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import ORDERS
from repro.datalog.programs import Program
from repro.datalog.seminaive import seminaive_evaluate, seminaive_stratum
from repro.observability import Tracer
from repro.storage import resolve_backend

COMMON = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CONSTANTS = ["c0", "c1", "c2", "c3", "c4"]

RULES = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, W) & tc(W, Y).
    p(X) :- q(X, Y).
    q(X, Y) :- p(X) & e(X, Y).
    q(X, Y) :- s(X, Y).
    k(c0, Y) :- e(c0, Y).
    k(c0, Y) :- k(c0, X) & e(X, Y).
    d(X, X) :- s(X, Y).
    d(X, X) :- d(Y, Y) & tc(Y, X).
    """
).program.rules


@st.composite
def setups(draw):
    """``(program, facts)``: the rules in a drawn order over a drawn
    EDB (``e`` may be cyclic)."""
    rules = draw(st.permutations(RULES))
    pairs = st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS))
    facts = {
        "e": draw(st.lists(pairs, min_size=1, max_size=8)),
        "s": draw(st.lists(pairs, max_size=3)),
    }
    return Program(tuple(rules)), facts


def extents(program, db):
    return {p: db.tuples(p) for p in program.idb_predicates}


@pytest.mark.parametrize("backend", [None, "sqlite"])
@pytest.mark.parametrize("order", ORDERS)
@COMMON
@given(setup=setups())
def test_generated_loop_matches_naive(order, backend, setup):
    program, facts = setup
    edb = Database.from_facts(facts, backend=resolve_backend(backend)
                              if backend else None)
    want = extents(program, naive_evaluate(program, edb))
    assert extents(program, seminaive_evaluate(program, edb,
                                               order=order)) == want
    # The traced flavour is other generated text: same extents, and its
    # per-round series account for every fact the stratum added.
    tracer = Tracer()
    assert extents(program, seminaive_evaluate(
        program, edb, order=order, tracer=tracer)) == want
    spans = [s for s in tracer.spans() if s.name == "seminaive.scc"]
    assert sorted(p for s in spans for p in s.attrs["scc"]) == \
        sorted(program.idb_predicates)
    for span in spans:
        for p in span.attrs["scc"]:
            assert sum(span.series[f"delta:{p}"]) == \
                span.attrs["final"][p] - span.attrs["initial"][p]
            assert span.attrs["final"][p] == len(want[p])


@COMMON
@given(setup=setups(), inserts=st.lists(
    st.tuples(st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS)),
    min_size=1, max_size=3))
def test_restart_lands_on_the_full_fixpoint(setup, inserts):
    """``initial_deltas`` mode after base inserts: seeded per stratum
    with every one-step consequence of the current database (a superset
    of what the changed facts derive directly), it reaches the full
    evaluation's extent and returns exactly what it added."""
    program, facts = setup
    edb = Database.from_facts(facts)
    db = seminaive_evaluate(program, edb)
    before = extents(program, db)
    for fact in inserts:
        edb.add_fact("e", fact)
        db.add_fact("e", fact)
    for scc in program.evaluation_order:
        rules = [r for r in program.rules if r.head.predicate in scc]
        seeds = {p: set() for p in scc}
        for r in rules:
            seeds[r.head.predicate].update(
                evaluate_body_project(db, r.body, r.head.args))
        added = seminaive_stratum(rules, scc, db, program,
                                  initial_deltas=seeds)
        assert added == {p: db.tuples(p) - before[p] for p in scc}
    assert extents(program, db) == \
        extents(program, seminaive_evaluate(program, edb))
