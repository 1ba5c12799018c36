"""Property tests for the generated semi-naive loop.

``seminaive_stratum`` drives one generated function per stratum
(``PlanCache.loop_for``); ``naive_evaluate`` shares none of it.  The
programs drawn here put every shape the generator special-cases into
one evaluation: a nonlinear rule (both delta variants read the growing
relation), a two-member SCC whose members differ in arity, a rule with
no SCC atom inside that SCC (it has no delta variant), a head constant
and a repeated head variable -- in a drawn rule order, which is the
order of the loop's join terms; a view's restart over the same programs
runs the maintenance flavour.  ``derandomize`` as in the maintenance
suite: a failure in CI is a failure everywhere.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.naive import naive_evaluate
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import ORDERS
from repro.datalog.programs import Program
from repro.datalog.seminaive import seminaive_evaluate
from repro.maintenance import MaintainedView
from repro.observability import Tracer
from repro.storage import resolve_backend

from ..maintenance.test_view import assert_matches_rebuild

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
    """A view's restart after base inserts -- per SCC, round zero joins
    the inserts and the lower SCCs' additions with the database, then
    the stratum's delta rounds -- reaches the full evaluation's extent
    and reports exactly what it added."""
    program, facts = setup
    view = MaintainedView(program, Database.from_facts(facts))
    before = extents(program, view.db)
    edb = Database.from_facts(facts)
    for fact in inserts:
        edb.add_fact("e", fact)
    changes = view.apply({"e": (frozenset(inserts), frozenset())})
    assert_matches_rebuild(view, edb)
    after = extents(program, view.db)
    assert changes == {p: (frozenset(after[p] - before[p]), frozenset())
                       for p in program.idb_predicates
                       if after[p] != before[p]}
