"""Property-based tests: cost-based join orders are answer-preserving.

The planner only permutes joins, so ``order="cost"`` must be
observably identical to ``greedy`` and ``left_to_right`` on every body
and query the differential corpus layouts can produce -- including eq/2 atoms rectification placed before
their binders (the PR 4 deferral edge case, which the planner's
index-level deferral pass must preserve).
"""

from hypothesis import HealthCheck, given, settings

from repro.datalog.plan_cache import ORDERS
from repro.engine import Engine

from ..interpreter import solutions
from .strategies import queries_for, separable_setups
from .test_property_plan_cache import _binding_set, _corpus_bodies

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@COMMON
@given(case=_corpus_bodies())
def test_cost_orders_match_greedy_on_corpus_bodies(case):
    """Body-level equivalence, eq-before-binders placements included."""
    db, body, initial = case
    reference = _binding_set(
        solutions(db, body, initial_bindings=initial, order="greedy")
    )
    for order in ("left_to_right", "cost"):
        assert _binding_set(
            solutions(
                db, body, initial_bindings=initial, order=order
            )
        ) == reference, order


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_orders_answer_equivalent_end_to_end(data):
    """Query-level equivalence: one engine per order, same answers."""
    (program, db, _, _), query = data
    answers = {}
    for order in ORDERS:
        engine = Engine(program, db, order=order)
        result = engine.query(query, strategy="seminaive")
        answers[order] = result.answers
    reference = answers["greedy"]
    for order, got in answers.items():
        assert got == reference, (
            f"order {order}: program:\n{program}\nquery: {query}\n"
            f"got {sorted(got, key=repr)}\n"
            f"expected {sorted(reference, key=repr)}"
        )
