"""Join-order properties of :func:`repro.datalog.joins.evaluate_body_into`.

The two offered orders must be *semantically* interchangeable (the
docstring's "results are identical, only the work differs") and the
greedy heuristic must actually reduce work on the workload it was built
for -- a selection probing into a chain, where left-to-right starts
from an unbound recursive atom and fetches the whole materialized
closure while greedy starts from the bound base atom.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant, Variable
from repro.stats import EvaluationStats
from repro.workloads.generators import chain

from ..interpreter import solutions
from .strategies import separable_setups

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _binding_set(db, body, order, initial=None, stats=None):
    return frozenset(
        frozenset(b.items())
        for b in solutions(
            db, body, initial_bindings=initial, stats=stats, order=order
        )
    )


@COMMON
@given(setup=separable_setups())
def test_greedy_and_left_to_right_agree_on_random_conjunctions(setup):
    """Both orders enumerate exactly the same substitutions.

    The bodies come from the shared separable-recursion generator, so
    they are the conjunctions every evaluator in the package actually
    runs: a recursive atom plus connected nonrecursive subgoals, over a
    random small EDB (the recursive predicate's extent is materialized
    first so its atoms are not vacuously empty).
    """
    program, db, _classes, _pers = setup
    full = seminaive_evaluate(program, db)
    for rule in program.rules:
        assert _binding_set(full, rule.body, "greedy") == _binding_set(
            full, rule.body, "left_to_right"
        )


@COMMON
@given(
    n=st.integers(min_value=3, max_value=30),
    start=st.integers(min_value=0, max_value=29),
)
def test_greedy_examines_no_more_than_left_to_right_on_chains(n, start):
    """On a bound chain probe, greedy work <= left-to-right work.

    Body ``tc(W, Y) & e(X, W)`` with ``X`` pre-bound: left-to-right
    must fetch the whole O(n^2) closure for the unbound ``tc`` atom;
    greedy picks the bound ``e`` atom first and only walks the suffix.
    Binding sets still agree (the semantic property above, pinned on
    the workload where the work actually differs).
    """
    start = start % n
    program = parse_program(
        "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
    ).program
    db = Database.from_facts({"e": chain(n)})
    full = seminaive_evaluate(program, db)

    body = (
        Atom("tc", (Variable("W"), Variable("Y"))),
        Atom("e", (Variable("X"), Variable("W"))),
    )
    initial = {Variable("X"): f"a{start}"}

    greedy_stats = EvaluationStats()
    l2r_stats = EvaluationStats()
    greedy = _binding_set(full, body, "greedy", initial, greedy_stats)
    l2r = _binding_set(full, body, "left_to_right", initial, l2r_stats)

    assert greedy == l2r
    assert greedy_stats.tuples_examined <= l2r_stats.tuples_examined
    if start < n - 2:
        # The probe matched something, so the gap is strict: l2r paid
        # for the whole closure, greedy for one out-edge plus a suffix.
        assert greedy_stats.tuples_examined < l2r_stats.tuples_examined
