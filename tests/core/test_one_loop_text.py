"""A carry loop is a one-member stratum: one generated text for both.

Figure 2's ``carry = produced - seen`` (Theorem 3.1) is semi-naive's
difference with ``carry`` as the delta and ``seen`` as the only member,
so the loop generator has one flavour: Example 1.1's down loop and a
linear stratum whose delta terms join the same way run one function,
and every caller of ``PlanCache.loop_for`` gets ``(run, fits)`` back.
"""

from repro.budget import UNLIMITED
from repro.core.evaluator import _generated_loop, execute_plan, loop_source
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import DELTA, PLAN_CACHE, PlanCache
from repro.datalog.seminaive import seminaive_evaluate
from repro.maintenance import MaintainedView
from repro.stats import EvaluationStats
from repro.workloads.paper import example_1_1_program

from .test_evaluator import plan_of

#: Example 1.1's down loop is ``(W) := carry(X) & friend(X, W)`` and the
#: same over ``idol``; this stratum's delta terms are ``(W) := Δr(X) &
#: friend(X, W)`` and the same over ``idol``.
STRATUM = parse_program(
    "r(W) :- r(X) & friend(X, W).\n"
    "r(W) :- r(X) & idol(X, W).\n"
    "r(X) :- s(X).").program
FACTS = {
    "friend": [("a", "b"), ("b", "c"), ("c", "d")],
    "idol": [("a", "c"), ("d", "e")],
    "perfectFor": [("e", "tent")],
    "s": [("a",)],
}


def loop_texts() -> list[str]:
    return [source for source in PLAN_CACHE._shapes
            if source.startswith("def loop(")]


def test_a_carry_loop_and_a_linear_stratum_are_one_function():
    PLAN_CACHE.clear()
    db = Database.from_facts(FACTS)
    plan, seed = plan_of(example_1_1_program(), "buys", "buys(a, Y)")
    seen = _generated_loop(plan.down_joins, {None: {seed}}, db, "carry_1",
                           "seen_1", EvaluationStats(), UNLIMITED,
                           "greedy")[None]
    assert seen == {("a",), ("b",), ("c",), ("d",), ("e",)}
    assert seminaive_evaluate(STRATUM, db).tuples("r") == seen
    text, = loop_texts()
    assert loop_source(plan, "down") == [text]
    stratum = PLAN_CACHE.loops_for((DELTA + "r",))
    assert stratum and {source for _, source, *_ in stratum} == {text}
    assert "carry = produced - seen" in text


def test_every_caller_gets_run_and_fits(monkeypatch):
    """The carry loop, a stratum and a view's write alike."""
    returned: dict[str, list] = {}
    loop_for = PlanCache.loop_for
    caller = ["carry loop"]

    def spy(self, *args, **kwargs):
        result = loop_for(self, *args, **kwargs)
        returned.setdefault(caller[0], []).append(result)
        return result

    monkeypatch.setattr(PlanCache, "loop_for", spy)
    db = Database.from_facts(FACTS)
    plan, seed = plan_of(example_1_1_program(), "buys", "buys(a, Y)")
    assert execute_plan(plan, db, [seed]) == {("tent",)}
    caller[0] = "stratum"
    view = MaintainedView(STRATUM, db)
    caller[0] = "view"
    view.apply({"friend": (frozenset({("e", "f")}), frozenset())})
    assert ("f",) in view.db.relation("r")
    assert set(returned) == {"carry loop", "stratum", "view"}
    for results in returned.values():
        for result in results:
            assert type(result) is tuple and len(result) == 2
            assert all(map(callable, result))
