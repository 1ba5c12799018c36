"""Property-based tests: every strategy agrees with semi-naive on random
separable recursions, queries, and databases (cyclic ones included)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.budget import Budget
from repro.core.api import evaluate_separable
from repro.core.detection import analyze_recursion, require_separable
from repro.datalog.errors import BudgetExceeded, CyclicDataError
from repro.rewriting.counting import (
    CountingNotApplicable,
    evaluate_counting,
)
from repro.rewriting.magic import evaluate_magic

from ..conftest import oracle_answers, run_loops
from .strategies import CONSTANTS, queries_for, separable_setups

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@COMMON
@given(setup=separable_setups())
def test_generated_programs_are_separable(setup):
    """The generator's 'separable by construction' claim, checked
    against the Definition 2.4 detector."""
    program, _, _, _ = setup
    report = analyze_recursion(program, "t")
    assert report.separable, report.explain()


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_separable_matches_oracle(data):
    (program, db, _, _), query = data
    analysis = require_separable(program, "t")
    expected = oracle_answers(program, db, query)
    got = evaluate_separable(program, db, query, analysis=analysis)
    assert got == expected, (
        f"program:\n{program}\nquery: {query}\n"
        f"got {sorted(got, key=repr)}\nexpected {sorted(expected, key=repr)}"
    )


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_magic_matches_oracle(data):
    (program, db, _, _), query = data
    expected = oracle_answers(program, db, query)
    got = evaluate_magic(program, db, query)
    assert got == expected, (
        f"program:\n{program}\nquery: {query}"
    )


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_counting_matches_oracle_when_applicable(data):
    (program, db, _, _), query = data
    try:
        # Tight limits: cyclic data makes the descent explore p^level
        # paths, so let it fail fast rather than grind to the pigeonhole
        # bound.  BudgetExceeded cases are skipped, not asserted.
        got = evaluate_counting(
            program, db, query,
            budget=Budget(max_relation_tuples=20_000),
            max_levels=24,
        )
    except (CountingNotApplicable, CyclicDataError, BudgetExceeded):
        return  # outside the method's class (or cyclic data): fine
    expected = oracle_answers(program, db, query)
    assert got == expected, (
        f"program:\n{program}\nquery: {query}"
    )


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_justifications_reconstructible(data):
    """Every answer of a traced full-selection run has a justification
    whose derivation string reproduces the answer (Lemma 3.1)."""
    from repro.core.provenance import execute_plan_traced, justify
    from repro.core.compiler import compile_selection
    from repro.core.selections import classify_selection
    from repro.datalog.atoms import Atom
    from repro.datalog.expansion import string_for_derivation
    from repro.datalog.terms import Constant

    (program, db, _, _), query = data
    analysis = require_separable(program, "t")
    selection = classify_selection(analysis, query)
    if not selection.is_full:
        return
    plan = compile_selection(selection)
    answers, trace = execute_plan_traced(plan, db, [selection.seed])
    definition = program.definition("t")
    for up_tuple in answers:
        justification = justify(trace, up_tuple)
        values = [None] * analysis.arity
        for p in plan.selected_positions:
            values[p] = selection.bound[p]
        for col, p in enumerate(plan.up_positions):
            values[p] = up_tuple[col]
        full = tuple(values)
        string = string_for_derivation(
            definition,
            Atom("t", tuple(Constant(v) for v in full)),
            justification.derivation,
            justification.exit_index,
        )
        assert full in string.query().evaluate(db), (
            f"program:\n{program}\nquery: {query}\nanswer {full} not "
            f"justified by {justification}"
        )


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: queries_for(
        setup[0].arity("t"), setup[2], setup[3]
    ).map(lambda q: (setup, q))
))
def test_generated_loop_matches_reference_loop(data):
    """Both flavours of the compiled carry loop against ``_carry_loop``:
    equal answers, statistics and spans (less the plan-lookup
    counters), under every join order."""
    from repro.core.compiler import compile_selection
    from repro.core.selections import classify_selection

    (program, db, _, _), query = data
    analysis = require_separable(program, "t")
    selection = classify_selection(analysis, query)
    if not selection.is_full:
        return
    plan = compile_selection(selection)
    for order in ("greedy", "left_to_right", "cost"):
        for traced in (False, True):
            got = run_loops(plan, db, [selection.seed], False, traced, order)
            want = run_loops(plan, db, [selection.seed], True, traced, order)
            assert got == want, (
                f"program:\n{program}\nquery: {query}\norder {order}, "
                f"traced {traced}:\n{got}\nvs the reference loop's\n{want}"
            )


@COMMON
@given(setup=separable_setups(), data=st.data())
def test_tagged_batch_splits_into_the_per_seed_runs(setup, data):
    """One fixpoint over seed-tagged tuples against one fixpoint per
    seed: the same answers seed by seed and the same tuples produced;
    under ``left_to_right`` (where the join order cannot depend on how
    large the carry is) the same tuples examined too.  Rounds are the
    deepest seed's per loop, not the sum over seeds."""
    from repro.core.compiler import compile_plan
    from repro.core.evaluator import execute_plan
    from repro.observability import Tracer, trace_violations
    from repro.stats import EvaluationStats

    program, db, _, _ = setup
    analysis = require_separable(program, "t")
    if not analysis.classes:
        return
    cls = data.draw(st.sampled_from(analysis.classes))
    seeds = data.draw(st.lists(
        st.tuples(*[st.sampled_from(CONSTANTS)] * cls.width),
        min_size=1, max_size=5, unique=True,
    ))
    plain = compile_plan(analysis, selected_class=cls)
    tagged = compile_plan(analysis, selected_class=cls, tagged=True)

    def rounds(tracer) -> dict:
        return {s.attrs["relation"]: s.counters.get("iterations", 0)
                for s in tracer.spans("separable.loop")}

    for order in ("greedy", "left_to_right"):
        alone = []
        for seed in seeds:
            stats, tracer = EvaluationStats(), Tracer()
            answers = execute_plan(plain, db, [seed], stats=stats,
                                   order=order, tracer=tracer)
            alone.append((answers, stats, rounds(tracer)))
        for traced in (False, True):
            stats = EvaluationStats()
            tracer = Tracer() if traced else None
            seen_2 = execute_plan(
                tagged, db, [(i, *s) for i, s in enumerate(seeds)],
                stats=stats, order=order, tracer=tracer,
            )
            context = (f"program:\n{program}\nclass {cls}, seeds {seeds}, "
                       f"order {order}, traced {traced}")
            for i, (answers, _, _) in enumerate(alone):
                assert {t[1:] for t in seen_2 if t[0] == i} == answers, context
            assert stats.tuples_produced == sum(
                s.tuples_produced for _, s, _ in alone), context
            assert stats.iterations == sum(
                max(r.get(loop, 0) for _, _, r in alone)
                for loop in ("seen_1", "seen_2")), context
            if order == "left_to_right":
                assert stats.tuples_examined == sum(
                    s.tuples_examined for _, s, _ in alone), context
            if traced:
                # seed + sum(carry) == |seen| holds on the tagged loops.
                assert trace_violations(tracer) == [], context
