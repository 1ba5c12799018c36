"""Unit tests for plan compilation (Section 3.3, Figures 3 and 4)."""

import pytest

from repro.core.compiler import compile_plan, compile_selection
from repro.core.detection import require_separable
from repro.core.plan import CARRY, SEEN
from repro.core.selections import classify_selection
from repro.datalog.errors import NotFullSelectionError
from repro.datalog.parser import parse_atom
from repro.workloads.paper import (
    example_1_1_program,
    example_1_2_program,
    example_2_4_program,
)


def plan_for(program, predicate, query_text):
    analysis = require_separable(program, predicate)
    selection = classify_selection(analysis, parse_atom(query_text))
    return compile_selection(selection)


class TestFigure3:
    """The instantiation for Example 1.1, query buys(tom, Y)? (Figure 3)."""

    def test_shape(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(tom, Y)")
        assert plan.selected_positions == (0,)
        assert plan.up_positions == (1,)
        assert len(plan.down_joins) == 2   # friend and idol
        assert len(plan.exit_joins) == 1   # perfectFor
        assert plan.up_joins == ()         # ans := seen_2 directly

    def test_down_join_bodies(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(tom, Y)")
        predicates = sorted(
            a.predicate
            for j in plan.down_joins
            for a in j.body
            if a.predicate != CARRY
        )
        assert predicates == ["friend", "idol"]
        for j in plan.down_joins:
            assert any(a.predicate == CARRY for a in j.body)
            assert len(j.output) == 1

    def test_exit_join_uses_seen(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(tom, Y)")
        exit_preds = {a.predicate for a in plan.exit_joins[0].body}
        assert SEEN in exit_preds
        assert "perfectFor" in exit_preds

    def test_describe_readable(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(tom, Y)")
        text = plan.describe()
        assert "down loop" in text
        assert "friend" in text and "idol" in text


class TestFigure4:
    """The instantiation for Example 1.2, query buys(tom, Y)? (Figure 4)."""

    def test_shape(self):
        plan = plan_for(example_1_2_program(), "buys", "buys(tom, Y)")
        assert len(plan.down_joins) == 1   # friend
        assert len(plan.up_joins) == 1     # cheaper
        assert plan.selected_class_index == 1

    def test_up_join_uses_cheaper(self):
        plan = plan_for(example_1_2_program(), "buys", "buys(tom, Y)")
        up_preds = {a.predicate for a in plan.up_joins[0].body}
        assert "cheaper" in up_preds and CARRY in up_preds


class TestPersDriven:
    def test_dummy_class_skips_down_loop(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(X, camera)")
        assert plan.down_joins == ()
        assert plan.selected_class_index is None
        assert plan.selected_positions == (1,)
        assert plan.up_positions == (0,)
        # Every real class now runs in the up loop.
        assert len(plan.up_joins) == 2

    def test_describe_mentions_dummy(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(X, camera)")
        assert "dummy" in plan.describe()


class TestMultiClass:
    def test_example_2_4_selected_class_e1(self):
        plan = plan_for(example_2_4_program(), "t", "t(c, d, Z)")
        assert plan.selected_positions == (0, 1)
        assert plan.up_positions == (2,)
        assert plan.seed_arity == 2
        assert plan.answer_arity == 1

    def test_example_2_4_selected_class_e2(self):
        plan = plan_for(example_2_4_program(), "t", "t(X, Y, z)")
        assert plan.selected_positions == (2,)
        assert plan.up_positions == (0, 1)
        assert len(plan.up_joins) == 1  # class e_1's single rule


class TestValidation:
    def test_partial_selection_rejected(self):
        analysis = require_separable(example_2_4_program(), "t")
        selection = classify_selection(analysis, parse_atom("t(c, Y, Z)"))
        with pytest.raises(NotFullSelectionError):
            compile_selection(selection)

    def test_compile_plan_requires_exactly_one_component(self):
        analysis = require_separable(example_1_1_program(), "buys")
        with pytest.raises(ValueError):
            compile_plan(analysis)
        with pytest.raises(ValueError):
            compile_plan(
                analysis,
                selected_class=analysis.classes[0],
                pers_positions=(1,),
            )

    def test_pers_positions_validated(self):
        analysis = require_separable(example_1_1_program(), "buys")
        with pytest.raises(ValueError):
            compile_plan(analysis, pers_positions=(0,))  # 0 is a class col


class TestCompileOnce:
    """A plan is a function of (analysis, component): compiled
    once, kept with the analysis, shared by every query on it."""

    def test_queries_on_one_component_share_one_plan_object(
            self, example_1_1, monkeypatch):
        from repro import Engine
        from repro.core import api
        from repro.datalog.plan_cache import PLAN_CACHE
        from repro.observability.tracer import Tracer

        program, db = example_1_1
        engine = Engine(program, db)
        ran = []
        execute = api.execute_plan
        monkeypatch.setattr(
            api, "execute_plan",
            lambda plan, *a, **kw: ran.append(plan) or execute(
                plan, *a, **kw))
        PLAN_CACHE.clear()
        compiles = []
        for query in ("buys(tom, Y)?", "buys(sue, Y)?", "buys(X, tent)?"):
            tracer = Tracer()
            result = engine.query(query, tracer=tracer)
            assert result.plan is ran[-1] is engine.plan_for(query)
            compiles.append(tracer.counter_total("plan_compiles"))
        assert ran[0] is ran[1] and ran[2] is not ran[0]
        # The join kernels: compiled per plan shape, as before.
        assert compiles == [3, 0, 3]

    def test_keyed_on_every_argument(self):
        analysis = require_separable(example_2_4_program(), "t")
        cls = analysis.classes[0]
        plain = compile_plan(analysis, selected_class=cls)
        assert compile_plan(analysis, selected_class=cls) is plain
        other_class = compile_plan(analysis,
                                   selected_class=analysis.classes[1])
        assert other_class is not plain
        assert compile_plan(analysis,
                            selected_class=analysis.classes[1]) is other_class
        other = require_separable(example_2_4_program(), "t")
        assert other == analysis
        assert compile_plan(other, selected_class=cls) is not plain
        with pytest.raises(ValueError):
            compile_plan(analysis)  # rejected every time, never cached
        with pytest.raises(ValueError):
            compile_plan(analysis)
