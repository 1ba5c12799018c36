"""Unit tests for selection classification (Definition 2.7)."""

import pytest

from repro.core.compiler import compile_selection, query_form
from repro.core.detection import require_separable
from repro.core.selections import classify_selection
from repro.datalog.errors import NotFullSelectionError
from repro.datalog.parser import parse_atom
from repro.workloads.paper import (
    example_1_1_program,
    example_1_2_program,
    example_2_4_program,
)


@pytest.fixture
def ex11():
    return require_separable(example_1_1_program(), "buys")


@pytest.fixture
def ex12():
    return require_separable(example_1_2_program(), "buys")


@pytest.fixture
def ex24():
    return require_separable(example_2_4_program(), "t")


class TestClassDrivenSelections:
    def test_bound_class_column(self, ex11):
        s = classify_selection(ex11, parse_atom("buys(tom, Y)"))
        assert s.is_full
        assert s.selected_class is not None
        assert s.selected_positions == (0,)
        assert s.seed == ("tom",)

    def test_example_1_2_first_column(self, ex12):
        s = classify_selection(ex12, parse_atom("buys(tom, Y)"))
        assert s.is_full
        assert s.selected_class.index == 1

    def test_example_1_2_second_column(self, ex12):
        s = classify_selection(ex12, parse_atom("buys(X, cup)"))
        assert s.is_full
        assert s.selected_class.index == 2
        assert s.selected_positions == (1,)

    def test_fully_bound_query(self, ex12):
        query = parse_atom("buys(tom, cup)")
        s = classify_selection(ex12, query)
        assert s.is_full
        # The other column becomes a filter.
        assert set(s.bound) - set(s.selected_positions)
        assert not query_form(ex12, query).vacuous

    def test_widest_class_preferred(self, ex24):
        s = classify_selection(ex24, parse_atom("t(c, d, e)"))
        assert s.is_full
        assert s.selected_class.positions == (0, 1)


class TestPersDrivenSelections:
    def test_pers_constant_is_full(self, ex11):
        # Column 2 of Example 1.1 is persistent.
        s = classify_selection(ex11, parse_atom("buys(X, camera)"))
        assert s.is_full
        assert s.selected_class is None
        assert s.selected_positions == (1,)

    def test_pers_preferred_over_class(self, ex11):
        query = parse_atom("buys(tom, camera)")
        s = classify_selection(ex11, query)
        assert s.selected_class is None  # pers wins
        assert s.selected_positions == (1,)
        assert s.bound == {0: "tom", 1: "camera"}
        assert not query_form(ex11, query).vacuous  # tom is a filter


class TestPartialSelections:
    def test_example_2_4_partial(self, ex24):
        """The paper's running non-full example: t(c, Y, Z)?."""
        query = parse_atom("t(c, Y, Z)")
        s = classify_selection(ex24, query)
        assert not s.is_full
        assert s.has_constants
        # Lemma 2.1 rewrites the partially bound class e_1.
        form = query_form(ex24, query)
        assert form.batch.plan.selected_class_index == 1

    def test_no_constants(self, ex11):
        s = classify_selection(ex11, parse_atom("buys(X, Y)"))
        assert not s.is_full
        assert not s.has_constants

    def test_require_full_raises(self, ex24):
        query = parse_atom("t(c, Y, Z)")
        with pytest.raises(NotFullSelectionError):
            query_form(ex24, query).full_plan(query)

    def test_require_full_passes(self, ex24):
        query = parse_atom("t(c, d, Z)")
        assert query_form(ex24, query).full_plan(query) is compile_selection(
            classify_selection(ex24, query))


class TestValidation:
    def test_wrong_predicate(self, ex11):
        with pytest.raises(ValueError):
            classify_selection(ex11, parse_atom("other(tom, Y)"))

    def test_wrong_arity(self, ex11):
        with pytest.raises(ValueError):
            classify_selection(ex11, parse_atom("buys(tom)"))
