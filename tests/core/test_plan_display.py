"""Tests for the human-readable compiled form: the Figure 3/4
listings, checked structurally."""

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.compiler import compile_selection
from repro.core.detection import require_separable
from repro.core.selections import classify_selection
from repro.datalog.parser import parse_atom
from repro.workloads.paper import (
    example_1_1_program,
    example_1_2_program,
    example_2_4_program,
)


def plan_for(program, predicate, query_text):
    analysis = require_separable(program, predicate)
    return compile_selection(
        classify_selection(analysis, parse_atom(query_text))
    )


class TestFigure3Listing:
    """Figure 3's instantiated algorithm for Example 1.1, line by line."""

    def test_full_listing_structure(self):
        text = plan_for(
            example_1_1_program(), "buys", "buys(tom, Y)"
        ).describe()
        lines = [line.strip() for line in text.splitlines()]
        assert lines[0] == "separable plan for buys/2"
        assert any("seed columns  (1,)" in line for line in lines)
        # f_1 has one term per rule of e_1 (friend and idol).
        f1_terms = [line for line in lines if line.startswith("[r")]
        assert len(f1_terms) == 2
        assert any("friend(X, W)" in line for line in f1_terms)
        assert any("idol(X, W)" in line for line in f1_terms)
        # the exit join is seen_1 |x| perfectFor, as in the figure
        assert any(
            "__seen1__(X) & perfectFor(X, Y)" in line for line in lines
        )
        # Example 1.1 has no second loop (ans := carry_2).
        assert any("up loop: none" in line for line in lines)

    def test_figure_4_has_both_loops(self):
        text = plan_for(
            example_1_2_program(), "buys", "buys(tom, Y)"
        ).describe()
        assert "down loop (f_1):" in text
        assert "up loop (f_2):" in text
        assert "cheaper(Y, W)" in text

    def test_listing_stable_across_calls(self):
        plan = plan_for(example_1_1_program(), "buys", "buys(tom, Y)")
        assert plan.describe() == plan.describe()


class TestSeedAndAnswerArities:
    @pytest.mark.parametrize(
        "query,seed_arity,answer_arity",
        [
            ("t(c, d, Z)", 2, 1),
            ("t(X, Y, z)", 1, 2),
        ],
    )
    def test_arity_accessors(self, query, seed_arity, answer_arity):
        plan = plan_for(example_2_4_program(), "t", query)
        assert plan.seed_arity == seed_arity
        assert plan.answer_arity == answer_arity


class TestPlanCommandGolden:
    """``repro-datalog plan`` prints what the query's form holds: full
    and partial selections on Examples 1.1, 1.2 and 2.4, byte for byte
    as before query forms (``golden/plans.txt``)."""

    GOLDEN = Path(__file__).parent / "golden" / "plans.txt"
    REPO = Path(__file__).resolve().parents[2]
    CASES = (
        [("ex11", q) for q in ("buys(tom, Y)?", "buys(X, camera)?",
                               "buys(tom, camera)?")]
        + [("ex12", q) for q in ("buys(tom, Y)?", "buys(X, cup)?",
                                 "buys(tom, cup)?")]
        + [("ex24", q) for q in ("t(c, Y, Z)?", "t(c, d, Z)?", "t(X, Y, z)?",
                                 "t(X, d, Z)?", "t(c, Y, z)?", "t(c, c, Z)?")]
    )

    def test_matches_golden_file(self, tmp_path):
        ex11 = tmp_path / "ex11.dl"
        ex11.write_text(
            "buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
            "buys(X, Y) :- idol(X, W) & buys(W, Y).\n"
            "buys(X, Y) :- perfectFor(X, Y).\n"
        )
        files = {
            "ex11": ex11,
            "ex12": self.REPO / "examples" / "example_1_2.dl",
            "ex24": self.REPO / "tests" / "differential" / "corpus"
            / "example-2-4-partial-selection.dl",
        }
        out = io.StringIO()
        for name, query in self.CASES:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["plan", str(files[name]), "--query", query]) == 0
            out.write(f"== {name} {query}\n{printed.getvalue()}")
        assert out.getvalue() == self.GOLDEN.read_text()
