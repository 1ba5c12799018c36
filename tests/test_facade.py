"""Cross-cutting facade tests: package exports, result objects, and the
odd corners of the public API surface."""

import pytest

import repro
from repro import Engine, parse_program
from repro.workloads.paper import example_1_1_program


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_exports_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), name

    def test_datalog_exports_resolve(self):
        import repro.datalog

        for name in repro.datalog.__all__:
            assert hasattr(repro.datalog, name), name

    def test_rewriting_exports_resolve(self):
        import repro.rewriting

        for name in repro.rewriting.__all__:
            assert hasattr(repro.rewriting, name), name

    def test_workloads_exports_resolve(self):
        import repro.workloads

        for name in repro.workloads.__all__:
            assert hasattr(repro.workloads, name), name


class TestQueryResultSurface:
    @pytest.fixture
    def engine(self, example_1_1):
        program, db = example_1_1
        return Engine(program, db)

    def test_plan_attached_for_separable(self, engine):
        result = engine.query("buys(tom, Y)?")
        assert result.plan is not None
        assert "down loop" in result.describe_plan()

    def test_plan_absent_for_magic(self, engine):
        result = engine.query("buys(tom, Y)?", strategy="magic")
        assert result.plan is None
        assert "no compiled Separable plan" in result.describe_plan()

    def test_plan_cache_shared_across_queries(self, engine):
        first = engine.query("buys(tom, Y)?")
        second = engine.query("buys(sue, Y)?")
        assert first.plan is second.plan
        different_pattern = engine.query("buys(X, camera)?")
        assert different_pattern.plan is not first.plan

    def test_stats_passed_through(self, engine):
        from repro.stats import EvaluationStats

        stats = EvaluationStats()
        result = engine.query("buys(tom, Y)?", stats=stats)
        assert result.stats is stats
        assert stats.strategy == "separable"

    def test_readme_quickstart_verbatim(self):
        """The README's quickstart block must actually work."""
        parsed = parse_program(
            """
            buys(X, Y) :- friend(X, W) & buys(W, Y).
            buys(X, Y) :- idol(X, W) & buys(W, Y).
            buys(X, Y) :- perfectFor(X, Y).

            friend(tom, sue).   friend(sue, ann).
            idol(tom, ann).     perfectFor(ann, camera).
            """
        )
        engine = Engine(parsed.program, parsed.database)
        result = engine.query("buys(tom, Y)?")
        assert result.sorted() == [("tom", "camera")]
        assert result.strategy == "separable"

    def test_readme_explain_verbatim(self):
        from repro import parse_atom
        from repro.core import explain

        parsed = parse_program(
            """
            buys(X, Y) :- friend(X, W) & buys(W, Y).
            buys(X, Y) :- idol(X, W) & buys(W, Y).
            buys(X, Y) :- perfectFor(X, Y).

            friend(tom, sue).   friend(sue, ann).
            idol(tom, ann).     perfectFor(ann, camera).
            """
        )
        explained = explain(
            parsed.program, parsed.database, parse_atom("buys(tom, Y)")
        )
        assert ("tom", "camera") in explained
        rendered = str(explained[("tom", "camera")])
        assert rendered.startswith("J(")


class TestEngineMiscellany:
    def test_engine_accepts_empty_edb(self):
        from repro.datalog.database import Database

        engine = Engine(example_1_1_program(), Database())
        assert engine.query("buys(tom, Y)?").answers == frozenset()

    def test_relaxed_plan_attached(self):
        from repro.datalog.database import Database
        from repro.workloads.paper import section_5_nonseparable_program

        db = Database.from_facts(
            {"a": [("c", "m")], "t0": [("m", "u")], "b": [("u", "v")]}
        )
        engine = Engine(section_5_nonseparable_program(), db)
        result = engine.query("t(c, v)?", strategy="relaxed")
        assert result.plan is not None  # full selection: both cols bound

    def test_separate_engines_do_not_share_caches(self, example_1_1):
        program, db = example_1_1
        first = Engine(program, db)
        second = Engine(program, db)
        first.query("buys(tom, Y)?")
        # Reports -- and with them the compiled plans -- are per engine.
        assert first._reports and not second._reports
        assert second.plan_for("buys(tom, Y)?") is not first.plan_for(
            "buys(tom, Y)?")
