"""Shrinker tests: an injected strategy bug is caught and minimized.

The central scenario monkeypatches a deliberately broken ``magic``
strategy into the engine (it silently drops any answer mentioning the
constant ``poison``), feeds the oracle a noisy case -- extra rules, an
unrelated helper recursion, junk facts -- and asserts the shrinker
reduces the disagreement to a paper-example-sized repro while the same
``(kind, strategy)`` failure keeps reproducing.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.differential import (
    Case,
    make_failure_predicate,
    run_case,
    shrink_case,
)
from repro.engine import Engine

NOISY_PROGRAM = """
tc(X, Y) :- edge(X, W) & tc(W, Y).
tc(X, Y) :- edge(X, Y).
helper(X, Y) :- edge(X, Y) & extra(Y, Z).
helper(X, Y) :- extra(X, Y).
"""


def _noisy_case() -> Case:
    parsed = parse_program(NOISY_PROGRAM)
    db = Database.from_facts(
        {
            "edge": [
                ("a", "b"),
                ("b", "poison"),
                ("poison", "d"),
                ("d", "e"),
                ("x", "y"),
            ],
            "extra": [
                ("a", "a"),
                ("b", "c"),
                ("m", "n"),
            ],
        }
    )
    return Case(
        program=parsed.program,
        database=db,
        query=parse_query("tc(a, Y)?"),
        expect_separable=True,
        note="injected-broken-magic fixture",
    )


@pytest.fixture
def broken_magic(monkeypatch):
    """A strategy stub that silently loses answers mentioning 'poison'."""
    original = Engine._dispatch

    def dispatch(self, strategy, *args, **kwargs):
        answers = original(self, strategy, *args, **kwargs)
        if strategy == "magic":
            answers = frozenset(a for a in answers if "poison" not in a)
        return answers

    monkeypatch.setattr(Engine, "_dispatch", dispatch)


class TestInjectedBug:
    def test_oracle_catches_broken_strategy(self, broken_magic):
        verdict = run_case(_noisy_case())
        assert not verdict.ok
        strategies = {d.strategy for d in verdict.disagreements}
        assert "magic" in strategies
        kinds = {d.kind for d in verdict.disagreements}
        assert "answers" in kinds

    def test_shrinks_to_minimal_repro(self, broken_magic):
        case = _noisy_case()
        verdict = run_case(case)
        signature = next(
            d for d in verdict.disagreements if d.strategy == "magic"
        ).signature
        predicate = make_failure_predicate(signature)
        result = shrink_case(case, predicate)
        rules, facts = result.case.size()
        assert rules <= 3, result.case.to_text()
        assert facts <= 6, result.case.to_text()
        # The minimized case still reproduces the same failure ...
        assert predicate(result.case)
        # ... and is a strict reduction of the noisy original.
        assert (rules, facts) < case.size()

    def test_shrunk_case_replays_from_disk(self, broken_magic, tmp_path):
        from repro.differential import load_case, save_case

        case = _noisy_case()
        verdict = run_case(case)
        signature = verdict.disagreements[0].signature
        predicate = make_failure_predicate(signature)
        result = shrink_case(case, predicate)
        path = save_case(result.case, tmp_path / "repro.dl")
        replayed = load_case(path)
        assert predicate(replayed)


class TestShrinkerContracts:
    def test_rejects_non_failing_start(self):
        case = _noisy_case()
        with pytest.raises(ValueError, match="failing case"):
            shrink_case(case, lambda c: False)

    def test_idempotent(self, broken_magic):
        case = _noisy_case()
        signature = run_case(case).disagreements[0].signature
        predicate = make_failure_predicate(signature)
        once = shrink_case(case, predicate)
        twice = shrink_case(once.case, predicate)
        assert twice.case.size() == once.case.size()

    def test_merges_constants(self):
        # Failure predicate: the 'edge' relation is nonempty.  The
        # shrinker should drop every rule, every other fact, and merge
        # the surviving fact's constants into one.
        case = _noisy_case()

        def has_edge(candidate: Case) -> bool:
            try:
                return bool(candidate.database.tuples("edge"))
            except Exception:
                return False

        result = shrink_case(case, has_edge)
        assert len(result.case.program) == 0
        assert result.case.database.total_tuples() == 1
        assert len(result.case.database.distinct_constants()) == 1

    def test_attempt_bound_respected(self, broken_magic):
        case = _noisy_case()
        signature = run_case(case).disagreements[0].signature
        predicate = make_failure_predicate(signature)
        result = shrink_case(case, predicate, max_attempts=3)
        assert result.attempts <= 3
        # Whatever came back still fails.
        assert predicate(result.case)
