"""Parallel evaluation must be a pure optimization: identical answers
and identical merged counters, run after run, at every worker and
partition count -- all equal to the serial evaluation."""

import pytest

from repro.engine import Engine
from repro.parallel import ParallelConfig, get_executor

from .conftest import two_class_workload

QUERIES = [
    "t(x0, Y)?",   # full selection: carry partitioning
    "t(X, z8)?",   # full selection on the other class
    "t(x0, z6)?",  # both classes bound: full, with a residual constant
    "t(x3, z9)?",
]


def _run(program, db, query, executor=None):
    result = Engine(program, db).query(
        query, strategy="separable", parallel=executor
    )
    return (
        frozenset(result.answers),
        result.stats.tuples_produced,
        result.stats.iterations,
    )


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("query", QUERIES)
    def test_answers_and_counters_match_serial(self, two_class, query):
        program, db = two_class
        serial = _run(program, db, query)
        parallel = _run(program, db, query,
                        get_executor(ParallelConfig.eager(2)))
        assert parallel == serial

    @pytest.mark.parametrize("partitions", [1, 2, 3, 5])
    def test_partition_count_is_invisible(self, two_class, partitions):
        program, db = two_class
        serial = _run(program, db, "t(x0, Y)?")
        executor = get_executor(
            ParallelConfig.eager(2, partitions=partitions)
        )
        assert _run(program, db, "t(x0, Y)?", executor) == serial


class TestRunToRunDeterminism:
    def test_two_runs_are_identical(self, two_class):
        program, db = two_class
        executor = get_executor(ParallelConfig.eager(2))
        runs = [
            [_run(program, db, q, executor) for q in QUERIES]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
