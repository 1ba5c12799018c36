"""The default (untraced) path must not pay for the tracer's existence.

Every hot loop guards its emissions with ``tracer is not None``, and
``tracer=None`` is the one way to say "off".  The timing checks compare
untraced runs with traced ones under deliberately loose bounds -- they
exist to catch someone re-introducing per-tuple tracer calls or
per-tuple event emission, not to benchmark (that is ``repro-datalog
bench``'s job).
"""

import statistics
import time

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_evaluate
from repro.observability import Tracer
from repro.workloads import star

#: One hub fanning out to 10,000 leaves: a 10k-fact EDB whose TC is
#: another 10k facts, big enough that per-tuple overhead would show.
N_LEAVES = 10_000

_PROGRAM = parse_program(
    "tc(X, Y) :- e(X, W) & tc(W, Y).\n"
    "tc(X, Y) :- e(X, Y).\n"
).program


def _database():
    return Database.from_facts({"e": star(N_LEAVES)})


def _run(tracer):
    db = _database()
    start = time.perf_counter()
    result = seminaive_evaluate(_PROGRAM, db, tracer=tracer)
    elapsed = time.perf_counter() - start
    assert result.size("tc") == N_LEAVES
    return elapsed


def test_live_tracer_records_the_same_run():
    """Sanity: the instrumented path observes the 10k-fact workload."""
    tracer = Tracer()
    _run(tracer)
    (scc,) = tracer.spans("seminaive.scc")
    assert scc.attrs["final"] == {"tc": N_LEAVES}
    assert tracer.counter_total("tuples_examined") > N_LEAVES


def test_jsonl_sink_overhead_bounded(tmp_path):
    """Streaming events to a JSONL file must stay cheap.

    Events fire per span and per iteration -- counter totals ride on
    span_close, never per tuple -- so an E2-style run (Example 1.2,
    magic, n=64) with a file sink attached must finish within 2x the
    untraced wall-clock (plus an additive constant for timer noise on
    a fast cell).
    """
    from repro.engine import Engine
    from repro.observability import JsonlFileSink
    from repro.workloads.paper import (
        example_1_2_database,
        example_1_2_program,
    )

    def run(sink_path=None):
        engine = Engine(example_1_2_program(), example_1_2_database(64))
        sink = JsonlFileSink(sink_path) if sink_path is not None else None
        tracer = Tracer(sink=sink) if sink is not None else None
        start = time.perf_counter()
        result = engine.query(
            "buys(a1, Y)?", strategy="magic", tracer=tracer
        )
        elapsed = time.perf_counter() - start
        if sink is not None:
            sink.close()
        assert result.answers
        return elapsed

    untraced = statistics.median(run() for _ in range(5))
    traced = statistics.median(
        run(tmp_path / f"t{i}.jsonl") for i in range(5)
    )
    assert traced <= untraced * 2.0 + 0.05, (
        f"JSONL-sink run took {traced:.4f}s vs {untraced:.4f}s untraced"
    )
