"""The default (untraced) path must not pay for the tracer's existence.

Every hot loop guards its emissions with ``tracer is not None``, and
``tracer=None`` is the one way to say "off".  The timing checks compare
untraced runs with traced ones under deliberately loose bounds -- they
exist to catch someone re-introducing per-tuple tracer calls, not to
benchmark (that is ``repro-datalog bench``'s job).
"""

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

