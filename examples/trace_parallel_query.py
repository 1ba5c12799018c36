"""Tracing a parallel query: one Chrome lane per worker process.

A partial selection on Example 2.4's ternary recursion is a Lemma 2.1
union of full selections -- one per sideways-computed seed -- and runs
as *one* seed-tagged fixpoint whose carry holds every seed's tuples.
With a worker pool attached, each round's carry is hash-partitioned
across spawned processes; with a tracer *also* attached, each worker
records its own span tree and ships it home as a TraceFragment the
executor stitches into the parent trace.

This example profiles the same query serially and with 2 workers,
shows which stitched counter totals are byte-identical to the serial
run's (everything the answer depends on) and which grow (each
partition scans its own share of the carry), and writes a Chrome trace
whose process lanes are the actual worker pids.

Run:  python examples/trace_parallel_query.py
"""

import json
import tempfile
from pathlib import Path

from repro import Database, parse_program
from repro.engine import Engine
from repro.observability import reconciled_counter_totals
from repro.parallel import ParallelConfig, ParallelExecutor

# Example 2.4: classes e1 = {0, 1} (descends through a), e2 = {2}
# (ascends through b).  Binding only column 0 is a *partial* selection
# of e1 -- the shape Lemma 2.1 turns into a union over seeds.
PROGRAM = """
t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
t(X, Y, Z) :- t0(X, Y, Z).
"""

QUERY = "t(x0, Y, Z)?"


def branching_database(n: int = 6, branches: int = 3) -> Database:
    """Three disjoint a-chains from (x0, y0): three Lemma 2.1 seeds."""
    db = Database()
    for j in range(branches):
        db.add_fact("a", ("x0", "y0", f"p{j}_0", f"q{j}_0"))
        for i in range(n):
            db.add_fact(
                "a",
                (f"p{j}_{i}", f"q{j}_{i}",
                 f"p{j}_{i + 1}", f"q{j}_{i + 1}"),
            )
        for i in range(0, n, 2):
            db.add_fact("t0", (f"p{j}_{i}", f"q{j}_{i}", "z0"))
    for i in range(n):
        db.add_fact("b", (f"z{i}", f"z{i + 1}"))
    return db


def main() -> None:
    parsed = parse_program(PROGRAM)
    # left_to_right: a partition joins in the order the whole carry
    # would (greedy may re-order for a smaller share).
    engine = Engine(parsed.program, branching_database(),
                    order="left_to_right")
    workdir = Path(tempfile.mkdtemp(prefix="repro-lanes-"))

    # -- 1. the serial reference profile -------------------------------
    serial = engine.profile(QUERY)
    serial_totals = reconciled_counter_totals(serial.tracer)

    # -- 2. the same query, every carry split over 2 workers -----------
    # eager(): partition however small the carry is -- this database
    # is example-sized; see docs/parallelism.md for the real threshold.
    executor = ParallelExecutor(ParallelConfig.eager(2))
    try:
        parallel = engine.profile(QUERY, parallel=executor)
    finally:
        executor.close()

    assert parallel.result.answers == serial.result.answers
    assert parallel.result.stats.as_dict() == serial.result.stats.as_dict()

    # -- 3. stitched counters reconcile --------------------------------
    stitched_totals = reconciled_counter_totals(parallel.tracer)
    # Each partition scans its own share of the carry: one more lookup
    # and one more full scan per partition beyond a round's first (every
    # stage of this plan is a single join).  Nothing else moves.
    shipped = [span.attrs["index"]
               for span in parallel.tracer.spans("parallel.worker")]
    grow = {name: len(shipped) - shipped.count(0)
            for name in ("atom_lookups", "full_scans")}
    print("reconciled counter totals (serial -> parallel):")
    for name in sorted(stitched_totals):
        before, after = serial_totals.get(name, 0), stitched_totals[name]
        assert after == before + grow.get(name, 0), name
        print(f"  {name:<24} {before}" + ("" if after == before
                                          else f" -> {after}"))
    print()

    # -- 4. one lane per worker pid ------------------------------------
    lanes = parallel.worker_lanes()
    print(f"worker lanes: "
          + ", ".join(f"pid {pid} ({count} fragment(s))"
                      for pid, count in sorted(lanes.items())))
    trace_path = workdir / "lanes.trace.json"
    trace_path.write_text(json.dumps(parallel.to_chrome_trace()))
    events = json.loads(trace_path.read_text())["traceEvents"]
    lane_names = sorted(
        e["args"]["name"] for e in events if e["ph"] == "M"
    )
    print(f"chrome trace lanes: {lane_names}")
    print(f"chrome trace written to {trace_path}")
    print("  (load it at https://ui.perfetto.dev)")

    # -- 5. the text report grows a worker_lanes line ------------------
    report = parallel.render_text(timings=False)
    (line,) = [l for l in report.splitlines()
               if l.startswith("worker_lanes=")]
    print(line)


if __name__ == "__main__":
    main()
