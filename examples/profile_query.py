"""Profiling a query: the telemetry pipeline end to end.

This example mirrors examples/explain_answers.py but asks a different
question: not *why* is each answer true, but *what did answering
cost*.  It profiles the Example 1.2 recursion under two strategies,
prints the EXPLAIN ANALYZE report, writes the span tree to a JSONL
trace file, reads it back, and shows the exporters produce
byte-identical output from the live and rebuilt traces -- which is what
makes a shipped trace file a faithful substitute for being there.

Run:  python examples/profile_query.py
"""

import json
import tempfile
from pathlib import Path

from repro import Database, parse_program
from repro.engine import Engine
from repro.observability import (
    replay_file,
    to_chrome_trace,
    to_metrics_text,
    write_trace,
)

PROGRAM = """
% Example 1.2: friends propagate purchases; cheaper products follow.
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
"""

DATABASE = {
    "friend": [("tom", "sue"), ("sue", "ann")],
    "cheaper": [("mug", "vase"), ("spoon", "mug")],
    "perfectFor": [("ann", "vase"), ("tom", "radio")],
}


def main() -> None:
    parsed = parse_program(PROGRAM)
    db = Database.from_facts(DATABASE)
    workdir = Path(tempfile.mkdtemp(prefix="repro-profile-"))

    # -- 1. profile the query, then write its trace file --------------
    engine = Engine(parsed.program, db)
    profile = engine.profile("buys(tom, Y)?")
    events_path = workdir / "run.jsonl"
    write_trace(events_path, profile.tracer)

    print(profile.render_text())
    print()

    # -- 2. the same run, as a Perfetto-loadable chrome trace ----------
    trace_path = workdir / "run.trace.json"
    trace_path.write_text(json.dumps(profile.to_chrome_trace()))
    print(f"chrome trace written to {trace_path}")
    print("  (load it at https://ui.perfetto.dev)")

    # -- 3. ...and as Prometheus metrics -------------------------------
    print("\nfinal counter totals (Prometheus exposition, excerpt):")
    for line in profile.to_metrics_text().splitlines():
        if line.startswith("repro_") and "rule" not in line:
            print(f"  {line}")

    # -- 4. read the trace file; exporters cannot tell the difference --
    replayed = replay_file(events_path)
    live_chrome = json.dumps(to_chrome_trace(profile.tracer),
                             sort_keys=True)
    replayed_chrome = json.dumps(to_chrome_trace(replayed),
                                 sort_keys=True)
    assert live_chrome == replayed_chrome
    assert to_metrics_text(profile.tracer) == to_metrics_text(replayed)
    print(f"\ntrace file {events_path} replays byte-identically "
          f"({len(json.loads(live_chrome)['traceEvents'])} trace events)")

    # -- 5. compare strategies on the same query -----------------------
    print("\nstrategy comparison (same query, fresh engines):")
    for strategy in ("separable", "magic", "seminaive"):
        eng = Engine(parsed.program, Database.from_facts(DATABASE))
        p = eng.profile("buys(tom, Y)?", strategy=strategy)
        stats = p.stats
        print(
            f"  {strategy:>10}: max_relation={stats.max_relation_size:<4} "
            f"examined={stats.tuples_examined:<5} "
            f"fanout={stats.join_fanout:.3f}"
        )


if __name__ == "__main__":
    main()
