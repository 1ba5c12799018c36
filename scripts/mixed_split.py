#!/usr/bin/env python
"""Where a pass of a ledger service workload spends its time, through
the public API.

Builds the ledger's own ``serve-mixed``, ``serve-sqlite`` or
``serve-read`` stream (``ledger/workloads.py``, same seed -> same
bytes; services opened and ops turned into calls by
``ledger/harness.py``, as the benchmark does; several clients' streams
dealt into one, round-robin, as ``ledger/layers.py`` does) and drives it
through ``QueryService`` twice over: the workload's own service, which
is timed, and a plain in-memory non-incremental one on the same stream
(for ``serve-read``, a memo-less ``Engine`` on the same database),
whose answers are the reference.  Per pass it prints the milliseconds
spent in reads and in writes, then

``serve-mixed`` (the default; incremental view, memory)
  the read p50 of a seed seen earlier in the pass against the p50 of a
  first-seen seed (every pass starts from a cleared memo, as the
  ledger's passes do) and their ratio, and what the pass's writes cost,
  per write and per phase, from the ``service.mutate.capture`` /
  ``.apply`` spans of ``metrics_dict()["evaluator_phases"]`` and the
  view's own ``view.overestimate`` / ``.rederive`` / ``.restart``
  under ``.apply``, then the plan-cache lookups and the fixpoint rounds
  a write makes; after the passes, the indexes the view's ``buys``
  holds;

``serve-sqlite`` (temporary-mode SQLite, no view)
  the read p50 of the first read after a write (it captures the new
  snapshot) beside the other memo misses and the hits; then, from one
  more *untimed* pass on a second service whose connections are opened
  under ``sqlite3.Connection.set_trace_callback``, the relation copies,
  connections and SQL statements per write and per read of each kind;

``serve-read`` (read-only, memo larger than the seed set)
  the read p50 of a first-seen seed (a memo miss) beside that of a memo
  hit, and the memo's hits / misses / coalesced.

For both memo workloads the memo's per-pass counters follow the p50s.
These are the numbers ROADMAP aim 1 ("where the mixed workload
stands"), the ROADMAP storage item and ``docs/performance.md`` quote.
Half-way through a pass's writes both services also answer, untimed,
one all-free and one repeated-variable query (the stream itself holds
full selections only).  Exit status 1 when any read differs from the
reference, when a ``serve-mixed`` write makes more than
``MAX_PLAN_LOOKUPS_PER_WRITE`` plan lookups, when a derived relation of
the view ends a pass holding an index over all of its columns, when a
read was not served on the calling thread by one
``MaintainedView.select`` (``serve-mixed``) or one ``Engine.query``
(the others) -- the script wraps both to note the thread that ran them,
since ``query()`` never hands off -- or when a memo hit's answers are
not the very object the memo entry holds.

Usage: python scripts/mixed_split.py [--workload NAME] [--seed N]
                                     [--passes N] [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "ledger"), str(REPO / "src")]

import workloads  # noqa: E402  (ledger/)
from harness import calls, close_target, open_target  # noqa: E402
from layers import _deal  # noqa: E402

from repro.datalog.plan_cache import PLAN_CACHE  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.maintenance import MaintainedView  # noqa: E402
from repro.service import FullSelectionMemo  # noqa: E402
from repro.storage import SQLiteRelation  # noqa: E402

PHASES = ("capture", "apply")
#: ``MaintainedView.apply``'s own spans, the split of ``apply``.
VIEW_PHASES = ("overestimate", "rederive", "restart")
#: ``plan_lookups/write`` over this fails the run (CI): a write runs the
#: functions its view bound on earlier writes and asks the plan cache
#: only when its sizes fit none of them -- 0.0 a write after the
#: warm-up pass, full and --quick, at seeds 7, 11 and 13 (6.0 while
#: every join and loop of a write planned at entry, 21.6 while the
#: restart and the overestimate planned per round).
MAX_PLAN_LOOKUPS_PER_WRITE = 0
#: Reads no ledger stream holds, diffed once a pass (untimed).
EXTRA_READS = ("buys(X, Y)?", "buys(X, X)?")
#: What a read is filed under, per workload, in print order.
KINDS = {"serve-mixed": ("repeat", "first"),
         "serve-sqlite": ("after_write", "miss", "hit"),
         "serve-read": ("miss", "hit")}
COUNTED = ("copies", "connections", "statements")
#: What each failed check is reported as.
CHECKS = {"differ": "reads that differ from the reference",
          "plan_lookups": "plan lookups a write",
          "full_key": "full-column indexes",
          "off_caller": "reads not served on the calling thread",
          "not_entry": "memo hits that are not the entry's answer set"}
#: The thread of every view lookup and of every ``Engine.query``, and
#: every value the memo handed out, in order (``record_calls``).
SELECT_THREADS: list[int] = []
EVALUATE_THREADS: list[int] = []
MEMO_VALUES: list[tuple] = []


def phase_seconds(service) -> dict:
    """Seconds so far per write phase (``service.mutate.*``, then the
    view's own spans) and the ``rounds`` the view's fixpoints ran."""
    metrics = service.metrics_dict()
    phases = metrics["evaluator_phases"]
    spans = [f"service.mutate.{name}" for name in PHASES] \
        + [f"view.{name}" for name in VIEW_PHASES]
    return {
        **{span.rsplit(".", 1)[1]: phases.get(span, {}).get("seconds", 0.0)
           for span in spans},
        "rounds": metrics["evaluator_counters"].get("rounds", 0),
    }


def plan_lookups() -> int:
    stats = PLAN_CACHE.stats()
    return stats["hits"] + stats["misses"]


def differ(service, reference, call) -> bool:
    result, want = service.query(call), reference.query(call)
    return not (result.ok and want.ok and result.answers == want.answers)


def one_pass(service, reference, ops, kinds, counts=None):
    """Run ``ops`` on the service and the reference: seconds per read
    kind and per write, ``counts`` deltas and the timed service's
    plan-cache lookups filed the same way, and the failed checks
    (``CHECKS``) of the pass's reads."""
    service.memo.clear()
    now = time.perf_counter
    half = sum(op[0] != "read" for op in ops) // 2
    seconds = {kind: [] for kind in (*kinds, "write")}
    counted = {kind: dict.fromkeys((*COUNTED, "plan_lookups"), 0)
               for kind in seconds}
    seen: set[str] = set()
    # A pass follows a pass: its first read comes after the last write.
    written = ops[-1][0] != "read"
    failed = dict.fromkeys(("differ", "off_caller", "not_entry"), 0)
    caller = [threading.get_ident()]
    # Who serves a read, on the calling thread: (selects, evaluations).
    serves = (caller, []) if "first" in kinds else ([], caller)
    for op, call in zip(ops, calls(ops)):
        before = dict(counts or (), plan_lookups=plan_lookups())
        misses = service.memo.stats()["misses"]
        marks = len(SELECT_THREADS), len(EVALUATE_THREADS), len(MEMO_VALUES)
        start = now()
        if op[0] == "read":
            result = service.query(call)
            took = now() - start
            failed["off_caller"] += serves != (SELECT_THREADS[marks[0]:],
                                               EVALUATE_THREADS[marks[1]:])
            if "first" in kinds:
                kind = "repeat" if call in seen else "first"
            elif written:
                kind = "after_write"
            else:
                kind = ("miss" if service.memo.stats()["misses"] > misses
                        else "hit")
            if kind == "hit":
                handed = [value for value, _ in MEMO_VALUES[marks[2]:]]
                failed["not_entry"] += not (
                    len(handed) == 1 and handed[0] is result.answers)
            seen.add(call)
            written = False
            after = dict(counts or (), plan_lookups=plan_lookups())
            want = reference.query(call)
            failed["differ"] += not (result.ok and getattr(want, "ok", True)
                                     and result.answers == want.answers)
        else:
            service.mutate(call)
            took = now() - start
            kind, written = "write", True
            after = dict(counts or (), plan_lookups=plan_lookups())
            reference.mutate(call)
        seconds[kind].append(took)
        for name, value in before.items():
            counted[kind][name] += after[name] - value
        if kind == "write" and len(seconds["write"]) == half:
            failed["differ"] += sum(differ(service, reference, extra)
                                    for extra in EXTRA_READS)
            written = False  # the extras captured this write's snapshot
    return seconds, counted, failed


def record_calls() -> None:
    """Note, from here on, the thread of every ``MaintainedView.select``
    and every ``Engine.query``, and what every ``get_or_run`` returns."""
    select, evaluate = MaintainedView.select, Engine.query
    get_or_run = FullSelectionMemo.get_or_run

    def selected(self, *args, **kwargs):
        SELECT_THREADS.append(threading.get_ident())
        return select(self, *args, **kwargs)

    def evaluated(self, *args, **kwargs):
        EVALUATE_THREADS.append(threading.get_ident())
        return evaluate(self, *args, **kwargs)

    def looked_up(self, *args, **kwargs):
        value = get_or_run(self, *args, **kwargs)
        MEMO_VALUES.append(value)
        return value

    MaintainedView.select = selected
    Engine.query = evaluated
    FullSelectionMemo.get_or_run = looked_up


def trace_storage(counts: dict) -> None:
    """Count, from here on, every ``SQLiteRelation.copy``, every
    connection a relation opens and every statement run on one."""
    copy, connect = SQLiteRelation.copy, SQLiteRelation._connect_rw

    def bump(name):
        counts[name] += 1

    def counted_copy(self):
        bump("copies")
        return copy(self)

    def counted_connect(self):
        bump("connections")
        conn = connect(self)
        conn.set_trace_callback(lambda _statement: bump("statements"))
        return conn

    SQLiteRelation.copy = counted_copy
    SQLiteRelation._connect_rw = counted_connect


def p50_us(values: list) -> float:
    return statistics.median(values) * 1e6 if values else float("nan")


def index_signatures(rel) -> list:
    """The indexes ``rel`` holds: positions, or ``(positions, cols)`` of
    a projected one."""
    return sorted(rel._indexes) + sorted(rel._projected)


def full_key_indexes(view) -> list:
    """``(predicate, positions)`` of every index keyed on all the columns
    of a derived relation of ``view``: what a probe with every column
    bound would build and every write patch, where the row set answers
    ``in``."""
    found = []
    for pred in sorted(view.idb):
        rel = view.db.relation(pred)
        keys = [*rel._indexes, *(positions for positions, _ in rel._projected)]
        found += [(pred, positions) for positions in keys
                  if len(positions) == rel.arity]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(KINDS),
                        default="serve-mixed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's --quick sizes, two passes")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.quick)
    kinds = KINDS[args.workload]
    ops = _deal(workload.clients)
    reads = sum(op[0] == "read" for op in ops)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops a pass "
          f"({reads} reads, {len(ops) - reads} writes, "
          f"{len(workload.clients)} clients dealt round-robin)")
    service = open_target(workload)
    own_config = workload.service
    # serve-read's own service is a plain one: its reference is an Engine.
    workload.service = (None if args.workload == "serve-read"
                        else {"workers": own_config["workers"]})
    reference = open_target(workload)
    opened = [service, reference]
    failed = dict.fromkeys(CHECKS, 0)

    def tally(checks: dict) -> None:
        for name, n in checks.items():
            failed[name] += n

    record_calls()
    try:
        one_pass(service, reference, ops, kinds)  # warm-up
        per_write = (*PHASES, *VIEW_PHASES)
        print("pass  reads_ms read_us/read writes_ms  "
              + " ".join(f"{kind}_p50_us" for kind in kinds)
              + ("  ratio  " + "  ".join(f"{name}_ms/write"
                                         for name in per_write)
                 + "  plan_lookups/write  rounds/write"
                 if "first" in kinds else "  memo_hits  misses  coalesced"))
        lookups, full_key = 0.0, set()
        for k in range(2 if args.quick else args.passes):
            before = phase_seconds(service)
            seconds, counted, checks = one_pass(service, reference, ops,
                                                kinds)
            after = phase_seconds(service)
            tally(checks)
            read_s = sum(map(sum, map(seconds.get, kinds)))
            line = (f"{k + 1:4d}  {read_s * 1e3:8.2f} "
                    f"{read_s * 1e6 / max(reads, 1):12.1f} "
                    f"{sum(seconds['write']) * 1e3:9.2f}  "
                    + " ".join(f"{p50_us(seconds[kind]):{len(kind) + 7}.1f}"
                               for kind in kinds))
            if "first" in kinds:
                n = max(len(seconds["write"]), 1)
                ratio = p50_us(seconds["first"]) / p50_us(seconds["repeat"])
                lookups = max(lookups, counted["write"]["plan_lookups"] / n)
                spent = {name: (after[name] - before[name]) * 1e3 / n
                         for name in per_write}
                line += f"  {ratio:5.2f}  " + "  ".join(
                    f"{spent[name]:{len(name) + 9}.4f}" for name in per_write)
                line += (f"  {counted['write']['plan_lookups'] / n:18.1f}"
                         f"  {(after['rounds'] - before['rounds']) / n:12.1f}")
                full_key.update(full_key_indexes(service._view))
            else:  # the pass began with a cleared memo
                line += "  {hits:9d}  {misses:6d}  {coalesced:9d}".format(
                    **service.memo.stats())
            print(line)
        if "first" in kinds:
            print("buys indexes: %s" % "  ".join(map(str, index_signatures(
                service._view.db.relation("buys")))))
        if lookups > MAX_PLAN_LOOKUPS_PER_WRITE:
            print(f"FAILED: {lookups:.1f} plan lookups a write, over "
                  f"{MAX_PLAN_LOOKUPS_PER_WRITE}: some write planned its "
                  f"joins anew", file=sys.stderr)
            failed["plan_lookups"] += 1
        if full_key:
            print(f"FAILED: a pass ended with an index over all the columns "
                  f"of a derived relation, {sorted(full_key)}: some probe "
                  f"with every column bound went through an index",
                  file=sys.stderr)
            failed["full_key"] += len(full_key)
        if args.workload == "serve-sqlite":
            counts = dict.fromkeys(COUNTED, 0)
            trace_storage(counts)
            workload.service = own_config
            traced = open_target(workload)
            opened.append(traced)
            one_pass(traced, reference, ops, kinds)  # warm-up
            seconds, counted, checks = one_pass(traced, reference, ops,
                                                kinds, counts)
            tally(checks)
            for kind in ("write", *kinds):
                n = max(len(seconds[kind]), 1)
                print(f"per {kind:<12} ({len(seconds[kind]):3d} a pass)  "
                      + "  ".join(f"{name} {counted[kind][name] / n:8.2f}"
                                  for name in COUNTED))
        metrics = service.metrics_dict()
        print("snapshots_created {snapshots_created}  view_probes "
              "{view_probes}  view_repairs {view_repairs}  view_rebuilds "
              "{view_rebuilds}  memo {memo}".format(**metrics))
    finally:
        for target in opened:
            close_target(target)
    if any(failed.values()):
        print("FAILED: " + ", ".join(f"{n} {CHECKS[name]}"
                                     for name, n in failed.items() if n),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
