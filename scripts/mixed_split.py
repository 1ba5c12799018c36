#!/usr/bin/env python
"""Where a pass of a ledger service workload spends its time, through
the public API.

Builds the ledger's own ``serve-mixed``, ``serve-sqlite`` or
``serve-read`` stream (``ledger/workloads.py``, same seed -> same
bytes; services opened and ops turned into calls by
``ledger/harness.py``, as the benchmark does; several clients' streams
dealt into one, round-robin, as ``ledger/layers.py`` does), drives it
through the workload's own ``QueryService``, timed, and checks every
read against the ledger's independent reference, which shares no code
with ``repro`` (``ledger/reference.py``: ``harness.expected_answers``
for the stream's reads, a ``Reference`` on the facts of the moment for
the extra ones).  Per pass it prints the milliseconds spent in reads and
in writes, then

``serve-mixed`` (the default; incremental view, memory)
  the read p50 of a seed seen earlier in the pass against the p50 of a
  first-seen seed (every pass starts from a cleared memo, as the
  ledger's passes do) and their ratio, and the plan-cache lookups a
  write makes; after the passes, from one more *untimed* pass on a
  second service opened with ``trace_sample=1.0`` (the timed one, like
  the ledger's, records nothing), what a write costs per phase -- the
  ``service.mutate.capture`` / ``.apply`` spans of
  ``metrics_dict()["evaluator_phases"]`` and the view's own
  ``view.overestimate`` / ``.rederive`` / ``.restart`` under
  ``.apply`` -- and the fixpoint rounds it runs; then the indexes the
  view's ``buys`` holds;

``serve-sqlite`` (temporary-mode SQLite, no view)
  the read p50 of the first read after a write (it captures the new
  snapshot) beside the other memo misses, the resumes and the hits;
  the pass's misses split into first-seen seeds and seeds an earlier
  read answered (their entry was set aside by a write and could not be
  resumed: a row it read was deleted); and per capture the memo
  entries ``FullSelectionMemo.carry`` kept, those it set aside, those
  a later lookup brought back (``revived``) or went on from
  (``resumed``) and the carry's microseconds, and the loops
  ``PlanCache.loop_for`` bound anew (``binds``) or re-pointed at the
  pass's snapshots (``repoints``: a kept loop whose probes read a
  relation object the snapshot replaced); then, from one
  more *untimed* pass on a second service whose connections are opened
  under ``sqlite3.Connection.set_trace_callback``, the relation copies,
  connections and SQL statements per write and per read of each kind
  (and over all reads), the keyed SELECTs a read ran on a frozen
  (snapshot) relation split by whether its relation was written since
  the last snapshot (``selects_written``) or handed on unchanged
  (``selects_kept``), ``binds`` and ``repoints``, and the keyed
  SELECTs a frozen relation ran for a ``(relation object, probe, key)``
  it had run before, or that the snapshot it adopted its buckets from
  had run and no write since touched (``repeats``);

``serve-read`` (read-only, memo larger than the seed set)
  first, on a service of its own warmed by one pass, what a memo hit
  costs in each layer it passes through -- ``QueryService.query``,
  ``QueryService._snapshot`` (the held snapshot found current by one
  int comparison), ``Engine.query``, ``evaluate_form`` and
  ``get_or_run``, each the best of 5 ``timeit`` runs of ``LAYER_CALLS``
  calls; then per pass
  the read p50 of a first-seen seed (a memo miss) beside that of a memo
  hit, the memo's hits / misses, the entries a miss
  absorbed (``memo.stats()["absorbed"]`` per miss: runs of seeds its
  down loop reached, taken whole), ``tuples_produced`` /
  ``iterations`` summed over the branch stats of the memo's entries,
  and how often the pass took the service's snapshot lock (counted by
  a wrapping lock put in after the warm-up pass).

``chain-deep`` (an ``Engine``, reads only)
  per pass the untraced microseconds a round of Figure 2's loops takes
  -- ``execute_plan``'s wall time over the ``stats.iterations`` it
  booked, the median over the pass's queries -- the rounds a query
  runs and ``execute_plan``'s median milliseconds (the ledger's traced
  pass runs the traced text, so its ``evaluator.us_per_iteration``
  does not show the untraced round);
  after the pass each of its queries runs again, untimed, under
  ``_reference_loops()``, and its books (iterations, examined,
  produced, relation sizes) must equal the untraced run's.

For both memo workloads the memo's per-pass counters follow the p50s.
These are the numbers ROADMAP aim 1 ("where the mixed workload
stands"), the ROADMAP storage item and ``docs/performance.md`` quote.
Half-way through a pass's writes the service also answers, untimed,
one all-free and one repeated-variable query (the stream itself holds
full selections only).  Exit status 1 when any read differs from the
reference, when a ``serve-mixed`` write makes more than
``MAX_PLAN_LOOKUPS_PER_WRITE`` plan lookups, when a derived relation of
the view ends a pass holding an index over all of its columns, when a
read was not served on the calling thread by one
``MaintainedView.select`` (``serve-mixed``) or one ``Engine.query``
(the others) -- the script wraps both to note the thread that ran them,
since ``query()`` never hands off -- when a memo hit's answers are
not the very object the memo entry holds, when a frozen SQLite
relation repeated a keyed SELECT (it answers a key it has run, or its
predecessor ran and no write touched since, from its bucket), when a
``serve-sqlite`` pass's captures kept no memo entry, when a
``serve-read`` pass's misses absorbed no entry or took the snapshot
lock (no write moves the state, so every read finds the held snapshot
current without it), or when a memo
hit ran ``classify_selection`` or ``compile_plan`` (a query form is prepared
on the first request of its shape, never on a hit; the script wraps
both in ``repro.core.compiler``, where forms are prepared), or when a
``serve-sqlite`` pass resumed no memo entry, or when a timed
``serve-sqlite`` pass bound a loop anew (its 16 database states repeat
every pass, so the warm-up pass has met every loop's sizes), or when a
``chain-deep`` query's untraced books differ from the reference loop's.

Usage: python scripts/mixed_split.py [--workload NAME] [--seed N]
                                     [--passes N] [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import re
import statistics
import sys
import threading
import time
import timeit
import weakref
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "ledger"), str(REPO / "src")]

import workloads  # noqa: E402  (ledger/)
from harness import (  # noqa: E402
    calls, close_target, expected_answers, open_target)
from layers import _deal  # noqa: E402
from reference import Reference  # noqa: E402

import repro.core.api as api  # noqa: E402
import repro.core.compiler as compiler  # noqa: E402
from repro.core.api import evaluate_form  # noqa: E402
from repro.core.evaluator import _reference_loops, execute_plan  # noqa: E402
from repro.datalog.parser import parse_query_memo  # noqa: E402
from repro.datalog.plan_cache import PLAN_CACHE, PlanCache  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.maintenance import MaintainedView  # noqa: E402
from repro.service import FullSelectionMemo  # noqa: E402
from repro.stats import EvaluationStats  # noqa: E402
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
#: Calls per ``timeit`` run of a warmed memo hit's layers (serve-read).
LAYER_CALLS = 20_000
#: Reads no ledger stream holds, checked once a pass (untimed): each
#: text and the rows of the all-free answer it keeps.
EXTRA_READS = {"buys(X, Y)?": lambda row: True,
               "buys(X, X)?": lambda row: row[0] == row[1]}
#: What a read is filed under, per workload, in print order.
KINDS = {"serve-mixed": ("repeat", "first"),
         "serve-sqlite": ("after_write", "miss", "resume", "hit"),
         "serve-read": ("miss", "hit")}
COUNTED = ("copies", "connections", "statements", "selects_written",
           "selects_kept", "binds", "repoints", "repeats")
#: What each failed check is reported as.
CHECKS = {"differ": "reads that differ from the reference",
          "plan_lookups": "plan lookups a write",
          "full_key": "full-column indexes",
          "off_caller": "reads not served on the calling thread",
          "not_entry": "memo hits that are not the entry's answer set",
          "prepared": "memo hits that classified or compiled",
          "repeats": "keyed SELECTs a frozen relation or its predecessor "
                     "ran again",
          "kept": "passes whose captures kept no memo entry",
          "resumed": "passes that resumed no memo entry",
          "absorbed": "passes whose misses absorbed no memo entry",
          "locked": "timed read-only passes that took the snapshot lock",
          "binds": "loops bound anew in timed passes"}
#: The thread of every view lookup and of every ``Engine.query``, every
#: value the memo handed out and every query-form preparation step
#: (``classify_selection`` / ``compile_plan``), in order (``record_calls``).
SELECT_THREADS: list[int] = []
EVALUATE_THREADS: list[int] = []
MEMO_VALUES: list[tuple] = []
PREPARED: list[str] = []
#: Per ``FullSelectionMemo.carry``: the memo, entries kept, entries set
#: aside and seconds taken.  Per pass, the misses on seeds first seen in
#: it and on seeds an earlier read of it answered (``one_pass``).
CARRIES: list[tuple] = []
MISSES: dict[str, int] = {}


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


def layer_costs(workload, ops) -> dict:
    """Microseconds a warmed memo hit of the stream's first read spends
    in each layer: the whole request, the snapshot it finds current,
    the evaluation inside it, the form bound to its constants inside
    that, and the memo lookup."""
    service = open_target(workload)
    try:
        for call in calls(ops):
            service.query(call)
        text = calls(ops)[0]
        atom = parse_query_memo(text)
        snap = service._snapshot()
        engine, memo = snap.engine, snap.memo
        form = compiler.query_form(engine.report(atom.predicate).analysis,
                                   atom)
        db = engine._database_for(atom.predicate)
        key = form.key + (form.seed(atom), engine.order)
        layers = {
            "QueryService.query": lambda: service.query(text),
            "QueryService._snapshot": service._snapshot,
            "Engine.query": lambda: engine.query(atom, memo=memo),
            "evaluate_form": lambda: evaluate_form(
                form, atom, db, EvaluationStats(), order=engine.order,
                memo=memo),
            "get_or_run": lambda: memo.get_or_run(key, None),
        }
        return {name: min(timeit.repeat(layer, number=LAYER_CALLS,
                                        repeat=5)) / LAYER_CALLS * 1e6
                for name, layer in layers.items()}
    finally:
        close_target(service)


def plan_lookups() -> int:
    stats = PLAN_CACHE.stats()
    return stats["hits"] + stats["misses"]


def differ(result, want) -> bool:
    return not (result.ok and result.answers == want)


def expected(workload, ops) -> tuple[list, dict]:
    """The reference answers of ``ops``: per op (``None`` for a write),
    and per extra read at the pass's half-way write."""
    facts = {pred: set(rows) for pred, rows in workload.facts.items()}
    half = sum(op[0] != "read" for op in ops) // 2
    for op in [op for op in ops if op[0] != "read"][:half]:
        (facts[op[1]].add if op[0] == "add" else facts[op[1]].discard)(
            op[2])
    free = Reference(workload.recursion, facts).answers(
        (None,) * workload.recursion.arity)
    extras = {text: frozenset(filter(keep, free))
              for text, keep in EXTRA_READS.items()}
    return expected_answers(dataclasses.replace(
        workload, clients=[ops]))[0], extras


def one_pass(service, ops, wants, kinds, counts=None):
    """Run ``ops`` on the service, checking its reads against ``wants``
    (:func:`expected`): seconds per read kind and per write, ``counts``
    deltas and the service's plan-cache lookups filed the same way, and
    the failed checks (``CHECKS``) of the pass's reads."""
    service.memo.clear()
    MISSES.update(first=0, aside=0)
    now = time.perf_counter
    half = sum(op[0] != "read" for op in ops) // 2
    seconds = {kind: [] for kind in (*kinds, "write")}
    counted = {kind: dict.fromkeys((*COUNTED, "plan_lookups"), 0)
               for kind in seconds}
    seen: set[str] = set()
    # A pass follows a pass: its first read comes after the last write.
    written = ops[-1][0] != "read"
    failed = dict.fromkeys(("differ", "off_caller", "not_entry", "prepared"),
                           0)
    caller = [threading.get_ident()]
    # Who serves a read, on the calling thread: (selects, evaluations).
    serves = (caller, []) if "first" in kinds else ([], caller)
    answers, extras = wants
    for op, call, want in zip(ops, calls(ops), answers):
        before = dict(counts or (), plan_lookups=plan_lookups())
        memo = service.memo.stats()
        misses, resumed = memo["misses"], memo.get("resumed", 0)
        marks = (len(SELECT_THREADS), len(EVALUATE_THREADS),
                 len(MEMO_VALUES), len(PREPARED))
        start = now()
        if op[0] == "read":
            result = service.query(call)
            took = now() - start
            prepared = len(PREPARED) > marks[3]
            failed["off_caller"] += serves != (SELECT_THREADS[marks[0]:],
                                               EVALUATE_THREADS[marks[1]:])
            memo = service.memo.stats()
            missed = memo["misses"] > misses
            if missed:
                MISSES["aside" if call in seen else "first"] += 1
            if "first" in kinds:
                kind = "repeat" if call in seen else "first"
            elif written:
                kind = "after_write"
            else:
                kind = ("miss" if missed else "resume"
                        if memo.get("resumed", 0) > resumed else "hit")
            if kind == "hit":
                handed = [value[0] for value in MEMO_VALUES[marks[2]:]]
                failed["not_entry"] += not (
                    len(handed) == 1 and handed[0] is result.answers)
                failed["prepared"] += prepared
            seen.add(call)
            written = False
            after = dict(counts or (), plan_lookups=plan_lookups())
            failed["differ"] += differ(result, want)
        else:
            service.mutate(call)
            took = now() - start
            kind, written = "write", True
            after = dict(counts or (), plan_lookups=plan_lookups())
        seconds[kind].append(took)
        for name, value in before.items():
            counted[kind][name] += after[name] - value
        if kind == "write" and len(seconds["write"]) == half:
            failed["differ"] += sum(differ(service.query(text), extra)
                                    for text, extra in extras.items())
            written = False  # the extras captured this write's snapshot
    return seconds, counted, failed


def record_calls() -> None:
    """Note, from here on, the thread of every ``MaintainedView.select``
    and every ``Engine.query``, what every ``get_or_run`` returns, and
    every ``classify_selection`` / ``compile_plan`` a query form runs."""
    select, evaluate = MaintainedView.select, Engine.query
    get_or_run, carry = FullSelectionMemo.get_or_run, FullSelectionMemo.carry

    def noted(name):
        fn = getattr(compiler, name)

        def call(*args, **kwargs):
            PREPARED.append(name)
            return fn(*args, **kwargs)
        setattr(compiler, name, call)

    noted("classify_selection")
    noted("compile_plan")

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

    def carried(self, old, new, written, log=None):
        held = self._held
        start = time.perf_counter()
        carry(self, old, new, written, log)
        took = time.perf_counter() - start
        CARRIES.append((self, len(self._entries), self._held - held, took))

    MaintainedView.select = selected
    Engine.query = evaluated
    FullSelectionMemo.get_or_run = looked_up
    FullSelectionMemo.carry = carried


def expanded(sql: str, key) -> str:
    """``sql`` with ``key`` bound into its ``?`` as the trace callback
    prints it (facts are ints and strings)."""
    values = iter(key)

    def literal(_) -> str:
        value = next(values)
        return ("'%s'" % value.replace("'", "''") if isinstance(value, str)
                else str(value))
    return re.sub(r"\?", literal, sql)


def trace_storage(counts: dict) -> None:
    """Count, from here on, every ``SQLiteRelation.copy``, every
    connection a relation opens, every statement run on one -- a keyed
    SELECT on a frozen relation as ``selects_written`` when its relation
    was written since the last snapshot (the snapshot copied it), else
    as ``selects_kept``; and as ``repeats`` every keyed SELECT a frozen
    relation runs for a text it ran before, or that the snapshot it
    adopted its buckets from ran and no write since touched: the same
    text with the same key expanded into it is the same ``(relation,
    probe, key)``."""
    copy, connect = SQLiteRelation.copy, SQLiteRelation._connect_rw
    snapshot = SQLiteRelation.snapshot
    #: frozen relation -> the texts it (or what it adopted from) ran
    ran_by = weakref.WeakKeyDictionary()
    #: frozen relation -> whether its last snapshot copied it
    written = weakref.WeakKeyDictionary()

    def bump(name):
        counts[name] += 1

    def counted_copy(self):
        bump("copies")
        return copy(self)

    def counted_connect(self):
        bump("connections")
        conn = connect(self)
        # Only a bucket outlives its relation, and only a frozen
        # relation has buckets.
        rel, ran = weakref.ref(self), ran_by.setdefault(self, set())

        def traced(statement):
            bump("statements")
            frozen = rel()
            if statement.startswith("SELECT") and " WHERE " in statement \
                    and getattr(frozen, "_readonly", True):
                if frozen is not None:
                    bump("selects_written" if written.get(frozen, True)
                         else "selects_kept")
                if statement in ran:
                    bump("repeats")
                ran.add(statement)
        conn.set_trace_callback(traced)
        return conn

    def counted_snapshot(self, previous=None, moved=None):
        snap = snapshot(self, previous, moved)
        written[snap] = snap is not previous
        if snap is not previous and previous is not None and snap._buckets:
            # Adopted: what previous ran, but for the keys written since.
            touched = {expanded(previous._probes[positions, cols],
                                [row[p] for p in positions])
                       for positions, cols in list(previous._buckets)
                       for row in moved or ()}
            ran_by[snap].update(ran_by.get(previous, set()) - touched)
        return snap

    SQLiteRelation.copy = counted_copy
    SQLiteRelation._connect_rw = counted_connect
    SQLiteRelation.snapshot = counted_snapshot


def count_loops(counts: dict) -> None:
    """Count, from here on, every loop ``PlanCache.loop_for`` binds
    anew (``binds``) and every kept one it re-points (``repoints``)."""
    for name, method in (("binds", PlanCache._bind),
                         ("repoints", PlanCache._repoint)):
        def counted(self, *args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)
        setattr(PlanCache, method.__name__, counted)


class CountingLock:
    """A lock that counts how often it is taken (``with`` only, as the
    service takes its snapshot lock)."""

    def __init__(self, lock) -> None:
        self.lock, self.taken = lock, 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


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


def books(stats: EvaluationStats) -> tuple:
    return (stats.iterations, stats.tuples_examined, stats.tuples_produced,
            stats.relation_sizes)


def round_split(workload, passes: int) -> int:
    """``chain-deep``: per pass, the untraced microseconds a round takes
    and the rounds a query runs; then each query of the pass again,
    untimed, under ``_reference_loops()``.  Exit status 1 when an answer
    differs from the reference or a query's books from the reference
    loop's."""
    ops = workload.clients[0]
    wants = expected_answers(workload)[0]
    engine = open_target(workload)
    runs: list[tuple] = []  # per execute_plan call: seconds, books, args
    failed = {"differ": 0, "books": 0}

    def timed(plan, db, seeds, stats=None, **kwargs):
        mine = EvaluationStats()
        start = time.perf_counter()
        answers = execute_plan(plan, db, seeds, stats=mine, **kwargs)
        runs.append((time.perf_counter() - start, books(mine),
                     (plan, db, seeds), kwargs))
        if stats is not None:
            stats.merge(mine)
        return answers

    api.execute_plan = timed
    print(f"chain-deep: {len(ops)} queries a pass")
    print("pass  us/round  rounds/query  execute_ms")
    try:
        for k in range(passes + 1):  # the first pass warms up
            del runs[:]
            gc.collect()
            for call, want in zip(calls(ops), wants):
                failed["differ"] += engine.query(call).answers != want
            rounds = [run[1][0] for run in runs]
            per_round = [run[0] / n for run, n in zip(runs, rounds)]
            if k:
                print(f"{k:4d}  {p50_us(per_round):8.3f}  "
                      f"{sum(rounds) / len(ops):12.1f}  "
                      f"{p50_us([run[0] for run in runs]) / 1e3:10.3f}")
            for _, booked, args, kwargs in runs:
                reference = EvaluationStats()
                with _reference_loops():
                    execute_plan(*args, stats=reference, **kwargs)
                failed["books"] += booked != books(reference)
    finally:
        api.execute_plan = execute_plan
        close_target(engine)
    if any(failed.values()):
        print(f"FAILED: {failed['differ']} reads that differ from the "
              f"reference, {failed['books']} queries whose untraced books "
              f"differ from the reference loop's", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted([*KINDS, "chain-deep"]),
                        default="serve-mixed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's --quick sizes, two passes")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.quick)
    if args.workload == "chain-deep":
        return round_split(workload, 2 if args.quick else args.passes)
    kinds = KINDS[args.workload]
    ops = _deal(workload.clients)
    reads = sum(op[0] == "read" for op in ops)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops a pass "
          f"({reads} reads, {len(ops) - reads} writes, "
          f"{len(workload.clients)} clients dealt round-robin)")
    wants = expected(workload, ops)
    service = open_target(workload)
    own_config = workload.service
    opened = [service]
    failed = dict.fromkeys(CHECKS, 0)
    counts = dict.fromkeys(COUNTED, 0) \
        if args.workload == "serve-sqlite" else None

    def tally(checks: dict) -> None:
        for name, n in checks.items():
            failed[name] += n

    def untimed_pass(config, counts=None):
        """One more pass, after a warm-up, on a second service opened
        with ``config``: its seconds and counts (``one_pass``)."""
        workload.service = config
        twin = open_target(workload)
        opened.append(twin)
        one_pass(twin, ops, wants, kinds)  # warm-up
        before = phase_seconds(twin)
        seconds, counted, checks = one_pass(twin, ops, wants, kinds, counts)
        tally(checks)
        return seconds, counted, before, phase_seconds(twin)

    if args.workload == "serve-read":
        print("a warmed memo hit, us per layer (best of 5 x %d calls):  %s"
              % (LAYER_CALLS, "  ".join(
                  f"{name} {us:.2f}"
                  for name, us in layer_costs(workload, ops).items())))
    record_calls()
    if counts is not None:
        count_loops(counts)
    try:
        one_pass(service, ops, wants, kinds)  # warm-up
        lock = service._snapshot_lock = CountingLock(service._snapshot_lock)
        print("pass  reads_ms read_us/read writes_ms  "
              + " ".join(f"{kind}_p50_us" for kind in kinds)
              + ("  ratio  plan_lookups/write" if "first" in kinds
                 else "  memo_hits  misses")
              + ("  first_seen  set_aside  kept  dropped  revived  resumed"
                 "  carry_us  (a capture)  binds  repoints"
                 if args.workload == "serve-sqlite" else "")
              + ("  absorbed/miss  produced  iterations  (over entries)"
                 "  locks" if args.workload == "serve-read" else ""))
        lookups, full_key = 0.0, set()
        for k in range(2 if args.quick else args.passes):
            carries, taken = len(CARRIES), lock.taken
            seconds, counted, checks = one_pass(service, ops, wants, kinds,
                                                counts)
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
                line += (f"  {ratio:5.2f}"
                         f"  {counted['write']['plan_lookups'] / n:18.1f}")
                full_key.update(full_key_indexes(service._view))
            else:  # the pass began with a cleared memo
                line += "  {hits:9d}  {misses:6d}".format(
                    **service.memo.stats())
            if args.workload == "serve-sqlite":
                mine = [c[1:] for c in CARRIES[carries:]
                        if c[0] is service.memo]
                kept, dropped, took = map(sum, zip(*mine)) if mine \
                    else (0, 0, 0.0)
                n = max(len(mine), 1)
                memo = service.memo.stats()
                # Entries a lookup brought back: kept, but not by carry.
                revived = memo["survived"] - kept
                line += (f"  {MISSES['first']:10d}  {MISSES['aside']:9d}"
                         f"  {kept / n:4.1f}  {dropped / n:7.1f}  "
                         f"{revived / n:7.1f}  {memo['resumed'] / n:7.1f}  "
                         f"{took * 1e6 / n:8.1f}")
                binds, repoints = (sum(c[name] for c in counted.values())
                                   for name in ("binds", "repoints"))
                line += f"  {'':11s}  {binds:5d}  {repoints:8d}"
                failed["binds"] += binds
                failed["kept"] += kept + revived == 0
                failed["resumed"] += memo["resumed"] == 0
            if args.workload == "serve-read":
                memo = service.memo.stats()
                branches = [value[1] for value in
                            list(service.memo._entries.values())]
                locks = lock.taken - taken
                line += "  {:13.2f}  {:8d}  {:10d}{:23d}".format(
                    memo["absorbed"] / max(memo["misses"], 1),
                    sum(b.tuples_produced for b in branches),
                    sum(b.iterations for b in branches), locks)
                failed["absorbed"] += memo["absorbed"] == 0
                failed["locked"] += locks > 0
            print(line)
        if "first" in kinds:
            seconds, _, before, after = untimed_pass(
                dict(own_config, trace_sample=1.0))
            n = max(len(seconds["write"]), 1)
            spent = {name: (after[name] - before[name]) * 1e3 / n
                     for name in (*PHASES, *VIEW_PHASES)}
            print("untimed pass at trace_sample=1.0, per write:  "
                  + "  ".join(f"{name}_ms {ms:.4f}"
                              for name, ms in spent.items())
                  + f"  rounds {(after['rounds'] - before['rounds']) / n:.1f}")
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
            trace_storage(counts)
            seconds, counted, _, _ = untimed_pass(own_config, counts)
            counted["read"] = {name: sum(counted[kind][name] for kind in kinds)
                               for name in COUNTED}
            seconds["read"] = sum(map(seconds.get, kinds), [])
            for kind in ("write", *kinds, "read"):
                n = max(len(seconds[kind]), 1)
                print(f"per {kind:<12} ({len(seconds[kind]):3d} a pass)  "
                      + "  ".join(f"{name} {counted[kind][name] / n:.2f}"
                                  for name in COUNTED))
            failed["repeats"] += counts["repeats"]
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
