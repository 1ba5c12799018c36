"""The traced run: per-layer times and counts, measured from outside.

Spans are recorded here, around the calls into each layer of ``repro``
(spans inside the program are a later change); one trace id per
operation, parent links, kept in memory and written to
``out/trace-<workload>.json`` at the end.  A layer's self time is its
span minus the spans of its children.  Counts come from the program's
public counters, read before and after.  The end-to-end numbers never
come from this run.

The run has five parts, all single-client:

``staged``   the micro-second layers called directly on the distinct
             queries of the stream (parse, classify, compile), and the
             once-per-program ones (``parse_program``, ``analyze_recursion``);
``counted``  the reads on a fresh ``Engine`` after ``PLAN_CACHE.clear()``
             under a public ``Tracer`` and ``EvaluationStats``: index
             builds, join-plan compiles, iterations, tuples;
``spans``    the reads on a warm ``Engine`` with a pass-through object as
             ``memo=`` that times every full selection (one
             ``execute_plan`` each), plus an untraced and a
             ``Tracer()``-traced pass for the two overhead ratios;
``service``  (serve workloads) the whole stream through ``QueryService``
             with the memo and service counters read around it, and a
             memo-less service beside a direct ``Engine`` for
             ``service.overhead_ms``;
``micro``    storage operations timed on the largest EDB relation.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager

from repro import (Database, Engine, EvaluationStats, Relation,
                   analyze_recursion, parse_program, parse_query)
from repro.core import classify_selection, compile_selection
from repro.datalog.plan_cache import PLAN_CACHE
from repro.maintenance import MaintainedView
from repro.observability import Tracer
from repro.service import QueryService, ServiceConfig
from repro.storage import ensure_backend, resolve_backend

from calibrate import calibration_ms, corrected
from harness import (calls, close_target, expected_answers, failures,
                     open_target, run_clients)

__all__ = ["PER_LAYER", "traced_run"]

#: (name, unit, better) of every per-layer metric, in print order.  A
#: metric whose layer a workload does not use reads 0 there.
PER_LAYER = (
    ("parser.parse_program_ms", "ms", "lower"),
    ("parser.parse_query_us", "us", "lower"),
    ("detection.analyze_ms", "ms", "lower"),
    ("selections.classify_us", "us", "lower"),
    ("compiler.compile_selection_us", "us", "lower"),
    ("rewrite.full_selections_per_query", "count", "lower"),
    ("plan_cache.compiles", "count", "lower"),
    ("plan_cache.hits", "count", "higher"),
    ("plan_cache.misses", "count", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("plan_cache.kernel_ns_per_binding", "ns", "lower"),
    ("evaluator.execute_plan_ms", "ms", "lower"),
    ("evaluator.us_per_iteration", "us", "lower"),
    ("evaluator.ns_per_tuple_produced", "ns", "lower"),
    ("evaluator.iterations", "count", "lower"),
    ("evaluator.tuples_produced", "count", "lower"),
    ("evaluator.tuples_examined", "count", "lower"),
    ("evaluator.max_relation_size", "count", "lower"),
    ("evaluator.useful_ratio", "ratio", "higher"),
    ("api.glue_ms", "ms", "lower"),
    ("database.index_builds", "count", "lower"),
    ("database.index_tuples", "count", "lower"),
    ("database.atom_lookups", "count", "lower"),
    ("database.full_scans", "count", "lower"),
    ("database.lookup_ns", "ns", "lower"),
    ("database.add_all_ns_per_tuple", "ns", "lower"),
    ("database.index_build_ms", "ms", "lower"),
    ("database.snapshot_ms", "ms", "lower"),
    ("database.fingerprint_us", "us", "lower"),
    ("maintenance.build_ms", "ms", "lower"),
    ("maintenance.apply_p50_ms", "ms", "lower"),
    ("maintenance.idb_changes_per_write", "count", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.write_p50_ms", "ms", "lower"),
    ("service.snapshots_created", "count", "lower"),
    ("service.snapshots_repaired", "count", "higher"),
    ("service.view_repairs", "count", "higher"),
    ("service.view_rebuilds", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.coalesced", "count", "higher"),
    ("memo.evictions", "count", "lower"),
    ("memo.survived", "count", "higher"),
    ("memo.repaired", "count", "higher"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("sqlite.lookup_us", "us", "lower"),
    ("sqlite.add_all_ns_per_tuple", "ns", "lower"),
    ("sqlite.snapshot_ms", "ms", "lower"),
    ("tracer.overhead_x", "ratio", "lower"),
    ("ledger.trace_overhead_x", "ratio", "lower"),
)

MIN_TRACED_OPS = 100
#: The engine passes replay at most this many of the stream's reads.
ENGINE_SAMPLE = 240
OVERHEAD_OPS = 24
REPEATS = 5


class Window:
    """One calibrated stretch of the run; ``fix`` is valid after it."""

    cal = 0.0

    def fix(self, duration: float) -> float:
        return corrected(duration, self.cal)


class Spans:
    """An in-memory span log: name, start, end, parent, trace id."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._stack: list[int] = []
        self._trace = ""

    @contextmanager
    def span(self, name: str, trace: str = ""):
        if trace:
            self._trace = trace
        row = {"id": len(self.rows), "trace_id": self._trace,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               "cal": 0.0}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def calibrated(self):
        """Run the calibration kernel before and after the block; spans
        recorded inside, and times passed to the window's ``fix``, are
        read at reference speed (calibrate.py)."""
        window = Window()
        first = len(self.rows)
        before = calibration_ms()
        try:
            yield window
        finally:
            window.cal = (before + calibration_ms()) / 2
            for row in self.rows[first:]:
                row["cal"] = window.cal

    @staticmethod
    def seconds(row: dict) -> float:
        """A span's duration at reference speed."""
        return corrected(row["end"] - row["start"], row["cal"])

    def dump(self, path, **header) -> None:
        origin = self.rows[0]["start"] if self.rows else 0.0
        spans = [
            {"id": r["id"], "trace_id": r["trace_id"], "parent": r["parent"],
             "name": r["name"],
             "start_us": round((r["start"] - origin) * 1e6, 1),
             "end_us": round((r["end"] - origin) * 1e6, 1),
             "calibration_ms": round(r["cal"], 3)}
            for r in self.rows
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(header, spans=spans)))


class Probe:
    """A pass-through stand-in for the full-selection memo.

    ``Engine.query(memo=...)`` calls ``get_or_run(key, compute)`` once
    per full selection of the Lemma 2.1 union; ``compute`` is exactly one
    ``execute_plan`` under a fresh ``EvaluationStats``.  Nothing is cached.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        #: (span, branch ``EvaluationStats``) per full selection.
        self.runs: list[tuple[dict, EvaluationStats]] = []

    def get_or_run(self, key, compute):
        with self.spans.span("evaluator.execute_plan") as row:
            value = compute()
        self.runs.append((row, value[1]))
        return value


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _per_call(fn, calls: int) -> float:
    """Seconds per call over one batch of ``calls`` (median of batches)."""
    def batch():
        for _ in range(calls):
            fn()
    return _median_time(batch) / calls


_END = object()


def _deal(streams: list[list]) -> list:
    """Several clients' streams as one, round-robin."""
    return [x for group in itertools.zip_longest(*streams, fillvalue=_END)
            for x in group if x is not _END]


def _reads(workload) -> list[tuple]:
    return [op for op in _deal(workload.clients) if op[0] == "read"]


def _staged(workload, program, spans: Spans, m: dict) -> None:
    predicate = workload.recursion.predicate
    analysis = analyze_recursion(program, predicate).analysis
    texts = sorted({op[1] for op in _reads(workload)})
    rows: dict[str, list] = {"parser.parse_query": [],
                             "selections.classify": [],
                             "compiler.compile_selection": []}
    with spans.calibrated() as window:
        program_s = _median_time(lambda: parse_program(workload.rules))
        analyze_s = _median_time(
            lambda: analyze_recursion(program, predicate))
        for i, text in enumerate(texts):
            with spans.span("staged", trace=f"staged-{i}"):
                with spans.span("parser.parse_query") as row:
                    atom = parse_query(text)
                rows[row["name"]].append(row)
                with spans.span("selections.classify") as row:
                    selection = classify_selection(analysis, atom)
                rows[row["name"]].append(row)
                if selection.is_full:
                    with spans.span("compiler.compile_selection") as row:
                        compile_selection(selection)
                    rows[row["name"]].append(row)
    m["parser.parse_program_ms"] = window.fix(program_s) * 1e3
    m["detection.analyze_ms"] = window.fix(analyze_s) * 1e3
    for name, spanned in rows.items():
        m[name + "_us"] = statistics.median(
            map(spans.seconds, spanned)) * 1e6 if spanned else 0.0


def _counted(workload, program, reads, wants,
             m: dict) -> tuple[list[int], int]:
    """Counts of one cold pass under a ``Tracer``; returns the join
    bindings each read produced and the number of wrong answers."""
    engine = Engine(program, Database.from_facts(workload.facts))
    PLAN_CACHE.clear()
    before = PLAN_CACHE.stats()
    wanted = ("index_builds", "index_tuples", "atom_lookups", "full_scans")
    totals = dict.fromkeys(wanted, 0)
    stats, bindings = [], []
    wrong = 0
    for op, want in zip(reads, wants):
        tracer = Tracer()
        result = engine.query(op[1], tracer=tracer)
        wrong += want is not None and result.answers != want
        stats.append(result.stats)
        bindings.append(tracer.counter_total("bindings_out"))
        for name in wanted:
            totals[name] += tracer.counter_total(name)
    _plan_cache_counts(before, m)
    n = len(reads)
    for name in wanted:
        m[f"database.{name}"] = totals[name] / n
    m["evaluator.iterations"] = sum(s.iterations for s in stats) / n
    m["evaluator.tuples_produced"] = sum(
        s.tuples_produced for s in stats) / n
    m["evaluator.tuples_examined"] = sum(
        s.tuples_examined for s in stats) / n
    m["evaluator.max_relation_size"] = max(
        s.max_relation_size for s in stats)
    return bindings, wrong


def _plan_cache_counts(before: dict, m: dict) -> None:
    after = PLAN_CACHE.stats()
    for name in ("compiles", "hits", "misses"):
        m[f"plan_cache.{name}"] = after[name] - before[name]
    lookups = m["plan_cache.hits"] + m["plan_cache.misses"]
    m["plan_cache.hit_ratio"] = m["plan_cache.hits"] / max(lookups, 1)


def _spanned(workload, program, reads, spans: Spans, bindings: list[int],
             seconds: float, m: dict) -> None:
    """Rounds of three warm passes -- untraced, under ``Tracer()``, and
    under the ledger's own spans -- each round between two calibrations."""
    engine = Engine(program, Database.from_facts(workload.facts))
    for op in reads:
        engine.query(op[1])  # warm: indexes, plans, the engine's caches

    def timed(**kwargs) -> float:
        start = time.perf_counter()
        for op in reads:
            engine.query(op[1], **kwargs)
        return time.perf_counter() - start

    probe = Probe(spans)
    ops: list[tuple[dict, int]] = []  # (engine.query span, runs so far)
    tracer_x, ledger_x = [], []
    deadline = time.perf_counter() + seconds
    enough = min(MIN_TRACED_OPS, 5 * len(reads))  # tiny --quick streams
    while len(ops) < enough or time.perf_counter() < deadline:
        with spans.calibrated():
            compare = len(ledger_x) < 2  # two rounds settle the ratios
            if compare:
                untraced = timed()
                tracer_x.append(timed(tracer=Tracer()) / untraced)
            start = time.perf_counter()
            for op in reads:
                with spans.span("op", trace=f"op-{len(ops)}"):
                    with spans.span("parser.parse_query"):
                        atom = parse_query(op[1])
                    with spans.span("engine.query") as row:
                        engine.query(atom, memo=probe)
                ops.append((row, len(probe.runs)))
            if compare:
                ledger_x.append((time.perf_counter() - start) / untraced)
    m["tracer.overhead_x"] = statistics.median(tracer_x)
    m["ledger.trace_overhead_x"] = statistics.median(ledger_x)

    # Per operation: its full selections' time and counts, then medians.
    execute, glue, per_iteration, per_tuple, per_binding = [], [], [], [], []
    kept = produced = done = 0
    for k, (row, upto) in enumerate(ops):
        runs = probe.runs[done:upto]
        done = upto
        seconds_ = sum(spans.seconds(r) for r, _ in runs)
        made = sum(b.tuples_produced for _, b in runs)
        execute.append(seconds_)
        glue.append(spans.seconds(row) - seconds_)
        per_iteration.append(
            seconds_ / max(sum(b.iterations for _, b in runs), 1))
        per_tuple.append(seconds_ / max(made, 1))
        per_binding.append(seconds_ / max(bindings[k % len(reads)], 1))
        produced += made
        kept += sum(b.relation_sizes.get("seen_1", 0)
                    + b.relation_sizes.get("seen_2", 0) for _, b in runs)
    median = statistics.median
    m["rewrite.full_selections_per_query"] = len(probe.runs) / len(ops)
    m["evaluator.execute_plan_ms"] = median(execute) * 1e3
    m["evaluator.us_per_iteration"] = median(per_iteration) * 1e6
    m["evaluator.ns_per_tuple_produced"] = median(per_tuple) * 1e9
    m["evaluator.useful_ratio"] = kept / max(produced, 1)
    m["plan_cache.kernel_ns_per_binding"] = median(per_binding) * 1e9
    m["api.glue_ms"] = median(glue) * 1e3


def _service(workload, spans: Spans, m: dict) -> tuple[int, int]:
    """The whole stream through the service, untraced and then under
    spans, counters read around it; ``(attempted, failed)``."""
    clients = [_deal(workload.clients)]
    wants = [_deal(expected_answers(workload))]
    target = open_target(workload)
    try:
        with spans.calibrated():
            target.memo.clear()
            untraced, _ = run_clients(target, clients)
            target.memo.clear()
            PLAN_CACHE.clear()
            plan_before = PLAN_CACHE.stats()
            memo_before = target.memo.stats()
            before = target.metrics_dict()
            outcomes = []
            writes = []
            start = time.perf_counter()
            for i, (op, call) in enumerate(
                    zip(clients[0], calls(clients[0]))):
                with spans.span("op", trace=f"svc-{i}"):
                    if op[0] == "read":
                        with spans.span("service.query") as row:
                            result = target.query(call)
                    else:
                        with spans.span("service.mutate") as row:
                            result = target.mutate(call)
                        writes.append(row)
                outcomes.append((row["end"] - row["start"], result))
            traced = time.perf_counter() - start
            after = target.metrics_dict()
            memo_after = target.memo.stats()
    finally:
        close_target(target)
    m["ledger.trace_overhead_x"] = traced / untraced
    for name in ("hits", "misses", "coalesced", "evictions", "survived",
                 "repaired"):
        m[f"memo.{name}"] = memo_after[name] - memo_before[name]
    looked = m["memo.hits"] + m["memo.misses"] + m["memo.coalesced"]
    m["memo.hit_ratio"] = m["memo.hits"] / max(looked, 1)
    for name in ("snapshots_created", "snapshots_repaired", "view_repairs",
                 "view_rebuilds", "retries"):
        m[f"service.{name}"] = after[name] - before[name]
    _plan_cache_counts(plan_before, m)
    reads = sum(1 for op in clients[0] if op[0] == "read")
    counters = after["evaluator_counters"]
    earlier = before["evaluator_counters"]
    for name in ("index_builds", "index_tuples", "atom_lookups",
                 "full_scans"):
        m[f"database.{name}"] = (
            counters.get(name, 0) - earlier.get(name, 0)) / reads
    if writes:
        m["service.write_p50_ms"] = statistics.median(
            map(spans.seconds, writes)) * 1e3
    return len(outcomes), failures(clients, wants, [outcomes])


def _service_overhead(workload, program, reads, spans: Spans,
                      m: dict) -> None:
    """Service latency minus a direct ``Engine.query`` on equal data,
    with a one-entry memo so that (nearly) every read evaluates."""
    config = dict(workload.service or {"workers": 1},
                  memo_size=1, incremental=False)
    engine = Engine(program, Database.from_facts(workload.facts),
                    backend=config.get("backend"))
    service = QueryService(program, Database.from_facts(workload.facts),
                           ServiceConfig(**config))
    sample = reads[:OVERHEAD_OPS]
    try:
        for op in sample[:OVERHEAD_OPS // 4]:  # warm both
            service.query(op[1])
            engine.query(op[1])
        extra = []
        with spans.calibrated() as window:
            for op in sample:
                start = time.perf_counter()
                service.query(op[1])
                middle = time.perf_counter()
                engine.query(op[1])
                extra.append((middle - start)
                             - (time.perf_counter() - middle))
    finally:
        service.close()
    m["service.overhead_ms"] = window.fix(statistics.median(extra)) * 1e3


def _maintenance(workload, program, spans: Spans, m: dict) -> None:
    """``MaintainedView`` alone: its build, and the write cycle applied
    to it directly."""
    db = Database.from_facts(workload.facts)
    writes = [op for op in workload.clients[0] if op[0] != "read"]
    times, changes = [], []
    with spans.calibrated() as window:
        build_s = _median_time(lambda: MaintainedView(program, db),
                               repeats=3)
        view = MaintainedView(program, db)
        for op in writes:
            fact = frozenset([op[2]])
            delta = {op[1]: (fact, frozenset()) if op[0] == "add"
                     else (frozenset(), fact)}
            start = time.perf_counter()
            changed = view.apply(delta)
            times.append(time.perf_counter() - start)
            changes.append(sum(len(ins) + len(dels)
                               for ins, dels in changed.values()))
    m["maintenance.build_ms"] = window.fix(build_s) * 1e3
    m["maintenance.apply_p50_ms"] = window.fix(
        statistics.median(times)) * 1e3
    m["maintenance.idb_changes_per_write"] = statistics.mean(changes)


def _micro(workload, spans: Spans, m: dict) -> None:
    """Storage operations on the workload's largest EDB relation."""
    name, tuples = max(workload.facts.items(), key=lambda kv: len(kv[1]))
    arity = len(tuples[0])
    keys = [(t[0],) for t in tuples[:256]]
    sqlite = (workload.service or {}).get("backend") == "sqlite"
    t: dict[str, float] = {}
    with spans.calibrated() as window:
        t["database.add_all_ns_per_tuple"] = _median_time(
            lambda: Relation(name, arity).add_all(tuples)
        ) / len(tuples) * 1e9
        fresh = iter([Relation(name, arity, tuples) for _ in range(REPEATS)])
        t["database.index_build_ms"] = _median_time(
            lambda: next(fresh).lookup((0,), keys[0])) * 1e3
        relation = Relation(name, arity, tuples)
        relation.lookup((0,), keys[0])
        cursor = itertools.cycle(keys)
        t["database.lookup_ns"] = _per_call(
            lambda: relation.lookup((0,), next(cursor)), 2048) * 1e9
        db = Database.from_facts(workload.facts)
        t["database.snapshot_ms"] = _median_time(db.snapshot) * 1e3
        t["database.fingerprint_us"] = _per_call(db.fingerprint, 2048) * 1e6
        if sqlite:
            backend = resolve_backend("sqlite")
            t["sqlite.add_all_ns_per_tuple"] = _median_time(
                lambda: backend.make_relation(name, arity, tuples)
            ) / len(tuples) * 1e9
            stored = ensure_backend(db, "sqlite")
            relation = stored.relation(name)
            relation.lookup((0,), keys[0])
            t["sqlite.lookup_us"] = _per_call(
                lambda: relation.lookup((0,), next(cursor)), 256) * 1e6
            t["sqlite.snapshot_ms"] = _median_time(stored.snapshot) * 1e3
    for metric, value in t.items():
        m[metric] = window.fix(value)


def traced_run(workload, seconds: float, out_dir) -> dict:
    """Every per-layer metric of one workload, and its span file."""
    m = {name: 0.0 for name, _unit, _better in PER_LAYER}
    spans = Spans()
    program = parse_program(workload.rules).program
    reads = _reads(workload)[:ENGINE_SAMPLE]
    wants = [w for w in _deal(expected_answers(workload)) if w is not None]
    _staged(workload, program, spans, m)
    # The engine passes see the reads on the initial database; for a
    # serve workload the service pass after them is the workload itself.
    bindings, failed = _counted(workload, program, reads,
                                    wants if workload.service is None
                                    else [None] * len(reads), m)
    _spanned(workload, program, reads, spans, bindings, seconds / 3, m)
    attempted = len(reads)
    if workload.service is not None:
        attempted, failed = _service(workload, spans, m)
        if workload.service.get("incremental"):
            _maintenance(workload, program, spans, m)
    _service_overhead(workload, program, reads, spans, m)
    _micro(workload, spans, m)
    path = out_dir / f"trace-{workload.name}.json"
    spans.dump(path, workload=workload.name,
               stream_digest=workload.digest())
    units = {name: unit for name, unit, _better in PER_LAYER}
    return {
        "workload": workload.name,
        "stream_digest": workload.digest(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[name], "unit": units[name]}
                    for name in units},
    }
