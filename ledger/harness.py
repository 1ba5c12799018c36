"""The untraced run: set-up, cold queries, timed passes, verification.

One :class:`Run` drives one workload through the public entry points of
``repro`` only.  Every end-to-end number comes from here; the per-layer
numbers come from ``layers.py`` in a separate traced run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from functools import partial

from repro import Database, Engine, parse_program
from repro.datalog.plan_cache import PLAN_CACHE
from repro.service import QueryService, ServiceConfig

from calibrate import calibration_ms, corrected
from reference import Reference, digest

__all__ = ["Run", "open_target", "close_target", "expected_answers",
           "calls", "run_clients", "failures", "percentile"]

MIN_SETUPS = 5
MAX_SETUPS = 40
SETUP_BUDGET_S = 0.4
COLD_QUERIES = 15
MIN_PASSES = 3


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def open_target(workload):
    """Generated text and facts to a ready ``Engine`` / ``QueryService``.

    This is the region ``setup_s`` times: ``parse_program``,
    ``Database.from_facts`` and the constructor (which, for a service,
    includes the ``MaintainedView`` build and the backend migration).
    """
    program = parse_program(workload.rules).program
    db = Database.from_facts(workload.facts)
    if workload.service is None:
        return Engine(program, db)
    return QueryService(program, db, ServiceConfig(**workload.service))


def close_target(target) -> None:
    if isinstance(target, QueryService):
        target.close()


def expected_answers(workload) -> list[list]:
    """Per client, the reference answer of every read (``None`` for a
    write), following the database through the stream's writes."""
    base = {pred: set(facts) for pred, facts in workload.facts.items()}
    references: dict[frozenset, Reference] = {}
    out = []
    for ops in workload.clients:
        added: set = set()
        expected = []
        for op in ops:
            if op[0] == "read":
                state = frozenset(added)
                ref = references.get(state)
                if ref is None:
                    facts = {p: set(f) for p, f in base.items()}
                    for pred, fact in state:
                        facts[pred].add(fact)
                    ref = references[state] = Reference(
                        workload.recursion, facts)
                expected.append(ref.answers(op[2]))
            else:
                (added.add if op[0] == "add" else added.discard)(op[1:])
                expected.append(None)
        out.append(expected)
    return out


def _add(pred, fact, db):
    return db.add_fact(pred, fact)


def _remove(pred, fact, db):
    return db.remove_fact(pred, fact)


def calls(ops) -> list:
    """Per op what the client passes: the query text, or the function
    ``mutate()`` applies to the live database."""
    return [
        op[1] if op[0] == "read"
        else partial(_add if op[0] == "add" else _remove, op[1], op[2])
        for op in ops
    ]


def _client(target, ops, out: list, barrier=None) -> None:
    """One closed-loop client: the next op starts when the last returned."""
    query = target.query
    mutate = getattr(target, "mutate", None)
    now = time.perf_counter
    if barrier is not None:
        barrier.wait()
    for op, call in zip(ops, calls(ops)):
        if op[0] == "read":
            start = now()
            result = query(call)
            out.append((now() - start, result))
        else:
            start = now()
            result = mutate(call)
            out.append((now() - start, result))


def run_clients(target, clients) -> tuple[float, list[list]]:
    """Run every client's stream once; ``(wall seconds, outcomes)``."""
    outcomes: list[list] = [[] for _ in clients]
    if len(clients) == 1:
        start = time.perf_counter()
        _client(target, clients[0], outcomes[0])
        return time.perf_counter() - start, outcomes
    barrier = threading.Barrier(len(clients) + 1)
    threads = [
        threading.Thread(target=_client, args=(target, ops, out, barrier))
        for ops, out in zip(clients, outcomes)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - start, outcomes


def segments(clients, size: int):
    """The streams cut into consecutive slices of ``size`` ops per
    client; a calibration runs between slices (README.md, "Estimator")."""
    longest = max(len(ops) for ops in clients)
    for start in range(0, longest, size):
        yield [ops[start:start + size] for ops in clients]


def failures(clients, expected, outcomes) -> int:
    """Operations whose status is not ok or whose answer is not the
    reference's."""
    bad = 0
    for ops, wants, got in zip(clients, expected, outcomes):
        for op, want, (_latency, result) in zip(ops, wants, got):
            if op[0] != "read":
                bad += result is not True
            elif getattr(result, "status", "ok") != "ok" \
                    or result.answers != want:
                bad += 1
    return bad


class Run:
    """One workload's untraced run (see ``README.md``, "Estimator")."""

    def __init__(self, workload, corrupt: bool = False,
                 quick: bool = False) -> None:
        self.workload = workload
        self.max_setups = MIN_SETUPS if quick else MAX_SETUPS
        self.cold_queries = 3 if quick else COLD_QUERIES
        self.expected = expected_answers(workload)
        if corrupt:
            # Self-test hook: a deliberately wrong reference answer.
            first = next(i for i, e in enumerate(self.expected[0])
                         if e is not None)
            self.expected[0][first] = frozenset({("corrupt",)})
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []
        self.reads = self.writes = 0
        self.target = None

    def prepare(self) -> None:
        """Time set-up and cold queries, then build the live target and
        run the warm-up pass."""
        w = self.workload
        raw, fixed = [], []
        cal = calibration_ms()
        while len(raw) < MIN_SETUPS or (
                sum(raw) < SETUP_BUDGET_S and len(raw) < self.max_setups):
            gc.collect()
            start = time.perf_counter()
            target = open_target(w)
            raw.append(time.perf_counter() - start)
            close_target(target)
            cal, before = calibration_ms(), cal
            fixed.append(corrected(raw[-1], (before + cal) / 2))
        self.setup_raw_s = statistics.median(raw)
        self.setup_s = statistics.median(fixed)
        self.setups = len(raw)

        program = parse_program(w.rules).program
        backend = (w.service or {}).get("backend")
        raw, fixed = [], []
        for i in range(self.cold_queries):
            engine = Engine(program, Database.from_facts(w.facts),
                            backend=backend)
            PLAN_CACHE.clear()
            gc.collect()
            cal = calibration_ms()
            start = time.perf_counter()
            engine.query(w.cold[i % len(w.cold)])
            raw.append(time.perf_counter() - start)
            fixed.append(corrected(raw[-1], (cal + calibration_ms()) / 2))
        self.cold_raw_ms = statistics.median(raw) * 1e3
        self.cold_ms = statistics.median(fixed) * 1e3

        self.target = open_target(w)
        self._pass(timed=False)

    def _pass(self, timed: bool) -> None:
        target = self.target
        memo = getattr(target, "memo", None)
        if memo is not None:
            # Every pass starts from a cold memo, so first-seen seeds
            # miss in every pass and not only in the warm-up.
            memo.clear()
        gc.collect()
        w = self.workload
        outcomes: list[list] = [[] for _ in w.clients]
        reads, writes, reads_raw = [], [], []
        wall = wall_raw = 0.0
        cals = []
        cal = calibration_ms()
        for piece in segments(w.clients, w.sizes["segment"]):
            seconds, got = run_clients(target, piece)
            cal, before = calibration_ms(), cal
            here = (before + cal) / 2
            cals.append(here)
            wall_raw += seconds
            wall += corrected(seconds, here)
            for ops, out, new in zip(piece, outcomes, got):
                out += new
                for op, (latency, _result) in zip(ops, new):
                    if op[0] == "read":
                        reads_raw.append(latency * 1e3)
                        reads.append(corrected(latency * 1e3, here))
                    else:
                        writes.append(corrected(latency * 1e3, here))
        if not timed:
            return
        bad = failures(w.clients, self.expected, outcomes)
        ops_done = len(reads) + len(writes)
        self.attempted += ops_done
        self.failed += bad
        self.reads += len(reads)
        self.writes += len(writes)
        self.passes.append({
            "calibration_ms": statistics.median(cals),
            "qps_raw": ops_done / wall_raw,
            "qps": ops_done / wall,
            "p50_raw_ms": statistics.median(reads_raw),
            "p50_ms": statistics.median(reads),
            "p95_ms": percentile(reads, 0.95),
            "write_p50_ms": statistics.median(writes) if writes else None,
        })

    def timed_pass(self) -> float:
        """One timed pass; returns the seconds it took, calibration
        included."""
        start = time.perf_counter()
        self._pass(timed=True)
        return time.perf_counter() - start

    def measure(self, seconds: float) -> None:
        spent = 0.0
        while spent < seconds or len(self.passes) < MIN_PASSES:
            spent += self.timed_pass()

    def close(self) -> None:
        if self.target is not None:
            close_target(self.target)
            self.target = None

    def result(self) -> dict:
        """Every end-to-end metric, corrected, with raw values beside."""
        med = statistics.median
        passes = self.passes
        p50 = med(p["p50_ms"] for p in passes)
        reads_per_pass = self.reads // len(passes)
        # Interference only ever adds to a tail, and the median over
        # passes of a tail sits on the edge between quiet and disturbed
        # passes.  The ratio p95/p50 is taken inside a pass, where both
        # saw the same machine; the quietest pass's ratio repeats best
        # (README.md, "Machine noise").
        tail = min(p["p95_ms"] / p["p50_ms"] for p in passes)
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "cold_query_ms": (self.cold_ms, "ms"),
            "query_p50_ms": (p50, "ms"),
            "query_p95_ms": (p50 * tail, "ms"),
            "throughput_qps": (med(p["qps"] for p in passes), "ops/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        return {
            "workload": self.workload.name,
            "sizes": self.workload.sizes,
            "stream_digest": self.workload.digest(),
            "expected_digest": digest(
                e for per in self.expected for e in per if e is not None),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / max(self.attempted, 1),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "write_p50_ms": (med(p["write_p50_ms"] for p in passes)
                             if self.writes else None),
            "raw": {
                "setup_s": self.setup_raw_s,
                "cold_query_ms": self.cold_raw_ms,
                "query_p50_ms": med(p["p50_raw_ms"] for p in passes),
                "throughput_qps": med(p["qps_raw"] for p in passes),
                "calibration_ms": med(p["calibration_ms"] for p in passes),
            },
            "samples": {
                "setups": self.setups,
                "cold_queries": self.cold_queries,
                "passes": len(passes),
                "reads": self.reads,
                "writes": self.writes,
                "reads_beyond_p95_per_pass": (
                    reads_per_pass - int(0.95 * reads_per_pass)),
            },
        }
