"""A concurrent query service over one program and one mutable EDB.

:class:`QueryService` is the deployment shape the paper's Section 5
sketches ("a useful component of a recursive query processor") grown to
serving size: many queries are answered at once while the EDB keeps
changing underneath -- each :meth:`~QueryService.query` on the thread
that asks, each :meth:`~QueryService.submit` on a thread pool -- with
three guarantees no bare :class:`~repro.engine.Engine` call gives:

**Snapshot isolation.**  Each request is served against an immutable
copy of the EDB captured when it is served, labelled with the EDB's
state number (:meth:`~repro.datalog.database.Database.fingerprint`).
Capture and mutation are serialized on one lock (mutations go through
:meth:`QueryService.mutate`), so a state can never be torn -- every
answer is exactly the serial answer for *some* database state the
service actually passed through.  The one current snapshot serves every
request that finds, without the lock, the live number equal to its
label; the number only ever grows, so a write simply replaces it
(in-flight requests keep the object they hold).

**Full-selection memoization.**  Lemma 2.1 reduces every selection to a
union of full selections; the service threads a
:class:`~repro.service.FullSelectionMemo` (scoped to the snapshot's
state number, an entry kept across a write it did not read) through the
Separable evaluator: answered full selections are served from cache, and
a miss never waits on another request's run of the same selection.

**Deadline budgets.**  Every request runs under a per-attempt
:class:`~repro.budget.Budget` whose wall clock is armed at submission:
a divergent or overweight evaluation trips
:class:`~repro.errors.BudgetExceeded` inside its fixpoint loop instead
of pinning a thread.  Wall-clock trips (the only retryable kind) get
bounded retry with exponential backoff; a Lemma 2.1 union that dies
mid-way degrades into a :class:`PartialResult` carrying the merged
:class:`~repro.stats.EvaluationStats` and the answers of the half that
completed (``t_part``; the ``t_full`` seeds run as one batch).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database, difference
from ..datalog.errors import BudgetExceeded, ReproError
from ..datalog.parser import parse_query_memo
from ..datalog.plan_cache import PLAN_CACHE
from ..datalog.programs import Program
from ..engine import Engine, QueryResult
from ..maintenance import MaintainedView
from ..observability.events import EventSink, RingBufferSink, trace_start
from ..observability.tracer import Tracer, span_of
from ..stats import EvaluationStats
from .memo import FullSelectionMemo, ScopedMemo
from .metrics import ServiceMetrics

__all__ = [
    "ServiceConfig",
    "PartialResult",
    "ServiceResult",
    "QueryService",
]

#: Recorded requests' records the service keeps for
#: :meth:`QueryService.slowlog` and the HTTP ``/slowlog`` endpoint
#: (oldest evicted first; a sink, when configured, still receives every
#: record).
SLOWLOG_CAPACITY = 256


def _seconds_ok(value: Optional[float]) -> bool:
    """``None``, or a finite number of seconds >= 0 (NaN fails)."""
    return value is None or 0.0 <= value < math.inf


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`QueryService`.

    Attributes
    ----------
    workers:
        Size of the pool :meth:`QueryService.submit` enqueues on
        (:meth:`QueryService.query` serves on the calling thread).
    memo_size:
        Bound on the full-selection memo (entries, LRU).
    default_deadline_s:
        Per-request wall-clock deadline applied when a request names
        none (``None`` = no deadline; a negative or non-finite one
        raises ``ValueError``, as does such a ``deadline_s`` on a
        request).  Measured from submission, so queue wait counts -- a
        deadline is a promise to the caller, not to the evaluator.
    max_retries:
        Extra attempts after a *retryable* (wall-clock) budget trip.
    retry_backoff_s:
        Sleep before the first retry; doubles per attempt.
    order:
        Join order handed to every evaluation.
    budget:
        Base tuple/iteration budget shared by all requests; the
        per-request deadline is layered onto a copy.
    incremental:
        Maintain a materialized IDB view under mutation (see
        :mod:`repro.maintenance`): after each :meth:`QueryService.mutate`
        the view is repaired by the difference between its own copy of
        each written relation and the live one, and a
        ``strategy="auto"`` read of a derived predicate is one index
        lookup on the view (:meth:`MaintainedView.select
        <repro.maintenance.MaintainedView.select>`) instead of an
        evaluation.  Every other request is served as without it.
    trace_sample:
        Fraction of requests served under a full recording
        :class:`~repro.observability.Tracer` (0.0 = none, 1.0 = all;
        anything outside [0, 1], NaN included, raises ``ValueError``).
        Sampling is deterministic over the request sequence number --
        rate 0.25 traces exactly every 4th request -- so tests and
        operators can predict which requests carry span trees.  Every
        sampled read is *recorded*: its ``service_request`` record
        carries its span tree (see :meth:`QueryService.slowlog`); a
        write to the maintained view takes a sequence number too, and
        a sampled one adds its spans to the evaluator aggregates (no
        record).  An unsampled request runs with ``tracer=None``.
    slow_query_threshold_s:
        When set, *every* read runs under a recording tracer and any
        read whose latency reaches the threshold is recorded, sampled
        or not (the after-the-fact EXPLAIN ANALYZE for the queries
        that actually hurt).  Negative or non-finite raises
        ``ValueError``.
    backend:
        Storage backend spec for the live EDB
        (:func:`repro.storage.resolve_backend` semantics: ``None`` /
        ``"memory"`` / ``"sqlite"`` / ``"sqlite:<path>"`` / a backend
        object).  The EDB handed to :class:`QueryService` is migrated
        onto it at construction.  ``"sqlite:<path>"`` is the durable
        form: facts already in the file are loaded, mutations persist
        across service restarts, and a snapshot is one read-only WAL
        connection per relation, re-pinned after every write, where
        ``"memory"`` and ``"sqlite"`` (temporary mode) copy the written
        relation once and share the rest with the snapshot before
        (``docs/storage.md``, "What a write costs").
    """

    workers: int = 4
    memo_size: int = 1024
    default_deadline_s: Optional[float] = None
    max_retries: int = 1
    retry_backoff_s: float = 0.02
    order: str = "greedy"
    budget: Budget = UNLIMITED
    incremental: bool = False
    trace_sample: float = 0.0
    slow_query_threshold_s: Optional[float] = None
    backend: object = None

    def __post_init__(self) -> None:
        # Before a service migrates the EDB: no file left behind.
        for name, ok in (("workers", self.workers >= 1),
                         ("memo_size", self.memo_size >= 1),
                         ("max_retries", self.max_retries >= 0),
                         ("retry_backoff_s",
                          0.0 <= self.retry_backoff_s < math.inf),
                         ("trace_sample", 0.0 <= self.trace_sample <= 1.0),
                         ("default_deadline_s",
                          _seconds_ok(self.default_deadline_s)),
                         ("slow_query_threshold_s",
                          _seconds_ok(self.slow_query_threshold_s))):
            if not ok:  # NaN fails every comparison
                raise ValueError(
                    f"{name} is out of range: {getattr(self, name)!r}")


@dataclass(frozen=True)
class PartialResult:
    """What a deadline-tripped union evaluation still managed to answer.

    ``stats`` is the *merged* :class:`EvaluationStats` over everything
    that ran of the Lemma 2.1 union -- ``t_part`` plus the partial work
    of the ``t_full`` batch that tripped -- see
    :mod:`repro.core.api`.
    """

    answers: frozenset
    stats: Optional[EvaluationStats]
    reason: str
    limit: Optional[str]


@dataclass(slots=True)
class ServiceResult:
    """One served request: answers plus serving provenance.

    ``status`` is ``"ok"`` (complete answers), ``"partial"`` (budget
    tripped mid-union; ``partial`` carries what completed) or
    ``"error"`` (no answers; ``error`` says why).  ``fingerprint`` is
    the EDB state number it was served against: which state the caller
    observed (``None`` for an error raised before any was read).
    ``trace_id`` identifies the request's ``service_request`` record
    (every request gets one, whether or not it was recorded).
    """

    query: Atom
    strategy: str
    status: str
    answers: frozenset
    stats: Optional[EvaluationStats]
    fingerprint: Optional[int]
    latency_s: float
    attempts: int
    error: Optional[str] = None
    limit: Optional[str] = None
    partial: Optional[PartialResult] = None
    result: Optional[QueryResult] = None
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __len__(self) -> int:
        return len(self.answers)

    def sorted(self) -> list[tuple]:
        """Answers in a stable order (for display and tests)."""
        return sorted(self.answers, key=repr)


@dataclass
class _Snapshot:
    """One EDB state (``fingerprint``), its engine and its memo view."""

    fingerprint: int
    db: Database
    engine: Engine
    memo: ScopedMemo


class QueryService:
    """Serve concurrent queries over a snapshot-isolated EDB view.

    Use as a context manager (or call :meth:`close`); the thread pool
    holds non-daemon workers.  ``sink`` is an optional
    :class:`~repro.observability.EventSink` receiving one
    ``service_request`` record per completion, a recorded request's
    with its span tree (see :meth:`slowlog`; the stream opens with the
    standard ``trace_start`` header, so
    :func:`repro.observability.read_events` accepts it).  A sink that
    raises fails no request: each failure counts one ``sink_errors``.
    """

    def __init__(
        self,
        program: Program,
        edb: Database,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.program = program
        self.config = config or ServiceConfig()
        if self.config.backend is not None:
            from ..storage import ensure_backend

            edb = ensure_backend(edb, self.config.backend)
        self.edb = edb
        self.metrics = metrics or ServiceMetrics()
        self.memo = FullSelectionMemo(self.config.memo_size)
        self._recorded = RingBufferSink(SLOWLOG_CAPACITY)
        self._sink = sink
        # Guards the sink and the ring: a deque cannot be listed while
        # another thread appends.
        self._sink_lock = threading.Lock()
        if sink is not None:
            trace_start(sink, {"component": "service",
                               "workers": self.config.workers})
        self._snapshot_lock = threading.Lock()
        self._current: Optional[_Snapshot] = None
        # Every snapshot's engine is a sibling of this one (over no
        # data), so the program is analysed once, not once per write.
        self._engine = Engine(
            program,
            Database(),
            budget=self.config.budget,
            order=self.config.order,
        )
        self._view: Optional[MaintainedView] = (
            MaintainedView(program, edb, order=self.config.order)
            if self.config.incremental
            else None
        )
        # The EDB state the view stands at and its relations' versions.
        self._view_fp, self._view_versions = (
            (edb.fingerprint(), edb.versions()) if self._view else (None, {}))
        # The predicates a view read answers: every derived one.
        self._view_predicates = (
            program.idb_predicates if self._view else frozenset())
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and (by default) drain the pool."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mutation and snapshots ---------------------------------------------

    def mutate(self, fn: Callable[[Database], object]) -> object:
        """Apply a mutation to the live EDB, atomically w.r.t. snapshots.

        ``fn`` receives the live database; whatever it returns is
        passed through.  Because snapshot capture holds the same lock,
        no request can ever observe a half-applied mutation (a "torn"
        state): it is served against the state before ``fn`` or after
        it, never during.

        With :attr:`ServiceConfig.incremental` set, the maintained IDB
        view is brought to the EDB ``fn`` left behind, whether ``fn``
        returned or raised, before the lock is released
        (:meth:`_bring_view_forward`); a write made behind ``mutate``'s
        back since the last one comes with it.  Nothing else is touched:
        the snapshot and the memo wait for the next capture, as in a
        service without a view.  Such a write takes
        the next request sequence number, and a sampled one (see
        :attr:`ServiceConfig.trace_sample`) runs under a recording
        tracer the metrics absorb; any other passes ``tracer=None``.
        """
        with self._snapshot_lock:
            if self._view is None:
                return fn(self.edb)
            tracer = (Tracer() if self._sampled(self.metrics.number())
                      else None)
            try:
                with span_of(tracer, "service.mutate.capture"):
                    return fn(self.edb)
            finally:
                self._bring_view_forward(tracer)
                if tracer is not None:
                    self.metrics.absorb(tracer)

    def _bring_view_forward(self, tracer: Optional[Tracer]) -> None:
        """Bring the view to the live EDB (the snapshot lock is held).

        The view keeps its own copy of the EDB, standing at
        ``_view_fp``, so what it owes a write is, per relation whose
        ``(arity, version)`` moved since ``_view_versions``, the rows
        only in the live relation and the rows only in its copy: exact
        whatever wrote them -- ``fn``, a ``clear()``, a write behind
        ``mutate``'s back.  A moved derived relation, or a difference
        :meth:`MaintainedView.apply` cannot take, rebuilds the view.
        """
        live_fp, view_fp = self.edb.fingerprint(), self._view_fp
        if live_fp == view_fp:
            return
        # Stands nowhere until brought to live_fp (None: a rebuild failed).
        self._view_fp = None
        with span_of(tracer, "service.mutate.apply"):
            live, mine = self.edb.versions(), self._view.db
            moved = {name for name, _ in
                     live.items() ^ self._view_versions.items()}
            repair = view_fp is not None and moved.isdisjoint(
                self._view_predicates)
            try:
                if repair:
                    self._view.apply({name: difference(
                        self.edb.relation(name), mine.relation(name))
                        for name in moved}, tracer)
            except Exception:
                repair = False  # correctness first, incrementality after
            if not repair:
                self._view.rebuild(self.edb)
        self._view_fp, self._view_versions = live_fp, live
        self.metrics.bump("view_repairs" if repair else "view_rebuilds")

    def _view_read(self, query: Atom,
                   tracer) -> Optional[tuple[int, frozenset]]:
        """``(fingerprint, answers)`` of ``query`` off the maintained
        view, or ``None`` when the view does not stand at the live EDB
        (it was written to behind :meth:`mutate`'s back).  The lock keeps
        a write from being mid-way: a view write patches in place."""
        with self._snapshot_lock:
            fingerprint = self.edb.clock.now
            if self._view_fp != fingerprint:
                return None
            with span_of(tracer, "service.view_read"):
                answers = self._view.select(query, tracer)
        return fingerprint, answers

    def add_fact(self, name: str, fact: tuple) -> bool:
        """Convenience :meth:`mutate` for the common single-fact case."""
        return self.mutate(lambda db: db.add_fact(name, fact))

    @cached_property
    def _derived(self) -> dict:
        """Per derived relation, those a write to which may change it."""
        return {p: self.program.depends_on(p) | {p}
                for p in self.program.idb_predicates}

    def _capture(self, fingerprint: int) -> _Snapshot:
        """Make the live EDB, standing at least at ``fingerprint``, the
        current snapshot (the snapshot lock is held).

        It shares with the snapshot it replaces every relation no write
        has touched since (:meth:`Database.snapshot`): a capture costs
        one copy per *written* relation on ``memory`` and temporary
        SQLite, one pinned read-only connection per relation (and no
        copy) on a durable file.  The memo keeps the entries that read
        none of the rows written since (:meth:`FullSelectionMemo.carry`;
        a derived relation counts as written, rows unknown, when a
        relation it depends on is).
        """
        prev = self._current
        db = self.edb.snapshot(prev.db if prev is not None else None)
        if prev is not None:
            written = {name: rows for name, rows in db.written.items()
                       if rows is None or rows}
            for name, depends in self._derived.items():
                if not depends.isdisjoint(written):
                    written[name] = None
            self.memo.carry(prev.fingerprint, fingerprint, written)
        snap = self._current = _Snapshot(
            fingerprint, db, self._engine.with_edb(db),
            self.memo.scoped(fingerprint))
        return snap

    def _snapshot(self) -> _Snapshot:
        """The held snapshot while its label is the live number (read
        without the lock), else one captured under it.  The label is
        read before the copy and a write moves the number after its rows
        land, so a snapshot is never older than its label."""
        snap = self._current
        if snap is not None and snap.fingerprint == self.edb.clock.now:
            return snap
        with self._snapshot_lock:
            fingerprint = self.edb.clock.now
            snap = self._current
            if snap is not None and snap.fingerprint == fingerprint:
                return snap
            snap = self._capture(fingerprint)
        self.metrics.bump("snapshots_created")
        return snap

    # -- serving ------------------------------------------------------------

    def submit(
        self,
        query: Union[Atom, str],
        strategy: str = "auto",
        deadline_s: Optional[float] = None,
    ) -> "Future[ServiceResult]":
        """Enqueue one request; returns a future of :class:`ServiceResult`.

        Query text is parsed here (synchronously) so malformed requests
        fail fast in the caller, not in a worker; the request itself is
        served on a ``repro-service`` worker.
        """
        return self._executor.submit(
            self._serve, *self._admit(query, strategy, deadline_s, True))

    def query(
        self,
        query: Union[Atom, str],
        strategy: str = "auto",
        deadline_s: Optional[float] = None,
    ) -> ServiceResult:
        """One request served on the calling thread, no hand-off: what
        :meth:`submit` would serve on a worker."""
        return self._serve(*self._admit(query, strategy, deadline_s, False))

    def batch(
        self,
        queries: Iterable[Union[Atom, str]],
        strategy: str = "auto",
        deadline_s: Optional[float] = None,
    ) -> list[ServiceResult]:
        """Submit many requests and wait for all (submission order)."""
        futures = [
            self.submit(q, strategy, deadline_s) for q in queries
        ]
        return [f.result() for f in futures]

    # -- internals ----------------------------------------------------------

    def _admit(self, query: Union[Atom, str], strategy: str,
               deadline_s: Optional[float], waits: bool) -> tuple:
        """Parse, number and count one request, which ``waits`` for a
        worker or not: :meth:`_serve`'s arguments."""
        if self._closed:
            raise RuntimeError("service is closed")
        if isinstance(query, str):
            query = parse_query_memo(query)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        elif not _seconds_ok(deadline_s):
            raise ValueError(f"deadline_s is out of range: {deadline_s!r}")
        submitted = time.monotonic()
        return (query, strategy, deadline_s, submitted,
                self.metrics.admit(waits), waits)

    def _attempt_budget(self, deadline_at: Optional[float]) -> Budget:
        """The budget for one attempt, wall clock armed from now."""
        base = self.config.budget
        if deadline_at is None and base.max_wall_seconds is None:
            return base
        now = time.monotonic()
        if deadline_at is not None:
            remaining = max(deadline_at - now, 0.0)
            wall = base.max_wall_seconds
            if wall is None or remaining < wall:
                base = base.with_wall_limit(remaining)
        return base.start_clock(now)

    def _sampled(self, seq: int) -> bool:
        """Deterministic sampling: rate 1/K traces every Kth request.

        ``floor(seq * rate)`` advances exactly when ``seq`` crosses a
        1/rate boundary, so the set of sampled sequence numbers is a
        pure function of the rate -- no RNG, reproducible in tests.
        """
        rate = self.config.trace_sample
        return rate > 0 and math.floor(seq * rate) > math.floor(
            (seq - 1) * rate)

    def _serve(
        self,
        query: Atom,
        strategy: str,
        deadline_s: Optional[float],
        submitted: float,
        seq: int,
        waited: bool,
    ) -> ServiceResult:
        if waited:
            self.metrics.request_started(seq)
        deadline_at = (
            submitted + deadline_s if deadline_s is not None else None
        )
        trace_id = f"req-{seq:08x}"
        sampled = self._sampled(seq)
        threshold = self.config.slow_query_threshold_s
        # A sampled request must record spans; a threshold means every
        # request might turn out slow, so every request records.  The
        # tracer is private to the thread serving the request (the
        # metrics absorb it afterwards), which is what lets the
        # non-thread-safe Tracer serve here; any other request runs
        # with ``tracer=None``.
        tracer = (
            Tracer(context={"trace_id": trace_id, "query": str(query)})
            if sampled or threshold is not None
            else None
        )
        # The memo disposition a recorded request reports is the stats
        # delta across the request; only a traced request is recorded.
        memo_before = self.memo.stats() if tracer is not None else None
        # Where the materialisation exists, ``auto`` picks it.
        viewable = (strategy == "auto"
                    and query.predicate in self._view_predicates)
        attempts = 0
        backoff = self.config.retry_backoff_s
        fingerprint: Optional[int] = None

        def served(status: str, strategy: str = strategy,
                   answers: frozenset = frozenset(), stats=None, error=None,
                   limit=None, partial=None, result=None) -> ServiceResult:
            """The result of this request as of now (the last attempt's
            database state)."""
            return ServiceResult(
                query, strategy, status, answers, stats, fingerprint,
                time.monotonic() - submitted, attempts, error, limit,
                partial, result, trace_id)

        out = None
        try:
            while out is None:
                attempts += 1
                try:
                    read = (self._view_read(query, tracer)
                            if viewable else None)
                    if read is None:
                        snap = self._snapshot()
                        fingerprint = snap.fingerprint
                        result = snap.engine.query(
                            query,
                            strategy=strategy,
                            budget=self._attempt_budget(deadline_at),
                            memo=snap.memo,
                            tracer=tracer,
                        )
                except BudgetExceeded as exc:
                    if exc.limit == "wall_clock":
                        self.metrics.bump("deadline_trips")
                    remaining = (
                        deadline_at - time.monotonic()
                        if deadline_at is not None
                        else None
                    )
                    can_retry = (
                        exc.retryable
                        and attempts <= self.config.max_retries
                        and (remaining is None or remaining > backoff)
                    )
                    if can_retry:
                        self.metrics.bump("retries")
                        time.sleep(backoff)
                        backoff *= 2
                        continue
                    # Out of retries: partial answers if any exist.
                    stats = (exc.stats
                             if isinstance(exc.stats, EvaluationStats)
                             else None)
                    if exc.partial is None:
                        out = served("error", stats=stats, error=str(exc),
                                     limit=exc.limit)
                    else:
                        partial = PartialResult(
                            answers=exc.partial,
                            stats=stats,
                            reason=str(exc),
                            limit=exc.limit,
                        )
                        out = served("partial", answers=partial.answers,
                                     stats=stats, error=str(exc),
                                     limit=exc.limit, partial=partial)
                except ReproError as exc:
                    out = served("error",
                                 error=f"{type(exc).__name__}: {exc}")
                else:
                    if read is None:
                        out = served("ok", result.strategy, result.answers,
                                     result.stats, result=result)
                    else:
                        fingerprint, answers = read
                        out = served("ok", "view", answers,
                                     EvaluationStats(strategy="view"))
            return out
        except BaseException as exc:
            # Not a typed failure: it reaches the caller (or the future),
            # and the request's accounting still closes below.
            out = served("error", error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._finish(out, tracer, sampled, memo_before, seq)

    def _finish(
        self,
        out: ServiceResult,
        tracer: Optional[Tracer],
        sampled: bool,
        memo_before: Optional[dict],
        seq: int,
    ) -> None:
        """Account for a completed request, then write its one record.

        A traced request's tracer is folded into the aggregates
        (:meth:`ServiceMetrics.absorb`); it is *recorded* when it was
        sampled or its latency reached the threshold, and its
        ``service_request`` record then also carries ``reason``, the
        memo disposition (the stats delta across the request --
        approximate under concurrency, exact when requests are serial),
        and ``trace``, the span tree (:meth:`Tracer.to_dict`).  The ring
        behind :meth:`slowlog` keeps the newest recorded ones; the
        metrics count them all (``recorded``, ``recorded_sampled``,
        ``recorded_slow``).  With no sink, an unrecorded request builds
        no record.
        """
        reason: Sequence[str] = ()
        if tracer is not None:
            self.metrics.absorb(tracer)
            threshold = self.config.slow_query_threshold_s
            slow = threshold is not None and out.latency_s >= threshold
            reason = [name for name, hit in (("sampled", sampled),
                                             ("slow", slow)) if hit]
        self.metrics.request_completed(
            seq, out.status, out.latency_s,
            "view_probes" if out.strategy == "view" else None)
        if not reason and self._sink is None:
            return
        record = {
            "type": "service_request",
            "trace_id": out.trace_id,
            "query": str(out.query),
            "strategy": out.strategy,
            "status": out.status,
            "answers": len(out.answers),
            "attempts": out.attempts,
            "latency_s": out.latency_s,
            "queue_depth": self.metrics.queue_depth,
            "limit": out.limit,
        }
        if out.error is not None:
            record["error"] = out.error
        if reason:
            memo_after = self.memo.stats()
            memo = {key: memo_after[key] - memo_before[key]
                    for key in ("hits", "misses", "resumed")}
            memo["size"] = memo_after["size"]
            record.update(reason=reason, memo=memo, trace=tracer.to_dict())
            for name in ("recorded", *(f"recorded_{why}" for why in reason)):
                self.metrics.bump(name)
        with self._sink_lock:
            if reason:
                self._recorded.emit(record)
            if self._sink is not None:
                try:
                    self._sink.emit(record)
                except Exception:
                    # A full disk must not fail the request it records.
                    self.metrics.bump("sink_errors")

    # -- introspection ------------------------------------------------------

    def metrics_dict(self) -> dict:
        """Service + memo + plan-cache + evaluator counters, JSON-ready."""
        return self.metrics.as_dict(
            memo_stats=self.memo.stats(),
            plan_cache_stats=PLAN_CACHE.stats(),
        )

    def metrics_text(self) -> str:
        """Prometheus text exposition (see :mod:`.metrics`)."""
        return self.metrics.to_metrics_text(
            memo_stats=self.memo.stats(),
            plan_cache_stats=PLAN_CACHE.stats(),
        )

    def slowlog(self, n: Optional[int] = None) -> list[dict]:
        """The newest ``n`` (>= 0) recorded requests' records, oldest
        first -- all the :data:`SLOWLOG_CAPACITY` kept when ``n`` is
        ``None`` -- the very dicts the sink got."""
        with self._sink_lock:
            records = list(self._recorded)
        return records if n is None else records[max(len(records) - n, 0):]
