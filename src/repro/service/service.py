"""A concurrent query service over one program and one mutable EDB.

:class:`QueryService` is the deployment shape the paper's Section 5
sketches ("a useful component of a recursive query processor") grown to
serving size: many queries are answered at once while the EDB keeps
changing underneath -- each :meth:`~QueryService.query` on the thread
that asks, each :meth:`~QueryService.submit` on a thread pool -- with
three guarantees no bare :class:`~repro.engine.Engine` call gives:

**Snapshot isolation.**  Each request is served against an immutable
copy of the EDB captured when it is served, keyed on
:meth:`~repro.datalog.database.Database.fingerprint`.  Capture and
mutation are serialized on one lock (mutations go through
:meth:`QueryService.mutate`), so a fingerprint can never be torn --
every answer is exactly the serial answer for *some* database state the
service actually passed through.  The one current snapshot is shared
by every request that sees its fingerprint; relation versions only ever
increase, so an older fingerprint can never be asked for again and a
write simply replaces it (in-flight requests keep the object they hold).

**Full-selection memoization.**  Lemma 2.1 reduces every selection to a
union of full selections; the service threads a
:class:`~repro.service.FullSelectionMemo` (scoped to the snapshot
fingerprint) through the Separable evaluator, so already-answered full
selections are served from cache and K concurrent identical ones
coalesce onto a single carry/seen run.

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
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from ..budget import Budget, UNLIMITED
from ..core.detection import require_separable
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import BudgetExceeded, ReproError
from ..datalog.parser import parse_query
from ..datalog.plan_cache import PLAN_CACHE
from ..datalog.programs import Program
from ..engine import Engine, QueryResult
from ..maintenance import DeltaCapture, MaintainedView
from ..observability.events import EVENT_SCHEMA, EventSink
from ..observability.tracer import Tracer
from ..stats import EvaluationStats
from .memo import FullSelectionMemo
from .metrics import ServiceMetrics
from .slowlog import (
    SlowlogRing,
    build_slowlog_record,
    work_counter_totals,
)

__all__ = [
    "ServiceConfig",
    "PartialResult",
    "ServiceResult",
    "QueryService",
]

#: Query texts a service keeps parsed (least recently used out first).
PARSE_MEMO_SIZE = 1024

#: Records the in-memory slow-query ring keeps for the HTTP ``/slowlog``
#: endpoint (oldest evicted first; a sink, when configured, still
#: receives every record).
SLOWLOG_CAPACITY = 256


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
        none (``None`` = no deadline).  Measured from submission, so
        queue wait counts -- a deadline is a promise to the caller,
        not to the evaluator.
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
        :mod:`repro.maintenance`): :meth:`QueryService.mutate` captures
        per-relation deltas and repairs the view incrementally, and a
        ``strategy="auto"`` read of a derived predicate is one index
        lookup on the view (:meth:`MaintainedView.select
        <repro.maintenance.MaintainedView.select>`) instead of an
        evaluation.  Every other request is served as without it.
    trace_sample:
        Fraction of requests served under a full recording
        :class:`~repro.observability.Tracer` (0.0 = none, 1.0 = all).
        Sampling is deterministic over the request sequence number --
        rate 0.25 traces exactly every 4th request -- so tests and
        operators can predict which requests carry span trees.  Every
        sampled request lands one ``repro-slowlog/1`` record.
    slow_query_threshold_s:
        When set, *every* request runs under a recording tracer and any
        request whose latency reaches the threshold lands a slowlog
        record, sampled or not (the after-the-fact EXPLAIN ANALYZE for
        the queries that actually hurt).
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


@dataclass(frozen=True)
class PartialResult:
    """What a deadline-tripped union evaluation still managed to answer.

    ``stats`` is the *merged* :class:`EvaluationStats` over everything
    that ran of the Lemma 2.1 union -- ``t_part`` plus the partial work
    of the seed-tagged ``t_full`` batch that tripped -- see
    :mod:`repro.core.api`.
    """

    answers: frozenset
    stats: Optional[EvaluationStats]
    reason: str
    limit: Optional[str]


@dataclass(frozen=True)
class ServiceResult:
    """One served request: answers plus serving provenance.

    ``status`` is ``"ok"`` (complete answers), ``"partial"`` (budget
    tripped mid-union; ``partial`` carries what completed) or
    ``"error"`` (no answers; ``error`` says why).  ``fingerprint`` is
    the EDB fingerprint of the database state the request was served
    against -- the handle callers use to reason about which state they
    observed (``()`` for an error raised before any state was read).
    ``trace_id`` identifies the request in the slow-query log (every
    request gets one, whether or not it was sampled).
    """

    query: Atom
    strategy: str
    status: str
    answers: frozenset
    stats: Optional[EvaluationStats]
    fingerprint: tuple
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
    """One immutable EDB state with its per-state engine."""

    fingerprint: tuple
    db: Database
    engine: Engine


class QueryService:
    """Serve concurrent queries over a snapshot-isolated EDB view.

    Use as a context manager (or call :meth:`close`); the thread pool
    holds non-daemon workers.  ``sink`` is an optional
    :class:`~repro.observability.EventSink` receiving one
    ``service_request`` event per completion (the stream opens with a
    standard ``trace_start`` record so
    :func:`repro.observability.read_events` accepts it; trace replay
    skips the service records as unknown types).
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
        self.slowlog_ring = SlowlogRing(SLOWLOG_CAPACITY)
        self._seq_lock = threading.Lock()
        self._seq = 0
        # Query text -> its ``Atom``: frozen, so requests can share it.
        # A text that does not parse raises every time and is not kept.
        self._parse = lru_cache(maxsize=PARSE_MEMO_SIZE)(parse_query)
        self._sink = sink
        self._sink_lock = threading.Lock()
        if sink is not None:
            sink.emit(
                {
                    "type": "trace_start",
                    "schema": EVENT_SCHEMA,
                    "context": {"component": "service",
                                "workers": self.config.workers},
                }
            )
        self._snapshot_lock = threading.Lock()
        self._current: Optional[_Snapshot] = None
        # Every snapshot's engine is a sibling of this one (over no
        # data), so the program is analysed once, not once per write.
        self._engine = Engine(
            program,
            Database(),
            budget=self.config.budget,
            order=self.config.order,
            tracer=self.metrics.tracer,
        )
        self._view: Optional[MaintainedView] = (
            MaintainedView(program, edb, order=self.config.order)
            if self.config.incremental
            else None
        )
        # The EDB state the view stands at: what a probe vouches for.
        self._view_fp = edb.fingerprint() if self._view else None
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
        fingerprint): it is served against the state before ``fn`` or
        after it, never during.

        With :attr:`ServiceConfig.incremental` set, the mutation is
        observed as per-relation deltas and absorbed before the lock is
        released: the maintained IDB view is repaired (or rebuilt on a
        delta-capture overflow, when ``fn`` raised, or when the EDB was
        changed behind ``mutate``'s back).  Nothing else is touched:
        memo entries and the snapshot stay behind at the old
        fingerprint, as in a service without a view.
        """
        with self._snapshot_lock:
            if self._view is None:
                return fn(self.edb)
            old_fp = self.edb.fingerprint()
            capture = DeltaCapture(
                self.edb, guard_predicates=self.program.idb_predicates
            )
            try:
                with self.metrics.tracer.span("service.mutate.capture"):
                    return fn(self.edb)
            except BaseException:
                # A relation installs a fact before it tells its
                # observers, so an observer that raised ahead of the
                # capture hid a write from it: rebuild, do not repair.
                capture.overflow = True
                raise
            finally:
                capture.detach()
                self._absorb_mutation(old_fp, capture)

    def _absorb_mutation(self, old_fp: tuple,
                         capture: DeltaCapture) -> None:
        """Bring the view to the EDB a captured mutation left behind."""
        new_fp = self.edb.fingerprint()
        if new_fp == old_fp:
            return
        assert self._view is not None
        # The deltas describe old_fp -> new_fp: a view standing anywhere
        # else (the EDB was written to behind mutate's back) cannot
        # absorb them.  It stands nowhere until brought to new_fp.
        stale = old_fp != self._view_fp
        self._view_fp = None
        if stale or capture.overflow:
            return self._rebuild_view(new_fp)
        net = capture.net()
        try:
            tracer = self.metrics.tracer
            with tracer.span("service.mutate.apply"):
                self._view.apply(net, tracer)
        except Exception:
            # A delta the maintenance layer cannot express exactly
            # degrades to a rebuild; correctness first, incrementality
            # when possible.
            return self._rebuild_view(new_fp)
        self._view_fp = new_fp
        self.metrics.bump("view_repairs")

    def _rebuild_view(self, fingerprint: tuple) -> None:
        """Bring the view to the live EDB by a full re-evaluation."""
        self._view.rebuild(self.edb)
        self._view_fp = fingerprint
        self.metrics.bump("view_rebuilds")

    def _view_read(self, query: Atom,
                   tracer) -> Optional[tuple[tuple, frozenset]]:
        """``(fingerprint, answers)`` of ``query`` off the maintained
        view, or ``None`` when the view does not stand at the live EDB
        (it was written to behind :meth:`mutate`'s back).

        The lock keeps a write from being mid-way, so the answers are
        exactly those of the state ``fingerprint`` names.
        """
        with self._snapshot_lock:
            fingerprint = self.edb.fingerprint()
            if self._view_fp != fingerprint:
                return None
            with tracer.span("service.view_read"):
                answers = self._view.select(query, tracer)
        self.metrics.bump("view_probes")
        return fingerprint, answers

    def add_fact(self, name: str, fact: tuple) -> bool:
        """Convenience :meth:`mutate` for the common single-fact case."""
        return self.mutate(lambda db: db.add_fact(name, fact))

    def _capture(self, fingerprint: tuple) -> _Snapshot:
        """Make the live EDB, standing at ``fingerprint``, the current
        snapshot (the snapshot lock is held).

        It shares with the snapshot it replaces every relation no write
        has touched since (:meth:`Database.snapshot`): a capture costs
        one copy per *written* relation on ``memory`` and temporary
        SQLite, one pinned read-only connection per relation (and no
        copy) on a durable file.
        """
        prev = self._current
        db = self.edb.snapshot(prev.db if prev is not None else None)
        snap = self._current = _Snapshot(
            fingerprint=fingerprint,
            db=db,
            engine=self._engine.with_edb(db),
        )
        return snap

    def _snapshot(self) -> _Snapshot:
        """The snapshot for the EDB's current fingerprint."""
        with self._snapshot_lock:
            fingerprint = self.edb.fingerprint()
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
            self._serve, *self._admit(query, strategy, deadline_s))

    def query(
        self,
        query: Union[Atom, str],
        strategy: str = "auto",
        deadline_s: Optional[float] = None,
    ) -> ServiceResult:
        """One request served on the calling thread, no hand-off: what
        :meth:`submit` would serve on a worker."""
        return self._serve(*self._admit(query, strategy, deadline_s))

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
               deadline_s: Optional[float]) -> tuple:
        """Parse, number and count one request: :meth:`_serve`'s
        arguments."""
        if self._closed:
            raise RuntimeError("service is closed")
        if isinstance(query, str):
            query = self._parse(query)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        submitted = time.monotonic()
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        self.metrics.request_submitted()
        return query, strategy, deadline_s, submitted, seq

    def _attempt_budget(
        self,
        deadline_at: Optional[float],
        now: float,
    ) -> Budget:
        """The budget for one attempt, wall clock armed from ``now``."""
        base = self.config.budget
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
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return math.floor(seq * rate) > math.floor((seq - 1) * rate)

    def _serve(
        self,
        query: Atom,
        strategy: str,
        deadline_s: Optional[float],
        submitted: float,
        seq: int,
    ) -> ServiceResult:
        self.metrics.request_started()
        deadline_at = (
            submitted + deadline_s if deadline_s is not None else None
        )
        trace_id = f"req-{seq:08x}"
        sampled = self._sampled(seq)
        threshold = self.config.slow_query_threshold_s
        # A sampled request must record spans; a threshold means every
        # request might turn out slow, so every request records.  The
        # per-request tracer is private to the thread serving the
        # request (the shared MetricsTracer absorbs it afterwards),
        # which is what lets the non-thread-safe Tracer serve here.
        request_tracer = (
            Tracer(context={"trace_id": trace_id, "query": str(query)})
            if sampled or threshold is not None
            else None
        )
        # The memo disposition a slowlog record reports is the stats
        # delta across the request; only a traced request can land one.
        memo_before = (
            self.memo.stats() if request_tracer is not None else None
        )
        tracer = (
            request_tracer if request_tracer is not None
            else self.metrics.tracer
        )
        # Where the materialisation exists, ``auto`` picks it.
        viewable = (strategy == "auto"
                    and query.predicate in self._view_predicates)
        attempts = 0
        backoff = self.config.retry_backoff_s
        fingerprint: tuple = ()

        def served(status: str, strategy: str = strategy,
                   answers: frozenset = frozenset(), **fields):
            """The result of this request as of now (the last attempt's
            database state)."""
            return ServiceResult(
                query=query,
                strategy=strategy,
                status=status,
                answers=answers,
                fingerprint=fingerprint,
                latency_s=time.monotonic() - submitted,
                attempts=attempts,
                trace_id=trace_id,
                **fields,
            )

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
                            budget=self._attempt_budget(
                                deadline_at, time.monotonic()),
                            memo=self.memo.scoped(fingerprint),
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
                    out = served("error", stats=None,
                                 error=f"{type(exc).__name__}: {exc}")
                else:
                    if read is None:
                        out = served("ok", result.strategy, result.answers,
                                     stats=result.stats, result=result)
                    else:
                        fingerprint, answers = read
                        out = served(
                            "ok", "view", answers,
                            stats=EvaluationStats(strategy="view"))
            return out
        except BaseException as exc:
            # Not a typed failure: it reaches the caller (or the future),
            # and the request's accounting still closes below.
            out = served("error", stats=None,
                         error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if request_tracer is not None:
                self._absorb_trace(
                    out, request_tracer, sampled, memo_before
                )
            self._finish(out)

    def _absorb_trace(
        self,
        out: ServiceResult,
        tracer: Tracer,
        sampled: bool,
        memo_before: dict,
    ) -> None:
        """Fold a per-request trace into the aggregates; maybe slowlog it.

        The shared :class:`MetricsTracer` absorbs every span (so the
        service-lifetime counters are identical whether or not a
        request was traced), then the request lands a ``repro-slowlog/1``
        record when it was sampled or its latency reached the
        threshold.  The memo disposition is the stats delta across the
        request -- approximate under concurrency (deltas from
        overlapping requests interleave), exact when requests are
        serial, and honest either way about what the cache did.
        """
        self.metrics.tracer.absorb_tracer(tracer)
        threshold = self.config.slow_query_threshold_s
        reason: list[str] = []
        if sampled:
            reason.append("sampled")
        if threshold is not None and out.latency_s >= threshold:
            reason.append("slow")
        if not reason:
            return
        memo_after = self.memo.stats()
        memo_delta = {
            key: memo_after.get(key, 0) - memo_before.get(key, 0)
            for key in ("hits", "misses", "coalesced")
        }
        memo_delta["size"] = memo_after.get("size", 0)
        record = build_slowlog_record(
            trace_id=out.trace_id or "",
            query=str(out.query),
            strategy=out.strategy,
            status=out.status,
            reason=reason,
            latency_s=out.latency_s,
            answers=len(out.answers),
            attempts=out.attempts,
            counter_totals=work_counter_totals(tracer),
            memo=memo_delta,
            spans=sum(1 for _ in tracer.spans()),
            error=out.error,
        )
        self.slowlog_ring.append(record)
        if self._sink is not None:
            with self._sink_lock:
                self._sink.emit(record)

    def _finish(self, out: ServiceResult) -> None:
        self.metrics.request_completed(out.status, out.latency_s)
        if self._sink is not None:
            event = {
                "type": "service_request",
                "query": str(out.query),
                "strategy": out.strategy,
                "status": out.status,
                "answers": len(out.answers),
                "attempts": out.attempts,
                "latency_s": out.latency_s,
                "queue_depth": self.metrics.queue_depth,
                "limit": out.limit,
            }
            with self._sink_lock:
                self._sink.emit(event)

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
        """The most recent ``n`` slow-query records, oldest first."""
        return self.slowlog_ring.recent(n)
