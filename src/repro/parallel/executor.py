"""The parent-side worker-pool executor for parallel Separable evaluation.

One axis of parallelism, **carry partitioning**: inside one carry loop
(or the exit stage), when every join term touches the pseudo-relation
exactly once, every output row is derived from exactly one carry tuple,
so hash-partitioning the carry across workers partitions the outputs
exactly (:meth:`ParallelExecutor.apply_joins`).  The Lemma 2.1 union of
a partial selection needs no axis of its own: it runs as one seed-tagged
fixpoint (:mod:`repro.core.api`) whose carry holds every seed's tuples,
which is exactly the carry this module splits.

Pools use the explicit ``"spawn"`` start method: ``fork`` under a
threaded parent (the query service) inherits locks in unknown states,
and spawn's re-import is precisely what keeps the module-global
:data:`~repro.datalog.plan_cache.PLAN_CACHE` and ``Relation`` observers
from leaking between parent and workers.

Executors are shared process-wide through :func:`get_executor` (keyed
by :class:`ParallelConfig`) so the ~quarter-second spawn cost of a pool
is paid once per configuration, not once per query; :func:`atexit`
tears them down.  :func:`resolve_parallel` maps the public
``parallel=`` knob (``None``/``False``/``True``/int/config/executor)
onto that registry, honoring ``REPRO_PARALLEL_WORKERS``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import weakref
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

from ..budget import Budget, UNLIMITED
from ..core.plan import CARRY
from ..datalog.database import Database
from ..errors import BudgetExceeded
from ..observability import fragments as _fragments
from ..stats import EvaluationStats
from . import worker as _worker

__all__ = [
    "ENV_WORKERS",
    "ParallelConfig",
    "ParallelExecutor",
    "get_executor",
    "resolve_parallel",
    "shutdown_executors",
]

#: Environment knob consulted by ``parallel=True``.
ENV_WORKERS = "REPRO_PARALLEL_WORKERS"

#: Grace added to the caller's remaining wall budget before the
#: parent-side wait gives up on a worker.
_WAIT_GRACE_S = 0.25


@dataclass(frozen=True)
class ParallelConfig:
    """One executor configuration (also the registry key).

    ``workers <= 1`` is the in-thread fallback: the executor is a
    passthrough that never spawns a pool and every evaluation runs
    serially in the calling thread -- same code path, zero IPC.  The
    threshold keeps tiny carries, where a pickle round-trip costs more
    than the join, serial.
    """

    workers: int = 0
    #: Carry partitions per iteration (default: one per worker).
    partitions: Optional[int] = None
    #: Partition a carry only when it holds at least this many tuples.
    min_partition_tuples: int = 2048
    start_method: str = "spawn"

    @classmethod
    def eager(cls, workers: int, partitions: int = 3) -> "ParallelConfig":
        """The threshold floored so every eligible site goes parallel.

        The differential oracle and the test suites use this: corpus
        inputs are tiny, and the point there is exercising the remote
        paths, not saving wall-clock time.
        """
        return cls(
            workers=workers,
            partitions=partitions,
            min_partition_tuples=1,
        )


def _stable_hash(t: tuple) -> int:
    # Builtin ``hash`` is PYTHONHASHSEED-randomized per process; crc32
    # of the repr is stable across runs and machines, which is what
    # makes partition membership (and therefore every counter the
    # partitioned path produces) deterministic.
    return zlib.crc32(repr(t).encode())


class ParallelExecutor:
    """A spawn-based process pool specialized for Separable evaluation.

    Thread-safe: the query service calls into one executor from many
    request threads.  Databases install once per snapshot (fingerprint-
    checked token, broadcast to every worker behind a barrier) and are
    then referenced by token per task.
    """

    def __init__(self, config: ParallelConfig) -> None:
        if config.workers < 0:
            raise ValueError(f"workers must be >= 0, got {config.workers}")
        if config.start_method != "spawn":
            raise ValueError(
                "only the explicit 'spawn' start method is supported: "
                "fork under a threaded parent inherits locks in unknown "
                "states and silently shares the module-global plan cache"
            )
        self.config = config
        self._lock = threading.RLock()
        self._pool = None
        self._barrier = None
        # db -> (token, fingerprint at install); weak so the executor
        # never pins a snapshot the service's LRU dropped.
        self._tokens: "weakref.WeakKeyDictionary[Database, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        # Mirrors the workers' FIFO state registry (insertion-ordered).
        self._installed: dict[int, None] = {}
        self._next_token = 0
        self._closed = False
        # Trace stitching: one parent-clock offset per worker pid so
        # every fragment from the same worker lands on a consistent
        # timeline lane, plus a tally of fragments ever installed (the
        # bench zero-overhead gate reads its delta across untraced
        # repeats -- it must stay flat when tracer=None).
        self._clock_offsets: dict[int, float] = {}
        self._fragments_received = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def active(self) -> bool:
        """Whether remote execution is in play (vs in-thread fallback)."""
        return self.config.workers >= 2 and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("parallel executor is closed")
            if self._pool is None:
                ctx = multiprocessing.get_context(self.config.start_method)
                self._barrier = ctx.Barrier(self.config.workers)
                self._pool = ctx.Pool(
                    processes=self.config.workers,
                    initializer=_worker._init_worker,
                    initargs=(self._barrier,),
                )
            return self._pool

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    # -- database installation --------------------------------------------

    def ensure_installed(self, db: Database) -> int:
        """Broadcast ``db`` to every worker once; return its token.

        Re-broadcasts when the database mutated since the last install
        (fingerprint change mints a fresh token) or when the workers'
        FIFO registry evicted it.
        """
        with self._lock:
            fp = db.fingerprint()
            entry = self._tokens.get(db)
            if entry is not None and entry[1] == fp:
                token = entry[0]
                if token in self._installed:
                    return token
            else:
                token = self._next_token
                self._next_token += 1
                self._tokens[db] = (token, fp)
            self._install(token, db)
            return token

    def _install(self, token: int, db: Database) -> None:
        # chunksize=1 + the worker-side barrier = exactly one install
        # task lands on each worker; see _worker._install_task.
        pool = self._ensure_pool()
        pool.map(
            _worker._install_task,
            [(token, db)] * self.config.workers,
            chunksize=1,
        )
        self._installed[token] = None
        while len(self._installed) > _worker.STATE_SLOTS:
            del self._installed[next(iter(self._installed))]

    def _forget(self, token: int) -> None:
        with self._lock:
            self._installed.pop(token, None)

    # -- waiting -----------------------------------------------------------

    def _wait(self, async_result, remaining: Optional[float]):
        """Collect one task result, enforcing the caller's wall budget.

        A partition task is one round's share of joins and carries no
        budget of its own (the loop's checks run here, in the parent,
        between rounds); the timeout is the backstop for a worker that
        stalls outright.  The abandoned task keeps running in its worker
        until it finishes (its result is discarded), but the pool itself
        stays healthy -- "deadline fires even when a worker stalls" is
        exactly this path.
        """
        if remaining is None:
            return async_result.get()
        try:
            return async_result.get(timeout=max(remaining, 0.0)
                                    + _WAIT_GRACE_S)
        except multiprocessing.TimeoutError:
            raise BudgetExceeded(
                f"wall clock budget exhausted after waiting "
                f"{max(remaining, 0.0):.3f}s for a parallel worker "
                f"(the worker task was abandoned, the pool stays up)",
                limit="wall_clock",
            ) from None

    # -- trace stitching ---------------------------------------------------

    @property
    def fragments_received(self) -> int:
        """How many trace fragments this executor has ever installed."""
        with self._lock:
            return self._fragments_received

    def _anchor_for(self, fragment) -> float:
        """Parent-clock anchor for a fragment, stable per worker pid.

        The first fragment from a pid fixes that worker's clock offset
        ("the fragment ended when its result arrived"); later fragments
        from the same pid reuse it, so spans on one worker's lane keep
        their true relative spacing and never overlap -- a pool worker
        runs its tasks sequentially.
        """
        recv = (
            fragment.recv_s
            if fragment.recv_s is not None
            else time.perf_counter()
        )
        with self._lock:
            offset = self._clock_offsets.get(fragment.pid)
            if offset is None:
                offset = recv - (fragment.origin_s + fragment.extent_s)
                self._clock_offsets[fragment.pid] = offset
        return fragment.origin_s + offset

    def install_fragment(self, tracer, fragment, **attrs):
        """Stitch one shipped fragment into the parent tracer.

        Must run on the thread that owns ``tracer``.  Dispatches to
        :func:`repro.observability.fragments.install_fragment` with a
        per-pid clock anchor; metrics facades absorb aggregates
        instead.  Returns the host span (or ``None``).
        """
        if fragment is None or tracer is None:
            return None
        with self._lock:
            self._fragments_received += 1
        return _fragments.install_fragment(
            tracer,
            fragment,
            anchor_s=self._anchor_for(fragment),
            **attrs,
        )

    # -- carry partitioning ------------------------------------------------

    def should_partition(self, joins, carry_size: int,
                         pseudo: str = CARRY) -> bool:
        """Is this union-of-joins iteration safely partitionable?

        Requires every join body to touch the carry pseudo-relation
        exactly once: then each output row consumes exactly one carry
        tuple, so disjoint carry partitions produce disjoint (exact)
        output shares.  Zero mentions would duplicate the join's full
        output per partition; two would need a cross-partition product.
        """
        if not self.active:
            return False
        if carry_size < max(self.config.min_partition_tuples, 2):
            return False
        joins = tuple(joins)
        if not joins:
            return False
        for join in joins:
            mentions = sum(
                1 for atom in join.body if atom.predicate == pseudo
            )
            if mentions != 1:
                return False
        return True

    def partition(self, tuples_: Iterable[tuple]) -> list[list[tuple]]:
        """Deterministic hash partitions (empty shares dropped)."""
        k = self.config.partitions or self.config.workers
        parts: list[list[tuple]] = [[] for _ in range(k)]
        for t in tuples_:
            parts[_stable_hash(t) % k].append(t)
        return [p for p in parts if p]

    def apply_joins(
        self,
        db: Database,
        joins,
        carry: Iterable[tuple],
        arity: int,
        pseudo: str,
        stats: Optional[EvaluationStats],
        order: str,
        budget: Budget = UNLIMITED,
        tracer=None,
        label: Optional[str] = None,
    ) -> set[tuple]:
        """One partitioned union-of-joins iteration, merged in the parent.

        Matches the serial ``_apply_joins`` contract: same produced
        set, same ``tuples_produced`` total (partitions are exact), and
        the same ``rule_apps:``/``rule_out:`` tracer attribution -- the
        per-join output sets come back split so the parent can replay
        the dedup-in-join-order accounting.
        """
        joins = tuple(joins)
        parts = self.partition(carry)
        remaining = budget.remaining_seconds()
        trace = tracer is not None
        results = None
        for attempt in (0, 1):
            token = self.ensure_installed(db)
            pool = self._ensure_pool()
            pending = [
                pool.apply_async(
                    _worker._apply_joins_task,
                    ((token, joins, pseudo, arity, tuple(part), order,
                      trace),),
                )
                for part in parts
            ]
            try:
                results = [self._wait(a, remaining) for a in pending]
                break
            except _worker.WorkerStateMissing:
                if attempt:
                    raise
                self._forget(token)
        recv = time.perf_counter()
        produced: set[tuple] = set()
        for ji in range(len(joins)):
            before = len(produced)
            for per_join, _, _ in results:
                produced |= per_join[ji]
            if tracer is not None and label is not None:
                tracer.count(f"rule_apps:{label}#{ji}")
                out = len(produced) - before
                if out:
                    tracer.count(f"rule_out:{label}#{ji}", out)
        if stats is not None:
            for _, worker_stats, _ in results:
                stats.merge(worker_stats)
        if trace:
            # apply_joins runs on the thread that owns the tracer, and
            # the carry-loop span is still open -- fragments nest as
            # its children, one lane host per shipped partition.
            for pi, (_, _, fragment) in enumerate(results):
                if fragment is not None:
                    if fragment.recv_s is None:
                        fragment.recv_s = recv
                    self.install_fragment(
                        tracer, fragment, task="partition", index=pi
                    )
        return produced

    # -- introspection and fault injection ---------------------------------

    def probe(self) -> list[dict]:
        """One state report per worker (see ``_worker._probe_task``)."""
        pool = self._ensure_pool()
        with self._lock:
            return pool.map(
                _worker._probe_task,
                [None] * self.config.workers,
                chunksize=1,
            )

    def debug_call(self, fn, args, timeout: Optional[float] = None):
        """Run one raw worker task (fault-injection test hook)."""
        result = self._ensure_pool().apply_async(fn, (args,))
        return result.get(timeout) if timeout else result.get()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "live" if self._pool is not None else "cold"
        )
        return f"ParallelExecutor(workers={self.config.workers}, {state})"


# -- the shared registry -----------------------------------------------------

_REGISTRY: dict[ParallelConfig, ParallelExecutor] = {}
_REGISTRY_LOCK = threading.Lock()


def get_executor(spec) -> ParallelExecutor:
    """The process-wide shared executor for a config (or worker count)."""
    if isinstance(spec, ParallelExecutor):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        spec = ParallelConfig(workers=spec)
    if not isinstance(spec, ParallelConfig):
        raise TypeError(
            f"expected ParallelConfig, int, or ParallelExecutor; "
            f"got {spec!r}"
        )
    with _REGISTRY_LOCK:
        executor = _REGISTRY.get(spec)
        if executor is None or executor.closed:
            executor = ParallelExecutor(spec)
            _REGISTRY[spec] = executor
        return executor


def shutdown_executors() -> None:
    """Close every registry executor (atexit; also test teardown)."""
    with _REGISTRY_LOCK:
        for executor in _REGISTRY.values():
            executor.close()
        _REGISTRY.clear()


atexit.register(shutdown_executors)


def resolve_parallel(parallel) -> Optional[ParallelExecutor]:
    """Map the public ``parallel=`` knob onto an executor (or None).

    ``None``/``False``/``0`` mean serial.  ``True`` reads
    ``REPRO_PARALLEL_WORKERS`` (falling back to ``os.cpu_count()``).
    An ``int`` asks for a shared pool of that size, a
    :class:`ParallelConfig` for a shared pool with those thresholds,
    and a :class:`ParallelExecutor` is used as-is.  A resolved executor
    with fewer than two workers is the documented in-thread fallback:
    callers keep it but every ``should_partition`` check says
    no, so evaluation stays in the calling thread.
    """
    if parallel is None or parallel is False:
        return None
    if parallel is True:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        workers = int(raw) if raw else (os.cpu_count() or 1)
        if workers <= 0:
            return None
        return get_executor(ParallelConfig(workers=workers))
    if isinstance(parallel, bool):  # pragma: no cover - handled above
        return None
    if isinstance(parallel, int):
        if parallel <= 0:
            return None
        return get_executor(ParallelConfig(workers=parallel))
    if isinstance(parallel, (ParallelConfig, ParallelExecutor)):
        return get_executor(parallel)
    raise TypeError(
        f"parallel must be None, a bool, an int worker count, a "
        f"ParallelConfig, or a ParallelExecutor; got {parallel!r}"
    )
