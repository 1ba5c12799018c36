"""Task functions executed inside pool worker processes.

Everything here is module-level because "spawn" workers re-import this
module by qualified name; every argument and return value is picklable.
Each worker keeps a small FIFO registry of installed databases keyed by
parent-assigned tokens, so a (possibly large) snapshot crosses the
process boundary once per install broadcast, not once per task.  The
parent mirrors the FIFO eviction policy; a task that names an evicted
token raises :class:`WorkerStateMissing` and the parent reinstalls and
retries once.

Workers deliberately share *nothing* else with the parent: "spawn"
re-imports the package, so the module-global
:data:`~repro.datalog.plan_cache.PLAN_CACHE` starts empty per process
(per-process plan warmup), and :meth:`Database.__setstate__` restores
no observers -- the isolation the regression tests in
``tests/parallel/`` pin down.
"""

from __future__ import annotations

import os
import time

from ..core.evaluator import _with_pseudo
from ..datalog.database import Database, Relation
from ..datalog.joins import evaluate_body_into
from ..errors import EvaluationError
from ..observability.fragments import capture_fragment
from ..observability.tracer import Tracer
from ..stats import EvaluationStats

__all__ = ["STATE_SLOTS", "WorkerStateMissing"]

#: How many installed databases a worker retains (FIFO by install
#: order; the parent mirrors this so evictions stay in lockstep).
STATE_SLOTS = 4

#: Broadcast rendezvous: generous, but bounded so a dead worker turns
#: into a BrokenBarrierError instead of a silent hang.
_BARRIER_TIMEOUT_S = 120.0

_BARRIER = None
_STATE: dict[int, Database] = {}
_STATE_ORDER: list[int] = []


class WorkerStateMissing(EvaluationError):
    """A task referenced a database token this worker no longer holds."""

    def __init__(self, token: int) -> None:
        self.token = token
        super().__init__(
            f"worker {os.getpid()} holds no database for token {token}"
        )

    def __reduce__(self):
        # Default Exception pickling replays ``args`` (the message
        # string) into ``__init__``, which expects the token.
        return (WorkerStateMissing, (self.token,))


def _init_worker(barrier) -> None:
    """Pool initializer: stash the install-broadcast barrier."""
    global _BARRIER
    _BARRIER = barrier


def _database_for(token: int) -> Database:
    db = _STATE.get(token)
    if db is None:
        raise WorkerStateMissing(token)
    return db


def _install_task(args) -> int:
    """Install one database under a token (barrier-broadcast).

    The parent maps one of these per worker with ``chunksize=1``; each
    worker blocks on the barrier until every worker holds exactly one
    install task, which is what guarantees the broadcast reaches all of
    them instead of one worker draining the whole batch.
    """
    token, db = args
    if _BARRIER is not None:
        _BARRIER.wait(timeout=_BARRIER_TIMEOUT_S)
    _STATE[token] = db
    _STATE_ORDER.append(token)
    while len(_STATE_ORDER) > STATE_SLOTS:
        _STATE.pop(_STATE_ORDER.pop(0), None)
    return os.getpid()


def _apply_joins_task(args):
    """One carry partition's share of a union-of-joins iteration.

    Returns ``(per-join output frozensets, worker EvaluationStats,
    fragment)``.  The per-join split lets the parent replay the serial
    evaluator's dedup-in-join-order accounting exactly (``rule_out:``
    counters), while the stats carry the raw produced/examined counts,
    which sum to the serial totals because every output row uses
    exactly one carry tuple and the partitions are disjoint.

    Under ``trace`` the join work runs inside a per-task tracer span
    (shipped home as a fragment); the worker records *no* per-rule
    counters -- the parent's replay in ``ParallelExecutor.apply_joins``
    stays the single source of ``rule_apps:``/``rule_out:`` truth, so
    stitched totals never double-count.
    """
    token, joins, pseudo, arity, part, order, trace = args
    db = _database_for(token)
    view = _with_pseudo(db, pseudo, Relation(pseudo, arity, part))
    stats = EvaluationStats()
    tracer = Tracer() if trace else None
    per_join: list[frozenset] = []

    def run() -> None:
        for join in joins:
            out: set[tuple] = set()
            evaluate_body_into(view, join.body, join.output, out,
                               stats=stats, order=order, tracer=tracer)
            per_join.append(frozenset(out))

    if tracer is None:
        run()
        return per_join, stats, None
    with tracer.span(
        "worker.partition", pseudo=pseudo, tuples=len(part)
    ):
        run()
    return per_join, stats, capture_fragment(tracer, pid=os.getpid())


def _probe_task(args) -> dict:
    """Report this worker's private state (barrier-broadcast).

    The isolation regression tests assert on this: the worker's
    module-global plan cache is its own (fresh under "spawn" until the
    worker itself compiles something), and installed relations carry no
    observers across the pickle.
    """
    del args
    if _BARRIER is not None:
        _BARRIER.wait(timeout=_BARRIER_TIMEOUT_S)
    from ..datalog.plan_cache import PLAN_CACHE

    observer_counts: dict[int, int] = {}
    for token in _STATE_ORDER:
        db = _STATE[token]
        observer_counts[token] = sum(
            len(db.relation(name)._observers) for name in db.predicates()
        )
    return {
        "pid": os.getpid(),
        "plan_cache": PLAN_CACHE.stats(),
        "installed_tokens": list(_STATE_ORDER),
        "relation_observers": observer_counts,
    }


def _sleep_task(args) -> float:
    """Test hook: a worker that stalls, ignoring every budget."""
    (seconds,) = args
    time.sleep(seconds)
    return seconds


def _raise_task(args):
    """Test hook: a worker that fails with an arbitrary exception."""
    exc_type, message = args
    raise exc_type(message)
