"""Parallel evaluation of the Figure 2 loops by carry partitioning.

Within one carry/seen loop (and the exit stage) the carry relation
hash-partitions exactly whenever every join term consumes it exactly
once; the seed-tagged batch that evaluates a Lemma 2.1 union puts every
seed's tuples into that one carry.  This package holds
the spawn-based pool (:mod:`~repro.parallel.executor`), the picklable
task functions that run inside workers (:mod:`~repro.parallel.worker`),
and :func:`resolve_parallel`, the front door behind
``Engine.query(parallel=...)`` and ``ServiceConfig.parallel``.

See ``docs/parallelism.md`` for the design, the determinism argument,
and when the in-thread fallback triggers.
"""

from .executor import (
    ENV_WORKERS,
    ParallelConfig,
    ParallelExecutor,
    get_executor,
    resolve_parallel,
    shutdown_executors,
)
from .worker import WorkerStateMissing

__all__ = [
    "ENV_WORKERS",
    "ParallelConfig",
    "ParallelExecutor",
    "WorkerStateMissing",
    "get_executor",
    "resolve_parallel",
    "shutdown_executors",
]
