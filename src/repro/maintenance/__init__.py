"""Incremental view maintenance: a materialized IDB kept under writes.

:class:`MaintainedView` repairs a materialized IDB under net
per-relation insert/delete sets -- counting-based insert maintenance
through a delta-seeded semi-naive restart, DRed-style delete/rederive
for deletions -- instead of re-running the fixpoint from scratch.  The
service takes those sets from the EDB's write log: the rows moved since
the view last caught up (:meth:`repro.datalog.database.Database.changes`).
See ``docs/incremental.md``
for the algorithm and its limits.
"""

from .view import MaintainedView

__all__ = ["MaintainedView"]
