"""Incremental view maintenance: a materialized IDB kept under writes.

:class:`MaintainedView` repairs a materialized IDB under net
per-relation insert/delete sets -- counting-based insert maintenance
through a delta-seeded semi-naive restart, DRed-style delete/rederive
for deletions -- instead of re-running the fixpoint from scratch.  The
service takes those sets as the difference between the view's own copy
of each written relation and the live one
(:func:`repro.datalog.database.difference`).  See ``docs/incremental.md``
for the algorithm and its limits.
"""

from .view import MaintainedView

__all__ = ["MaintainedView"]
