"""Pluggable relation storage backends.

The protocol and the in-memory reference backend live in
:mod:`repro.storage.protocol`; the out-of-core SQLite backend in
:mod:`repro.storage.sqlite`.  :func:`resolve_backend` turns CLI-level
specs into backend objects and :func:`ensure_backend` migrates a
database onto one (a no-op when it is already there), which is what
``Engine(backend=)``, ``ServiceConfig(backend=)`` and the ``--backend``
flags call.

Backend specs:

- ``None`` / ``"memory"`` -- the in-memory hash-indexed default;
- ``"sqlite"`` -- out-of-core: each relation in a private temporary
  SQLite database that spills to disk;
- ``"sqlite:<path>"`` -- durable: all relations share one WAL-mode
  database file at ``<path>``;
- any object implementing the :class:`StorageBackend` protocol.
"""

from __future__ import annotations

from .protocol import MemoryBackend, RelationStorage, StorageBackend
from .sqlite import ReadOnlyRelationError, SQLiteBackend, SQLiteRelation

__all__ = [
    "BACKENDS",
    "MemoryBackend",
    "ReadOnlyRelationError",
    "RelationStorage",
    "SQLiteBackend",
    "SQLiteRelation",
    "StorageBackend",
    "ensure_backend",
    "resolve_backend",
]

BACKENDS = ("memory", "sqlite")


def resolve_backend(spec):
    """Turn a backend spec (see module docstring) into a backend object."""
    if spec is None or spec == "memory":
        return MemoryBackend()
    if isinstance(spec, str):
        if spec == "sqlite":
            return SQLiteBackend()
        if spec.startswith("sqlite:"):
            return SQLiteBackend(spec.split(":", 1)[1] or None)
        raise ValueError(
            f"unknown storage backend {spec!r} "
            f"(expected one of {', '.join(BACKENDS)} or 'sqlite:<path>')"
        )
    if isinstance(spec, StorageBackend):
        return spec
    raise ValueError(f"not a storage backend: {spec!r}")


def ensure_backend(db, spec):
    """``db`` migrated onto the backend ``spec`` resolves to.

    Returns ``db`` unchanged when it already uses a backend of the same
    name and the target is not path-qualified -- in particular,
    ``--backend memory`` on an ordinary in-memory database is free.  A
    durable (path-qualified) SQLite spec always migrates, moving the
    facts into the shared file.
    """
    backend = resolve_backend(spec)
    if backend.name == db.backend_name \
            and getattr(backend, "path", None) is None:
        return db
    if backend.name == "memory":
        return db.with_backend(None)
    out = db.with_backend(backend)
    for name, arity in getattr(backend, "existing_relations", list)():
        # Durable file: remount relations from earlier sessions that
        # the incoming database does not mention (a relation opens its
        # existing table).  Relations it does mention were already
        # merged into the file tables above.
        out.ensure(name, arity)
    return out
