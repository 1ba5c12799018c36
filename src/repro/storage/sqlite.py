"""Out-of-core relation storage over stdlib :mod:`sqlite3`.

Each :class:`SQLiteRelation` is one table.  Without a path the table
lives in a *private temporary database* (``sqlite3.connect("")``),
which SQLite spills to disk under memory pressure and deletes on
close -- that is the out-of-core mode the ROADMAP asks for: relations
no longer need to fit in RAM.  With a path (``--backend
sqlite:<path>``, or the same spec anywhere a backend is named) all
relations share one durable WAL-mode database file, and
:meth:`SQLiteRelation.snapshot` returns a *read-only connection*
pinned to the current WAL state instead of copying tuples.  A
temporary-mode snapshot is one frozen copy that owns its rows: it
rejects every mutator but still creates its SQL indexes lazily, and it
is handed on unchanged to the next snapshot for as long as the
relation is unwritten -- rows, connection, prepared statements, indexes.

The protocol mapping:

- secondary indexes -> ``CREATE INDEX`` (lazily, on first ``lookup``
  per column subset, mirroring the in-memory backend's tracer
  accounting); ``lookup_projected`` is ``SELECT <cols>`` over the same
  index, and a probe's SQL is text once per ``(positions, cols)``;
- ``add_all`` / ``discard_all`` -> ``executemany`` inside one
  transaction (falling back to per-row statements only when observers
  need per-fact effectiveness);
- ``column_distinct_counts`` / ``distinct_values`` -> SQL aggregates
  feeding the PR 9 planner;
- ``sample`` -> computed Python-side with the same crc32-minwise rule
  as the in-memory backend, so sampled containment estimates are
  byte-identical across backends.

Facts are tuples of ints and strings; SQLite's dynamic typing stores
both losslessly in untyped columns (and, like Python, never equates
``1`` with ``"1"``), so tuples round-trip exactly.
"""

from __future__ import annotations

import heapq
import sqlite3
import threading
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import ArityError, ReproError

__all__ = ["SQLiteBackend", "SQLiteRelation", "ReadOnlyRelationError"]

Fact = tuple


class ReadOnlyRelationError(ReproError):
    """Mutation attempted on a read-only snapshot relation."""


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class SQLiteRelation:
    """One relation stored as a SQLite table.

    Implements the full ``RelationStorage`` protocol (see
    :mod:`repro.storage.protocol`) with the exact version/observer/cache
    semantics of the in-memory :class:`~repro.datalog.database.Relation`.
    Connections are opened with ``check_same_thread=False`` and guarded
    by an :class:`threading.RLock`, matching the service's
    one-writer/many-snapshot-readers usage.
    """

    def __init__(self, name: str, arity: int, tuples: Iterable[Fact] = (),
                 *, path: str | None = None) -> None:
        self.name = name
        self.arity = arity
        self._path = str(path) if path is not None else None
        self._readonly = False
        self._version = 0
        self._observers: tuple = ()
        self._indexed: set[tuple[int, ...]] = set()
        #: ``(positions, cols) -> SELECT text``; ``cols=None`` is ``lookup``.
        self._probes: dict[tuple, str] = {}
        self._len_cache: tuple[int, int] | None = None
        self._distinct_cache = None
        self._col_distinct_cache = None
        self._sample_cache = None
        self._lock = threading.RLock()
        self._table = _quote("rel_" + name)
        self._columns = [f"c{i}" for i in range(arity)] or ["c0"]
        self._conn = self._connect_rw()
        self._create_table()
        if tuples:
            self.add_all(tuples)

    # -- connection / schema -----------------------------------------------

    def _connect_rw(self) -> sqlite3.Connection:
        # "" is a private temporary on-disk database: invisible to other
        # connections, spilled out of core by SQLite itself, deleted on
        # close.  A real path is a shared durable file in WAL mode, which
        # is what makes read-only snapshot connections possible.
        conn = sqlite3.connect(self._path or "", check_same_thread=False,
                               isolation_level=None)
        self._wal = False
        if self._path is not None:
            row = conn.execute("PRAGMA journal_mode=WAL").fetchone()
            self._wal = bool(row) and str(row[0]).lower() == "wal"
            conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _create_table(self) -> None:
        cols = ", ".join(self._columns)
        pk = ", ".join(self._columns)
        with self._lock:
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {self._table} "
                f"({cols}, PRIMARY KEY ({pk})) WITHOUT ROWID"
            )
            if self._path is not None:
                # Durable files record each relation's name and arity
                # so reopening the file can remount every relation
                # (the column count alone cannot distinguish arity 0
                # from arity 1 -- both store one column).
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS repro_schema "
                    "(name TEXT PRIMARY KEY, arity INTEGER)"
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO repro_schema VALUES (?, ?)",
                    (self.name, self.arity),
                )

    def _row(self, fact: Fact) -> tuple:
        # Arity-0 relations hold at most the empty tuple; it is stored
        # as a single sentinel row so SQL set semantics still apply.
        return (0,) if self.arity == 0 else fact

    def _fact(self, row: tuple) -> Fact:
        return () if self.arity == 0 else tuple(row)

    def _check(self, fact) -> Fact:
        fact = tuple(fact)
        if len(fact) != self.arity:
            raise ArityError(
                f"relation {self.name} has arity {self.arity}, "
                f"got tuple of length {len(fact)}: {fact!r}"
            )
        return fact

    def _check_writable(self) -> None:
        if self._readonly:
            raise ReadOnlyRelationError(
                f"relation {self.name} is a read-only snapshot"
            )

    @property
    def _where(self) -> str:
        return " AND ".join(f"{c} = ?" for c in self._columns)

    # -- observation -------------------------------------------------------

    def observe(self, callback) -> None:
        if callback not in self._observers:
            self._observers = self._observers + (callback,)

    def unobserve(self, callback) -> None:
        self._observers = tuple(
            cb for cb in self._observers if cb != callback
        )

    @property
    def version(self) -> int:
        return self._version

    # -- mutation ---------------------------------------------------------

    def add(self, fact: Fact) -> bool:
        fact = self._check(fact)
        self._check_writable()
        with self._lock:
            cur = self._conn.execute(
                f"INSERT OR IGNORE INTO {self._table} VALUES "
                f"({', '.join('?' for _ in self._columns)})",
                self._row(fact),
            )
            if cur.rowcount != 1:
                return False
            self._version += 1
        for cb in self._observers:
            cb(self, fact, 1)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        self._check_writable()
        rows = [self._row(self._check(f)) for f in facts]
        if not rows:
            return 0
        placeholders = ", ".join("?" for _ in self._columns)
        sql = f"INSERT OR IGNORE INTO {self._table} VALUES ({placeholders})"
        new: list[Fact] = []
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                if self._observers:
                    # Per-fact effectiveness is needed for the observer
                    # fan-out; still one transaction.
                    for row in rows:
                        if self._conn.execute(sql, row).rowcount == 1:
                            new.append(self._fact(row))
                    count = len(new)
                else:
                    before = self._conn.total_changes
                    self._conn.executemany(sql, rows)
                    count = self._conn.total_changes - before
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            self._version += count
        for fact in new:
            for cb in self._observers:
                cb(self, fact, 1)
        return count

    def discard(self, fact: Fact) -> bool:
        fact = self._check(fact)
        self._check_writable()
        with self._lock:
            cur = self._conn.execute(
                f"DELETE FROM {self._table} WHERE {self._where}",
                self._row(fact),
            )
            if cur.rowcount != 1:
                return False
            self._version += 1
        for cb in self._observers:
            cb(self, fact, -1)
        return True

    def discard_all(self, facts: Iterable[Fact]) -> int:
        self._check_writable()
        rows = [self._row(self._check(f)) for f in facts]
        if not rows:
            return 0
        sql = f"DELETE FROM {self._table} WHERE {self._where}"
        removed: list[Fact] = []
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                if self._observers:
                    for row in rows:
                        if self._conn.execute(sql, row).rowcount == 1:
                            removed.append(self._fact(row))
                    count = len(removed)
                else:
                    before = self._conn.total_changes
                    self._conn.executemany(sql, rows)
                    count = self._conn.total_changes - before
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
            self._version += count
        for fact in removed:
            for cb in self._observers:
                cb(self, fact, -1)
        return count

    def clear(self) -> None:
        self._check_writable()
        with self._lock:
            self._conn.execute(f"DELETE FROM {self._table}")
            for positions in self._indexed:
                self._conn.execute(
                    f"DROP INDEX IF EXISTS {self._index_name(positions)}"
                )
            self._indexed.clear()
            self._probes.clear()
            self._version += 1
        for cb in self._observers:
            cb(self, None, 0)

    # -- queries ----------------------------------------------------------

    def __contains__(self, fact: Fact) -> bool:
        fact = self._check(fact)
        with self._lock:
            row = self._conn.execute(
                f"SELECT 1 FROM {self._table} WHERE {self._where} LIMIT 1",
                self._row(fact),
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        cached = self._len_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        with self._lock:
            (n,) = self._conn.execute(
                f"SELECT COUNT(*) FROM {self._table}"
            ).fetchone()
        self._len_cache = (self._version, n)
        return n

    def __bool__(self) -> bool:
        return len(self) > 0

    def _all_rows(self) -> list:
        cols = ", ".join(self._columns)
        with self._lock:
            return self._conn.execute(
                f"SELECT {cols} FROM {self._table}"
            ).fetchall()

    def __iter__(self) -> Iterator[Fact]:
        # fetchall up front so callers may mutate while iterating, just
        # as iterating a set copy would allow.
        return iter([self._fact(r) for r in self._all_rows()])

    def tuples(self) -> frozenset:
        return frozenset(self)

    def _index_name(self, positions: tuple[int, ...]) -> str:
        suffix = "_".join(str(p) for p in positions)
        return _quote(f"idx_rel_{self.name}_{suffix}")

    def lookup(self, positions: tuple[int, ...], key: tuple,
               tracer=None) -> list[Fact]:
        rows = self._select(positions, None, key, tracer)
        return rows if self.arity else [() for _ in rows]

    def lookup_projected(self, positions: tuple[int, ...],
                         cols: tuple[int, ...], key: tuple,
                         tracer=None) -> set[Fact]:
        """The ``cols`` columns of ``lookup(positions, key)``, selected
        by SQLite over the same lazily created index (injective
        projections only, as on the in-memory backend)."""
        rows = self._select(positions, cols, key, tracer)
        return set(rows) if cols else {() for _ in rows}

    def _select(self, positions: tuple[int, ...], cols, key: tuple,
                tracer) -> list:
        """The ``cols`` columns (``None``: all) of the rows matching
        ``key`` on ``positions``: a counted full scan without any,
        otherwise over an index created on first use."""
        sql = self._probes.get((positions, cols))
        if sql is None:
            sql = self._probes[positions, cols] = \
                self._prepare(positions, cols, tracer)
        if not positions and tracer is not None:
            tracer.count("full_scans")
        with self._lock:
            return self._conn.execute(sql, tuple(key)).fetchall()

    def _prepare(self, positions: tuple[int, ...], cols, tracer) -> str:
        """The text of one probe, its index ensured: built once per
        ``(positions, cols)`` and kept until :meth:`clear`.  A snapshot
        that owns its rows (temporary mode) indexes them like any
        relation; a ``mode=ro`` WAL connection cannot, and reads through
        whatever indexes the live connection had made."""
        if cols is None:
            select = ", ".join(self._columns)
        elif len({*positions, *cols}) != self.arity:
            raise ValueError(
                f"columns {cols} of {self.name}/{self.arity} keyed on "
                f"{positions} do not determine the fact"
            )
        else:
            # No column to select (all keyed, or arity 0): a 0 per row.
            select = ", ".join(self._columns[c] for c in cols) or "0"
        keyed = [self._columns[p] for p in positions]
        with self._lock:
            if positions and positions not in self._indexed \
                    and not (self._readonly and self._wal):
                self._conn.execute(
                    f"CREATE INDEX IF NOT EXISTS {self._index_name(positions)}"
                    f" ON {self._table} ({', '.join(keyed)})"
                )
                self._indexed.add(positions)
                if tracer is not None:
                    tracer.count("index_builds")
                    tracer.count("index_tuples", len(self))
        where = " AND ".join(f"{c} = ?" for c in keyed)
        return (f"SELECT {select} FROM {self._table}"
                + (f" WHERE {where}" if where else ""))

    # -- planner statistics -------------------------------------------------

    def distinct_values(self) -> frozenset:
        cached = self._distinct_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if self.arity == 0:
            frozen = frozenset()
        else:
            union = " UNION ".join(
                f"SELECT DISTINCT {c} AS v FROM {self._table}"
                for c in self._columns
            )
            with self._lock:
                rows = self._conn.execute(union).fetchall()
            frozen = frozenset(r[0] for r in rows)
        self._distinct_cache = (self._version, frozen)
        return frozen

    def column_distinct_counts(self) -> tuple[int, ...]:
        cached = self._col_distinct_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if self.arity == 0:
            counts: tuple[int, ...] = ()
        else:
            selects = ", ".join(
                f"COUNT(DISTINCT {c})" for c in self._columns
            )
            with self._lock:
                counts = tuple(self._conn.execute(
                    f"SELECT {selects} FROM {self._table}"
                ).fetchone())
        self._col_distinct_cache = (self._version, counts)
        return counts

    def sample(self, k: int = 32) -> tuple[Fact, ...]:
        # Same crc32-minwise rule as the in-memory backend -- the
        # planner's sampled containment estimates must not depend on
        # where the tuples live.
        cached = self._sample_cache
        if cached is not None and cached[0] == self._version \
                and cached[1] == k:
            return cached[2]
        facts = [self._fact(r) for r in self._all_rows()]
        if len(facts) <= k:
            sampled = tuple(sorted(facts, key=repr))
        else:
            sampled = tuple(heapq.nsmallest(
                k, facts,
                key=lambda t: (zlib.crc32(repr(t).encode()), repr(t)),
            ))
        self._sample_cache = (self._version, k, sampled)
        return sampled

    # -- copies and snapshots ----------------------------------------------

    def copy(self) -> "SQLiteRelation":
        """A private writable copy in a fresh temporary database."""
        return SQLiteRelation(self.name, self.arity, self)

    def snapshot(self, previous=None) -> "SQLiteRelation":
        """A stable read view of the current contents.

        On a durable WAL database this opens a read-only connection and
        pins it with an open read transaction: later commits on the
        live connection are invisible to it, and no tuples are copied.
        It is re-pinned per snapshot -- a shared one would hold its read
        transaction, and so every checkpoint, back for as long as the
        relation stays unwritten.  Temporary-database relations (private
        by construction) fall back to a frozen copy, and ``previous`` --
        the last snapshot of this relation -- *is* that copy while the
        version has not moved.
        """
        if not (self._path is not None and self._wal):
            if (previous is not None and previous.arity == self.arity
                    and previous.version == self._version):
                return previous
            snap = self.copy()
            snap._readonly = True
            snap._version = self._version
            return snap
        snap = object.__new__(SQLiteRelation)
        # Same table, version and (version-checked) caches; its own
        # lock, probe texts and view of which indexes exist.
        snap.__dict__.update(
            self.__dict__, _readonly=True, _observers=(), _probes={},
            _indexed=set(self._indexed), _lock=threading.RLock())
        uri = Path(self._path).resolve().as_uri() + "?mode=ro"
        snap._conn = sqlite3.connect(uri, uri=True, check_same_thread=False,
                                     isolation_level=None)
        # An open read transaction pins this connection to the current
        # WAL state; the touching SELECT is what actually starts it.
        snap._conn.execute("BEGIN")
        snap._conn.execute(
            f"SELECT COUNT(*) FROM {snap._table}"
        ).fetchone()
        return snap

    def close(self) -> None:
        """Release the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    def __repr__(self) -> str:
        where = self._path or "temp"
        mode = " ro" if self._readonly else ""
        return (f"SQLiteRelation({self.name}/{self.arity}, "
                f"{len(self)} tuples, {where}{mode})")


class SQLiteBackend:
    """Factory for :class:`SQLiteRelation` storages.

    ``path=None`` (the default) gives every relation its own private
    temporary database -- the out-of-core mode.  A path makes all
    relations share one durable WAL file, which is what ``serve
    --backend sqlite:<path>`` uses; :meth:`scratch` then hands
    evaluator copies a temporary-mode twin so derived relations never
    touch the shared file.
    """

    name = "sqlite"

    def __init__(self, path: str | None = None) -> None:
        self.path = str(path) if path else None

    def make_relation(self, name: str, arity: int,
                      tuples: Iterable[Fact] = ()) -> SQLiteRelation:
        return SQLiteRelation(name, arity, tuples, path=self.path)

    def scratch(self) -> "SQLiteBackend":
        return self if self.path is None else SQLiteBackend()

    def existing_relations(self) -> list[tuple[str, int]]:
        """``(name, arity)`` for every relation recorded in the file.

        Empty for temporary-mode backends and for files no relation
        was ever created in.
        """
        if self.path is None:
            return []
        conn = sqlite3.connect(self.path)
        try:
            row = conn.execute(
                "SELECT 1 FROM sqlite_master "
                "WHERE type = 'table' AND name = 'repro_schema'"
            ).fetchone()
            if row is None:
                return []
            return [
                (name, arity) for name, arity in conn.execute(
                    "SELECT name, arity FROM repro_schema ORDER BY name"
                )
            ]
        finally:
            conn.close()

    def __repr__(self) -> str:
        return f"SQLiteBackend(path={self.path!r})"
