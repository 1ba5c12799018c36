"""In-memory extensional storage: relations with lazy hash indexes.

Tuples are stored as plain Python tuples of constant *values* (strings or
ints), not wrapped :class:`~repro.datalog.terms.Constant` objects; the
evaluators convert at the boundary.  Each relation builds hash indexes on
demand for whatever column subsets the joins probe, which is what makes
the "touch only tuples along a path from the constant" behaviour of the
Separable algorithm (Section 3.2 of the paper) observable in wall-clock
time and not just in relation sizes.

:class:`Relation` is the reference implementation of the
``RelationStorage`` protocol (see :mod:`repro.storage`); alternative
backends -- e.g. the out-of-core SQLite one -- implement the same
mutation/lookup/version/stats surface and plug into
:class:`Database` via its ``backend`` parameter.
"""

from __future__ import annotations

import heapq
import zlib
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .atoms import Atom
from .errors import ArityError
from .terms import Constant, ConstValue

__all__ = ["Relation", "Database"]

Fact = tuple  # tuple[ConstValue, ...]


class Clock:
    """A database's state number, ``now`` (:meth:`Database.fingerprint`),
    and, once :meth:`start`-ed, its write log (:meth:`Database.changes`):
    one ``(epoch, relation, rows, sign)`` per effective write call of a
    relation the database made, ``epoch`` the number after the call and
    ``sign`` +1 (``rows`` added) or -1 (removed).  A write appends its
    entry before it moves ``now``, so whoever reads a number finds every
    entry up to it; ``base`` is the oldest epoch the log reaches back to.
    """

    __slots__ = ("now", "log", "base", "rows")

    def __init__(self) -> None:
        self.now = 0
        self.log: list | None = None
        self.base = self.rows = 0  # rows: how many the log holds

    def start(self) -> None:
        """Log every write from now on (a started log goes on)."""
        if self.log is None:
            self.log, self.base = [], self.now

    def moved(self, name: str, rows, sign: int, step: int) -> None:
        """A write call moved ``rows`` of relation ``name`` and adds
        ``step`` to ``now``: logged first (a copy), if this clock logs."""
        if self.log is not None and rows:
            self.log.append((self.now + step, name, tuple(rows), sign))
            self.rows += len(rows)
        self.now += step

    def cut(self, epoch: int) -> None:
        """Drop the entries up to ``epoch``, the log's new base.  The base
        moves first: a reader without the writers' lock that finds the
        new list finds the new base (and the old list reads whole)."""
        if epoch > self.base:
            i = bisect_right(self.log, epoch, key=_EPOCH)
            self.rows -= sum([len(entry[2]) for entry in self.log[:i]])
            self.base, self.log = epoch, self.log[i:]


_LOOSE = Clock()  # of the relations no database made: never read or logged
_EPOCH = itemgetter(0)


def _columns(facts: Sequence[Fact], cols: tuple[int, ...]):
    """``tuple(f[c] for c in cols)`` for each of ``facts``, in order,
    extracted at C speed (one ``itemgetter`` pass per column)."""
    if not cols:
        return [()] * len(facts)  # zip() of no columns yields no rows
    return zip(*[map(itemgetter(c), facts) for c in cols])


def minwise_sample(facts, k: int) -> tuple[Fact, ...]:
    """The ``k`` of ``facts`` with the smallest ``crc32(repr(t))`` (ties
    by ``repr``), all of them by ``repr`` when there are no more: what
    every backend's ``sample`` returns."""
    if len(facts) <= k:
        return tuple(sorted(facts, key=repr))
    return tuple(heapq.nsmallest(
        k, facts, key=lambda t: (zlib.crc32((r := repr(t)).encode()), r)))


def _arity_error(name: str, arity: int, fact: Fact) -> ArityError:
    return ArityError(
        f"relation {name} has arity {arity}, "
        f"got tuple of length {len(fact)}: {fact!r}"
    )


class Relation:
    """A named set of same-arity tuples with lazy secondary indexes."""

    __slots__ = ("name", "arity", "_tuples", "_indexes", "_projected",
                 "_borrowed", "_version", "_distinct_cache",
                 "_col_distinct_cache", "_sample_cache", "_clock",
                 "__weakref__")

    def __init__(self, name: str, arity: int,
                 tuples: Iterable[Fact] = ()) -> None:
        self.name = name
        self.arity = arity
        self._tuples: set[Fact] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, list[Fact]]] = {}
        #: ``(positions, cols) -> key -> {cols of the facts under key}``
        #: (:meth:`lookup_projected`), maintained like ``_indexes``.
        self._projected: dict[tuple, dict[tuple, set[tuple]]] = {}
        #: True while buckets are shared with another relation
        #: (:meth:`adopt_indexes`) and so must not be patched in place.
        self._borrowed = False
        self._version = 0
        self._distinct_cache: tuple[int, frozenset[ConstValue]] | None = None
        self._col_distinct_cache: tuple[int, tuple[int, ...]] | None = None
        self._sample_cache: tuple[int, int, tuple[Fact, ...]] | None = None
        self._clock = _LOOSE
        if tuples:
            self.add_all(tuples)

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every effective add, discard,
        clear, and by as much its maker's number (``_clock``)."""
        return self._version

    # -- mutation ---------------------------------------------------------

    def add(self, fact: Fact) -> bool:
        """Insert a tuple; returns True if it was new."""
        return self.add_all((fact,)) == 1

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many tuples; returns the number that were new.

        The whole batch lands in the tuple set first and every live
        index is patched once at the end: semi-naive delta installation
        and the carry-loop refills go through here.  An empty relation
        nobody indexes -- every carry refill, the exit stage's
        ``seen_1`` -- is loaded without a Python-level step per fact.
        """
        arity = self.arity
        tuples = self._tuples
        if not (tuples or self._indexes or self._projected):
            if not isinstance(facts, (set, frozenset, list, tuple)):
                facts = list(facts)  # read twice when the arity is off
            tuples.update(map(tuple, facts))  # in place: loops hold the set
            if tuples and set(map(len, tuples)) != {arity}:
                tuples.clear()
                raise _arity_error(self.name, arity, next(
                    f for f in map(tuple, facts) if len(f) != arity))
            self._version += len(tuples)
            self._clock.moved(self.name, tuples, 1, len(tuples))
            return len(tuples)
        new: list[Fact] = []
        for f in facts:
            f = tuple(f)
            if len(f) != arity:
                raise _arity_error(self.name, arity, f)
            if f not in tuples:
                tuples.add(f)
                new.append(f)
        if not new:
            return 0
        self._version += len(new)
        if self._indexes or self._projected:
            self._index_added(new)
        self._clock.moved(self.name, new, 1, len(new))
        return len(new)

    def discard(self, fact: Fact) -> bool:
        """Remove a tuple; returns True if it was present."""
        return self.discard_all((fact,)) == 1

    def discard_all(self, facts: Iterable[Fact]) -> int:
        """Remove many tuples; returns the number that were present.

        Mirroring :meth:`add_all`, the whole batch leaves the tuple set
        first and every live index is patched in place in one pass (the
        bucket entry removed, empty buckets dropped) instead of being
        rebuilt.  DRed's delete/rederive path goes through here with
        whole delta sets.
        """
        arity = self.arity
        tuples = self._tuples
        removed: list[Fact] = []
        for f in facts:
            f = tuple(f)
            if len(f) != arity:
                raise _arity_error(self.name, arity, f)
            if f in tuples:
                tuples.discard(f)
                removed.append(f)
        if not removed:
            return 0
        self._version += len(removed)
        if self._indexes or self._projected:
            self._index_removed(removed)
        self._clock.moved(self.name, removed, -1, len(removed))
        return len(removed)

    def _unshare(self) -> None:
        """Before a mutation patches the indexes in place: drop them
        while their buckets are shared with another relation -- the
        next lookup rebuilds them."""
        if self._borrowed:
            self._indexes.clear()
            self._projected.clear()
            self._borrowed = False

    def _index_added(self, facts: Sequence[Fact]) -> None:
        """Patch every live index with the newly inserted ``facts``."""
        self._unshare()
        for positions, index in self._indexes.items():
            for key, fact in zip(_columns(facts, positions), facts):
                index.setdefault(key, []).append(fact)
        for (positions, cols), index in self._projected.items():
            for key, row in zip(_columns(facts, positions),
                                _columns(facts, cols)):
                index.setdefault(key, set()).add(row)

    def _index_removed(self, facts: Sequence[Fact]) -> None:
        """Patch every live index for the just removed ``facts``."""
        self._unshare()
        for positions, index in self._indexes.items():
            for key, fact in zip(_columns(facts, positions), facts):
                bucket = index.get(key)
                if bucket is not None:
                    if bucket[-1] == fact:  # undoing a recent insert: O(1)
                        bucket.pop()
                    else:
                        try:
                            bucket.remove(fact)
                        except ValueError:
                            pass
                    if not bucket:
                        del index[key]
        for (positions, cols), index in self._projected.items():
            # Injective: no other fact under ``key`` projects to ``row``.
            for key, row in zip(_columns(facts, positions),
                                _columns(facts, cols)):
                bucket = index.get(key)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del index[key]

    def clear(self) -> None:
        """Remove all tuples and drop all indexes."""
        gone = tuple(self._tuples) if self._clock.log is not None else ()
        self._tuples.clear()
        self._indexes.clear()
        self._projected.clear()
        self._borrowed = False
        self._version += 1
        self._clock.moved(self.name, gone, -1, 1)

    # -- queries ----------------------------------------------------------

    def __contains__(self, fact: Fact) -> bool:
        return tuple(fact) in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def tuples(self) -> frozenset[Fact]:
        """An immutable snapshot of the current contents."""
        return frozenset(self._tuples)

    def lookup(self, positions: tuple[int, ...], key: tuple,
               tracer=None) -> list[Fact]:
        """Tuples whose projection onto ``positions`` equals ``key``.

        Builds (and caches) a hash index on ``positions`` on first use.
        An empty ``positions`` returns all tuples.  A live ``tracer``
        is told about index builds (how many, over how many tuples) --
        the lazily-paid cost that wall-clock benchmarks see but
        relation-size statistics do not.
        """
        if not positions:
            if tracer is not None:
                tracer.count("full_scans")
            return list(self._tuples)
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            facts = list(self._tuples)
            for k, fact in zip(_columns(facts, positions), facts):
                index.setdefault(k, []).append(fact)
            self._indexes[positions] = index
            if tracer is not None:
                tracer.count("index_builds")
                tracer.count("index_tuples", len(facts))
        return index.get(tuple(key), [])

    def lookup_projected(self, positions: tuple[int, ...],
                         cols: tuple[int, ...], key: tuple,
                         tracer=None) -> set[tuple]:
        """``{tuple(f[c] for c in cols) for f in lookup(positions, key)}``
        straight off an index that stores it: a join level whose output
        is made of the probed atom's other columns unions the bucket
        instead of building one tuple per fact.

        Only for *injective* projections -- ``positions`` and ``cols``
        together cover every column (``ValueError`` otherwise) -- so a
        bucket holds exactly one entry per fact, ``len`` of it counts
        what ``lookup`` would have examined, and a delete can patch it
        with one ``set.discard``.  The index is built lazily on first
        use (reported to a live ``tracer`` like a plain one) and kept
        current by the same mutations.  Equal projected tuples are one
        object across the buckets built together: a union over several
        keys then settles most of its duplicate tests on identity.
        """
        index = self._projected.get((positions, cols))
        if index is None:
            if len({*positions, *cols}) != self.arity:
                raise ValueError(
                    f"columns {cols} of {self.name}/{self.arity} keyed on "
                    f"{positions} do not determine the fact"
                )
            facts = list(self._tuples)
            if not positions:
                if tracer is not None:
                    tracer.count("full_scans")
                return set(_columns(facts, cols))
            index = {}
            share = {}.setdefault  # not kept: only the build shares
            for k, row in zip(_columns(facts, positions),
                              _columns(facts, cols)):
                index.setdefault(k, set()).add(share(row, row))
            self._projected[positions, cols] = index
            if tracer is not None:
                tracer.count("index_builds")
                tracer.count("index_tuples", len(facts))
        return index.get(tuple(key), set())

    def distinct_values(self) -> frozenset[ConstValue]:
        """All constant values appearing anywhere in the relation.

        Cached per :attr:`version`, so the Definition 4.2 sizing that
        reporting and the bench harness do repeatedly stops rescanning
        every tuple; frozen so the cached set cannot be corrupted.
        """
        cached = self._distinct_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        values: set[ConstValue] = set()
        for fact in self._tuples:
            values.update(fact)
        frozen = frozenset(values)
        self._distinct_cache = (self._version, frozen)
        return frozen

    def column_distinct_counts(self) -> tuple[int, ...]:
        """Distinct value count per column, cached per :attr:`version`.

        The cost-based planner's only per-relation statistic beyond
        ``len``: ``1 / max(distinct)`` is the System-R selectivity of an
        equi-join edge.  One O(tuples * arity) scan, then O(1) until the
        relation mutates (any mutation bumps the version, including the
        :meth:`discard` / :meth:`discard_all` delete paths).
        """
        cached = self._col_distinct_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        columns: tuple[set, ...] = tuple(set() for _ in range(self.arity))
        for fact in self._tuples:
            for col, value in zip(columns, fact):
                col.add(value)
        counts = tuple(len(col) for col in columns)
        self._col_distinct_cache = (self._version, counts)
        return counts

    def sample(self, k: int = 32) -> tuple[Fact, ...]:
        """A deterministic sample of up to ``k`` tuples.

        Min-wise over a content hash (the ``k`` tuples with the smallest
        ``crc32(repr(t))``), so the result depends only on the stored
        tuples -- never on set iteration order -- and two relations with
        overlapping contents draw overlapping samples, which is what
        makes sampled join-containment estimates meaningful.  Cached per
        :attr:`version` and ``k``.
        """
        cached = self._sample_cache
        if cached is not None and cached[0] == self._version \
                and cached[1] == k:
            return cached[2]
        sampled = minwise_sample(self._tuples, k)
        self._sample_cache = (self._version, k, sampled)
        return sampled

    # -- copies and snapshots ----------------------------------------------

    def copy(self) -> "Relation":
        """A private writable copy (indexes and caches not copied)."""
        twin = Relation(self.name, self.arity)
        twin._tuples = set(self._tuples)
        twin._version = len(twin._tuples)
        return twin

    def snapshot(self, previous: "Relation | None" = None,
                 moved: dict | None = None) -> "Relation":
        """A stable view of the current contents, at this version.

        ``previous`` is the last snapshot taken of this relation: it is
        the answer while the version has not moved (snapshots are never
        written to), and otherwise lends the fresh copy its indexes,
        patched by ``moved`` (:meth:`adopt_indexes`): the rows moved
        since ``previous`` was taken, each to ``+1`` (added) or ``-1``
        (deleted) -- ``None``: unknown, and nothing is adopted.
        Out-of-core backends can return a cheaper read-only view than a
        copy (the SQLite backend pins a WAL read transaction on a
        durable file).
        """
        if (previous is not None and previous.arity == self.arity
                and previous._version == self._version):
            return previous
        snap = self.copy()
        snap._version = self._version
        if previous is not None and moved is not None:
            snap.adopt_indexes(previous, moved)
        return snap

    def adopt_indexes(self, other: "Relation", moved: dict) -> None:
        """Take over ``other``'s indexes, patched by ``moved``: the rows
        this relation holds and ``other`` does not, each to ``+1``, and
        the reverse, each to ``-1``.

        For a relation that differs from ``other`` by a few tuples -- the
        snapshot after a small write: each index dict is copied
        shallowly and only the buckets of the moved tuples are built
        anew, so nothing is rebuilt from scratch and every other bucket
        list is shared with ``other``.  Neither side may patch a shared
        bucket in place any more: both are marked, and a marked
        relation's next mutation drops its indexes instead.  Past a
        quarter of its tuples moved, or at another arity, it adopts
        nothing; a lazy rebuild is cheaper there.
        """
        if other.arity != self.arity or 4 * len(moved) > len(self._tuples):
            return
        added = [row for row, sign in moved.items() if sign > 0]
        removed = [row for row, sign in moved.items() if sign < 0]
        # list(): a reader may publish a freshly built index meanwhile.
        for positions, index in list(other._indexes.items()):
            index = dict(index)
            for key, fact in zip(_columns(removed, positions), removed):
                bucket = [f for f in index[key] if f != fact]
                if bucket:
                    index[key] = bucket
                else:
                    del index[key]
            for key, fact in zip(_columns(added, positions), added):
                index[key] = index.get(key, []) + [fact]
            self._indexes[positions] = index
            self._borrowed = other._borrowed = True
        for (positions, cols), index in list(other._projected.items()):
            index = dict(index)
            for key, row in zip(_columns(removed, positions),
                                _columns(removed, cols)):
                bucket = index[key] - {row}
                if bucket:
                    index[key] = bucket
                else:
                    del index[key]
            for key, row in zip(_columns(added, positions),
                                _columns(added, cols)):
                index[key] = index.get(key, set()) | {row}
            self._projected[positions, cols] = index
            self._borrowed = other._borrowed = True

    def __repr__(self) -> str:
        return f"Relation({self.name}/{self.arity}, {len(self)} tuples)"


class Database:
    """A collection of named relations (the EDB, plus derived relations).

    Unknown relations read as empty; writes create the relation with the
    arity of the first tuple (or an explicit :meth:`ensure` call).

    ``backend`` selects where relations created through this database
    live.  ``None`` (the default) means the in-memory hash-indexed
    :class:`Relation` -- constructed directly, with zero dispatch
    overhead on the default path.  Any object implementing the
    :class:`repro.storage.StorageBackend` protocol (``name``,
    ``make_relation``, ``scratch``) routes relation creation through
    ``backend.make_relation(name, arity, tuples)`` instead.
    """

    #: A snapshot's source clock (:meth:`snapshot`), else ``None``.
    _origin: Clock | None = None

    def __init__(self, backend=None) -> None:
        self._relations: dict[str, Relation] = {}
        self._distinct_cache: tuple[int, frozenset[ConstValue]] | None = None
        self._backend = backend
        self.clock = Clock()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_facts(cls, facts: Mapping[str, Iterable[Fact]],
                   backend=None) -> "Database":
        """Build a database from ``{predicate: iterable of tuples}``, one
        :meth:`ensure` and one ``add_all`` per predicate."""
        db = cls(backend=backend)
        for name, tuples in facts.items():
            rows = list(tuples)
            if rows:
                db.ensure(name, len(rows[0])).add_all(rows)
        return db

    @property
    def backend_name(self) -> str:
        """The storage backend's name (``"memory"`` for the default)."""
        return "memory" if self._backend is None else self._backend.name

    @property
    def shares_storage(self) -> bool:
        """True on a durable file other connections read: whoever needs
        private structures (an engine's indexes) must :meth:`copy`."""
        return self._scratch_backend() is not self._backend

    def _make_relation(self, name: str, arity: int,
                       tuples: Iterable[Fact] = ()) -> Relation:
        if self._backend is None:
            return Relation(name, arity, tuples)
        return self._backend.make_relation(name, arity, tuples)

    def _scratch_backend(self):
        # Copies and snapshots must be *private*: a durable file-backed
        # backend hands them a scratch (temporary) variant so derived
        # relations created on a copy never land in -- or collide
        # inside -- the shared database file.
        return None if self._backend is None else self._backend.scratch()

    def _remounted(self, backend, clone) -> "Database":
        """A database on ``backend`` holding ``clone(other, name,
        relation)`` of every relation; a clone made anew moves its
        number, which starts at the versions' sum plus their count."""
        other = Database(backend=backend)
        for name, rel in self._relations.items():
            held = other._relations[name] = clone(other, name, rel)
            if held is not rel:
                held._clock = other.clock
            other.clock.now += 1 + held.version
        return other

    def copy(self) -> "Database":
        """A deep copy sharing no mutable state (indexes not copied).

        The storage backend carries over in its scratch form, so
        relations the evaluators derive on the copy stay in the same
        storage class as the inputs without touching any durable file.
        """
        return self._remounted(
            self._scratch_backend(), lambda _, name, rel: rel.copy())

    def snapshot(self, previous: "Database | None" = None) -> "Database":
        """A stable read view of the current contents, at this number.

        Like :meth:`copy` but built from :meth:`Relation.snapshot`, and
        never written to (so it keeps this database's backend,
        :attr:`shares_storage` included).  ``previous``, the snapshot
        this one replaces, is shared from: a relation whose ``(arity,
        version)`` has not moved is mounted as the *same object* --
        rows, indexes, on SQLite the connection and its statements --
        and a written one adopts what ``previous`` built but for the
        rows :meth:`changes` names since ``previous``'s epoch (one older
        than the log lends only its unwritten relations, a snapshot of
        another database nothing), so a snapshot after a write costs
        what the write touched.  A durable SQLite file copies nothing
        and pins one read-only WAL connection per relation, anew per
        snapshot.  Every service snapshot is taken here.
        """
        # The number first: it is never newer than the rows copied.
        now, held, moves = self.clock.now, {}, None
        if previous is not None and previous._origin is self.clock:
            held = previous._relations
            moves = self.changes(previous.clock.now)
        snap = self._remounted(self._backend, lambda _, name, rel: (
            rel.snapshot(held.get(name), moves and moves.get(name, {}))))
        snap.clock.now, snap._origin = now, self.clock
        return snap

    def with_backend(self, backend) -> "Database":
        """A copy of this database with every relation stored in ``backend``.

        ``backend=None`` migrates back to the in-memory default.
        """
        return self._remounted(
            backend, lambda other, name, rel:
            other._make_relation(rel.name, rel.arity, rel))

    def with_mounts(self, mounts: Mapping[str, Relation]) -> "Database":
        """A view of this database with ``mounts`` (``{name: relation}``)
        mounted beside its relations.

        Every relation is shared, not copied, and so is the number; the
        view has no backend.  How evaluators put a carry, a delta or a
        candidate relation next to the data a rule body reads.
        """
        view = Database()
        view._relations = {**self._relations, **mounts}
        view.clock = self.clock
        return view

    # -- access -----------------------------------------------------------

    def ensure(self, name: str, arity: int) -> Relation:
        """Get the named relation, creating it empty if absent."""
        rel = self._relations.get(name)
        if rel is None:
            rel = self._relations[name] = self._make_relation(name, arity)
            rel._clock = self.clock
            self.clock.now += 1
        elif rel.arity != arity:
            raise ArityError(
                f"relation {name} already exists with arity {rel.arity}, "
                f"requested {arity}"
            )
        return rel

    def relation(self, name: str) -> Relation | None:
        """The named relation, or ``None`` if it was never written."""
        return self._relations.get(name)

    def tuples(self, name: str) -> frozenset[Fact]:
        """Snapshot of the named relation's tuples (empty if absent)."""
        rel = self._relations.get(name)
        return rel.tuples() if rel is not None else frozenset()

    def add_fact(self, name: str, fact: Fact) -> bool:
        """Insert one tuple, creating the relation if needed."""
        return self.ensure(name, len(fact)).add(tuple(fact))

    def remove_fact(self, name: str, fact: Fact) -> bool:
        """Remove one tuple; False if the relation or tuple is absent."""
        rel = self._relations.get(name)
        if rel is None:
            return False
        return rel.discard(tuple(fact))

    def add_ground_atom(self, a: Atom) -> bool:
        """Insert a ground atom as a fact."""
        if not a.is_ground():
            raise ValueError(f"cannot store non-ground atom {a}")
        values = tuple(t.value for t in a.args if isinstance(t, Constant))
        return self.add_fact(a.predicate, values)

    def predicates(self) -> frozenset[str]:
        """Names of all relations present (including empty ones)."""
        return frozenset(self._relations)

    def fingerprint(self) -> int:
        """This database's state number: a write call to a relation it
        made (through any view) adds, once its rows land, what it adds to
        the relation's version; making a relation adds 1.  It never goes
        back, so caches keyed on it -- the engine's, the service's
        snapshot and memo -- notice every write."""
        return self.clock.now

    def changes(self, since: int, until: int | None = None):
        """``{name: {row: +1 | -1}}``: the rows whose membership moved
        from state ``since`` to ``until`` (now if ``None``), each to the
        sign of that move -- a row moved back drops out, and so does a
        relation left with none -- read off the write log
        (:class:`Clock`); ``None`` when the log does not reach back to
        ``since``, or was never started.  A ``clear()`` names the rows
        it removed, so a replay of the moves onto the state at ``since``
        is the state at ``until`` whatever wrote them."""
        clock = self.clock
        log = clock.log  # before the base: see Clock.cut
        if log is None or since < clock.base:
            return None
        moves: dict[str, dict] = {}
        start = bisect_right(log, since, key=_EPOCH)
        end = None if until is None else bisect_right(log, until, start,
                                                      key=_EPOCH)
        for _, name, rows, sign in log[start:end]:
            net = moves.setdefault(name, {})
            for row in rows:
                if net.pop(row, None) is None:
                    net[row] = sign
        return {name: net for name, net in moves.items() if net}

    def arity(self, name: str) -> int | None:
        """Arity of the named relation, or ``None`` if absent."""
        rel = self._relations.get(name)
        return rel.arity if rel is not None else None

    def size(self, name: str) -> int:
        """Tuple count of the named relation (0 if absent)."""
        rel = self._relations.get(name)
        return len(rel) if rel is not None else 0

    def total_tuples(self) -> int:
        """Total tuples across all relations."""
        return sum(len(r) for r in self._relations.values())

    def distinct_constants(self) -> frozenset[ConstValue]:
        """All constant values anywhere in the database.

        This is the paper's parameter ``n`` -- "the number of distinct
        constants in the base relations" (Definition 4.2).  Cached per
        :meth:`fingerprint` (which any mutation changes), on top of the
        per-relation :meth:`Relation.distinct_values` caches.
        """
        fp = self.fingerprint()
        cached = self._distinct_cache
        if cached is not None and cached[0] == fp:
            return cached[1]
        values: set[ConstValue] = set()
        for rel in self._relations.values():
            values |= rel.distinct_values()
        frozen = frozenset(values)
        self._distinct_cache = (fp, frozen)
        return frozen

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r.name}/{r.arity}:{len(r)}"
            for r in sorted(self._relations.values(), key=lambda r: r.name)
        )
        return f"Database({parts})"
