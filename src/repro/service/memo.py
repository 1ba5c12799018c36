"""The cross-request full-selection memo: a bounded LRU.

Lemma 2.1 says every selection on a separable recursion decomposes into
a union of *full* selections, and Figure 2 evaluates a full selection as
one carry/seen run from one seed vector.  That run is the natural unit
of work to share between requests: it is a pure function of (analysis,
selected component, seed, join order) over one database snapshot, which
is exactly what :func:`repro.core.compiler.full_selection_key` encodes.  The
same leverage drives adorned-subgoal answer caching in magic-sets
engines (Alviano et al. 2019) and memoized subplan enumeration in
recursive-plan optimizers (Fejza & Genevès 2023).

:class:`FullSelectionMemo` keeps completed entries up to ``maxsize``,
evicting the least-recently-*used* (a hit refreshes recency, unlike the
plan cache's FIFO, because selection constants follow request
popularity, not compilation order).  Nothing waits: a miss computes
outside the lock, and two callers that miss one key at once both
compute -- the run is a pure function of its key, so the second keeps
an equal value in place of the first.

Values are ``(answers, EvaluationStats, ReadSet)``: ``answers`` is the
frozen answer set the full selection returns (a hit hands out that very
object), and the branch stats are computed fresh per miss and *merged*
(never mutated) into every consumer's accumulator, so a cache hit
reports the same Definition 4.2 relation sizes as the evaluation that
populated it.  By the :class:`~repro.core.compiler.ReadSet`,
:meth:`FullSelectionMemo.carry` keeps an entry across a write it did
not read, :meth:`FullSelectionMemo.seen_sets` lets a miss absorb the
entries its down loop reaches, and :meth:`FullSelectionMemo.resume_from`
lets a miss go on from an entry a write that only added rows set aside.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

__all__ = ["FullSelectionMemo"]

_MISSING = object()


def _family(key: tuple) -> tuple:
    """A full-selection key without its seed (second to last)."""
    return key[:-2] + key[-1:]


def _meeting(members: dict, written: dict) -> set:
    """The seeds of ``members`` (``seed -> value``, one form's) whose
    read sets a row of ``written`` meets, found by the written rows'
    keys: one probe of each entry's projection per key."""
    spec = next(iter(members.values()))[2].spec
    hit: set = set()
    for name, rows in written.items():
        for stage, positions, cols in spec.get(name, ()):
            if rows is None:
                return set(members)
            for key in {tuple([r[p] for p in positions]) for r in rows}:
                hit.update([seed for seed, value in members.items()
                            if key in value[2].rows(stage, cols)])
    return hit


class FullSelectionMemo:
    """Thread-safe bounded LRU of answered full selections.

    ``get_or_run(key, compute)`` is the whole interface the evaluator
    needs (:meth:`peek` only spares a partial selection's batch the
    seeds already answered; :meth:`seen_sets` and :meth:`resume_from`
    hand a miss what it may reuse); counters (``hits`` / ``misses`` /
    ``resumed`` / ``evictions``) feed the service metrics.  ``compute``
    runs outside the lock -- it is a whole fixpoint evaluation -- so a
    lookup never blocks behind an evaluation, of its own key or another.

    A key's first member is its scope.  Until the first :meth:`carry`
    every key is kept as it is; from then on one scope is *live* and
    only its values are kept -- a value computed on any other is
    returned but not kept.  A carry moves the memo from one scope to
    the next without re-keying: the live scope's entries stay under
    the prefix they were made under (``_home``).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.resumed = 0
        self.evictions = 0
        self.survived = 0
        self.absorbed = 0
        self._lock = threading.Lock()
        #: Completed entries by stored key (:meth:`_stored`), least
        #: recently used first, and the same by family (the key without
        #: its seed, :func:`_family`): ``family -> seed -> value``.
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._families: dict[tuple, dict] = {}
        #: :meth:`seen_sets`: ``family -> seed -> (seen_1, seen_2)``, for
        #: families some miss asked about.
        self._tables: dict[tuple, dict] = {}
        #: Set aside by :meth:`carry`: unscoped key -> ``[(value, k)]``,
        #: ``k`` the state (below) the value was made on; how many.
        self._waiting: OrderedDict[tuple, list] = OrderedDict()
        self._held = 0
        #: Per state since the log began (state 0; each carry makes the
        #: next one): the ``(relation, row)`` whose membership differs
        #: from state 0's; per relation, each such row's first move's
        #: sign; per relation written with rows unknown, the last state
        #: it left.
        self._states: list[frozenset] = [frozenset()]
        self._first: dict[str, dict] = {}
        self._unknown: dict[str, int] = {}
        #: The rows the states hold together: past ``16 * maxsize`` the
        #: log starts anew (an add-only stream grows each state by one).
        self._tracked = 0
        #: :meth:`_since` of each state asked about, for the current one.
        self._moved: dict[int, dict] = {}
        #: Whether :meth:`carry` ran; the live scope (its last ``new``)
        #: and the prefix that scope's entries are stored under.
        self._carried = False
        self._scope: object = None
        self._home: object = None

    def _stored(self, key: tuple):
        """The key ``key``'s entry is kept under -- itself until the
        first carry, then under ``_home`` if its scope is live -- or
        ``None``: a value of a scope not live is not kept.  The lock is
        held."""
        if not self._carried:
            return key
        if key[0] != self._scope:
            return None
        return key if key[0] == self._home else (self._home,) + key[1:]

    def _found(self, key: tuple) -> tuple:
        """``(stored key, value)`` of ``key``'s entry -- kept, or set
        aside and brought back (:meth:`_revived`) -- or ``(None, None)``.
        The lock is held."""
        stored = self._stored(key)
        if stored is not None:
            value = self._entries.get(stored, _MISSING)
            if value is not _MISSING:
                return stored, value
            if self._revived(key, stored):
                return stored, self._entries[stored]
        return None, None

    def get_or_run(self, key: tuple, compute: Callable[[], object]):
        """The cached value for ``key``, computing it on a miss.

        A lookup tries, in order: the entry, an entry set aside that the
        writes since brought back (:meth:`_revived`), then ``compute``
        -- which may resume a value set aside (:meth:`resume_from`;
        counted ``resumed``, else ``misses``).  ``compute`` runs outside
        the lock and its exception reaches its caller alone, keeping
        nothing.
        """
        with self._lock:
            stored, value = self._found(key)
            if stored is not None:
                self._entries.move_to_end(stored)
                self.hits += 1
                return value
        value = compute()
        with self._lock:
            # A carry meanwhile leaves the value's scope not live: it is
            # counted, not kept.
            stored = self._stored(key)
            if stored is not None:
                self._put(stored, value)
            reads = value[2] if len(key) >= 3 else None
            if reads is not None and reads.resumed:
                self.resumed += 1
            else:
                self.misses += 1
            if reads is not None:
                self.absorbed += reads.absorbed
        return value

    def peek(self, key: tuple):
        """The completed entry for ``key``, or ``None``: no counter, no
        LRU touch.  Lets a Lemma 2.1 batch leave out the seeds that are
        already answered (:func:`repro.core.api._run_batch`); the answer
        may be stale by the time ``get_or_run`` is called, which then
        decides."""
        with self._lock:
            return self._found(key)[1]

    def seen_sets(self, key: tuple) -> dict:
        """The live ``seed -> (seen_1, seen_2)`` of the completed entries
        whose keys are ``key`` but for the seed (``key[-2]``, before the
        order): the same scope, form and order.  A miss's down loop
        absorbs them (:func:`repro.core.evaluator.execute_plan`'s
        ``known``) and probes them without the lock: it is only ever
        read by key outside it, changed in place under it while its
        scope is live, and left behind, never emptied, when
        :meth:`carry` (which hands the next scope a copy) or
        :meth:`clear` starts anew.  A scope not live has none."""
        with self._lock:
            stored = self._stored(key)
            if stored is None:
                return {}
            family = _family(stored)
            table = self._tables.get(family)
            if table is None:
                table = self._tables[family] = {
                    seed: value[2].seen for seed, value
                    in self._families.get(family, {}).items()}
            return table

    def resume_from(self, key: tuple):
        """``(read set, inserted)`` for a miss on ``key`` to go on from,
        or ``None``: the value set aside for it that :meth:`_aside`
        finds, and the rows added since (``relation -> rows``)."""
        if not self._waiting:  # nothing set aside (read without the lock)
            return None
        with self._lock:
            found = self._aside(key)
            if found is None:
                return None
            held, i, since = found
            return held[i][0][2], {
                name: [row for row, sign in rows.items() if sign > 0]
                for name, rows in since.items()}

    def _aside(self, key: tuple):
        """``(held, i, since)``: ``held[i]`` the newest value :meth:`carry`
        set aside for ``key`` that no row moved since meets (valid
        again), failing that the newest no row deleted since meets (to
        resume), and ``since`` the moves (:meth:`_since`); or ``None``.
        A relation it reads written with rows unknown, or a scope not
        live, gives none.  The lock is held."""
        held = (self._waiting.get(key[1:]) if key[0] == self._scope
                else None)
        found = None
        for i in reversed(range(len(held or ()))):  # newest first
            value, state = held[i]
            reads = value[2]
            since = self._since(state, reads.spec)
            if since is None:
                continue
            if not reads.meets(since):
                return held, i, since
            if found is None and not reads.meets({
                    name: [row for row, sign in rows.items() if sign < 0]
                    for name, rows in since.items()}):
                found = held, i, since
        return found

    def _since(self, state: int, spec: dict):
        """``relation -> {row: +1 | -1}``: the rows whose membership
        moved from ``state`` to the current one, each to the sign of
        that move (kept until the next carry; not to be changed), or
        ``None`` if a relation of ``spec`` was written with rows unknown
        since.  The lock is held."""
        unknown = self._unknown
        if unknown and any(unknown.get(name, -1) >= state for name in spec):
            return None
        since = self._moved.get(state)
        if since is None:
            now, first = self._states[-1], self._first
            since = self._moved[state] = {}
            for name, row in self._states[state].symmetric_difference(now):
                sign = first.get(name, {}).get(row)
                if sign is None:  # its relation started anew since
                    continue
                # In now: it differs from state 0 there.
                since.setdefault(name, {})[row] = (
                    1 if ((name, row) in now) == (sign > 0) else -1)
        return since

    def _put(self, key: tuple, value: object) -> None:
        """Keep ``value`` under the stored ``key``; a full-selection key
        (one with a seed) files it in its family and table too."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            old, _ = self._entries.popitem(last=False)
            self.evictions += 1
            self._unfile(old)
        if len(key) < 3:
            return
        family, seed = _family(key), key[-2]
        self._families.setdefault(family, {})[seed] = value
        table = self._tables.get(family)
        if table is not None:
            table[seed] = value[2].seen

    def _unfile(self, key: tuple) -> None:
        """Take the entry of the stored ``key`` out of its family and
        table (it left ``_entries``)."""
        if len(key) < 3:
            return
        family, seed = _family(key), key[-2]
        members = self._families.get(family)
        if members is not None:
            members.pop(seed, None)
            if not members:
                del self._families[family]
        table = self._tables.get(family)
        if table is not None:
            table.pop(seed, None)

    def scoped(self, scope: object) -> "ScopedMemo":
        """A view of this memo with ``scope`` prefixed onto every key.

        The service scopes each request's memo access to the EDB state
        number it is served against, so entries from
        different database states can never answer each other while
        still sharing one bounded LRU (and one set of counters).
        """
        return ScopedMemo(self, scope)

    def carry(self, old: object, new: object, written) -> None:
        """Make ``new`` the live scope, keeping every entry of scope
        ``old`` whose read set misses every row of ``written``
        (``relation -> {row: +1 | -1}`` of the rows whose membership
        changed, ``None`` where unknown, or ``None``); set the others
        aside and drop those of other scopes.  An added
        or deleted row changes a run only through a first derivation
        from a carry row of the old fixpoint, which is in a ``seen``
        (Theorem 2.1, :func:`~repro.core.compiler.read_spec`).

        Only the entries a written row meets move (:func:`_meeting`):
        the others stay where they are, and each table :meth:`seen_sets`
        handed out is copied for ``new`` -- a run still on ``old``
        keeps its own."""
        with self._lock:
            if self._carried and old != self._scope:
                # Nothing kept is old's, and the log does not lead to it.
                written = None
            home = self._home if self._carried else old
            for family in [f for f in self._families if f[0] != home]:
                self._drop(family)
            if written is None or self._tracked > 16 * self.maxsize:
                self._forget()
            state = len(self._states) - 1  # old's
            tables = {}
            for family, members in list(self._families.items()):
                if written is None:
                    self._drop(family)
                    continue
                hit = _meeting(members, written)
                for seed in hit:
                    key = family[:-1] + (seed, family[-1])
                    del self._entries[key]
                    self._waiting.setdefault(key[1:], []).append(
                        (members.pop(seed), state))
                self._held += len(hit)
                if not members:
                    del self._families[family]
                table = self._tables.get(family)
                if table is not None:
                    table = tables[family] = dict(table)
                    for seed in hit:
                        table.pop(seed, None)
            self._tables = tables
            if written is not None:
                self._states.append(self._next_state(state, written))
                self._tracked += len(self._states[-1]) + 1
            self._moved = {}
            self.survived += len(self._entries)
            while self._held > self.maxsize:  # at most maxsize wait
                self._held -= len(self._waiting.popitem(last=False)[1])
            self._carried, self._scope, self._home = True, new, home

    def _next_state(self, state: int, written: dict) -> frozenset:
        """The state after ``state`` once ``written`` moved its rows (the
        lock is held).  A relation written with rows unknown starts
        anew: its rows leave the state and their first moves are
        forgotten, so a later move is told from where it starts.  Only
        a relation that holds tracked rows costs a pass over the state
        (a derived one, written with rows unknown on every capture that
        touches what it depends on, never does)."""
        rows_of, first = self._states[state], self._first
        stale = set()
        for name, rows in written.items():
            if rows is None:
                self._unknown[name] = state
                if first.pop(name, None):
                    stale.add(name)
        if stale:
            rows_of = frozenset(x for x in rows_of if x[0] not in stale)
        moved = []
        for name, rows in written.items():
            if rows:
                signs = first.setdefault(name, {})
                for row, sign in rows.items():
                    signs.setdefault(row, sign)
                    moved.append((name, row))
        return rows_of.symmetric_difference(moved)

    def _forget(self) -> None:
        """Start the log anew, dropping what waits (the lock is held)."""
        self._waiting.clear()
        self._held = self._tracked = 0
        self._states = [frozenset()]
        self._first, self._unknown, self._moved = {}, {}, {}

    def _drop(self, family: tuple) -> None:
        """Forget every entry of ``family`` (the lock is held)."""
        for seed in self._families.pop(family):
            del self._entries[family[:-1] + (seed, family[-1])]

    def _revived(self, key: tuple, stored: tuple) -> bool:
        """Whether an entry :meth:`carry` set aside for ``key`` is valid
        again -- the rows whose membership moved since its state (a row
        moved back is not among them) miss its read set
        (:meth:`_aside`) -- and so back under ``stored``.  The lock is
        held."""
        found = self._aside(key)
        if found is None:
            return False
        held, i, since = found
        value = held[i][0]
        if value[2].meets(since):  # only to resume
            return False
        del held[i]
        self._held -= 1
        self.survived += 1
        self._put(stored, value)
        return True

    def clear(self) -> None:
        """Drop all completed entries and zero the counters.

        A ``compute`` running meanwhile still keeps its value, which is
        harmless (the entry is simply fresh).
        """
        with self._lock:
            self._entries.clear()
            self._families.clear()
            self._forget()
            self._tables = {}
            self.absorbed = 0
            self.hits = 0
            self.misses = 0
            self.resumed = 0
            self.evictions = 0
            self.survived = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: size plus every event counter."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "resumed": self.resumed,
                "evictions": self.evictions,
                "survived": self.survived,
                "absorbed": self.absorbed,
                # Nothing waits and a write repairs no entry: both kept
                # only for ledger/layers.py, which reads them.
                "coalesced": 0,
                "repaired": 0,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"FullSelectionMemo(size={s['size']}, hits={s['hits']}, "
            f"misses={s['misses']}, resumed={s['resumed']})"
        )


class ScopedMemo:
    """A key-prefixing facade over a :class:`FullSelectionMemo`.

    Satisfies the same ``get_or_run`` protocol
    :func:`repro.core.api.evaluate_separable` expects, so it can be
    passed straight through :meth:`repro.engine.Engine.query`.
    """

    __slots__ = ("memo", "scope")

    def __init__(self, memo: FullSelectionMemo, scope: object) -> None:
        self.memo = memo
        self.scope = scope

    def get_or_run(self, key: tuple, compute: Callable[[], object]):
        return self.memo.get_or_run((self.scope,) + tuple(key), compute)

    def peek(self, key: tuple):
        return self.memo.peek((self.scope,) + tuple(key))

    def seen_sets(self, key: tuple) -> dict:
        return self.memo.seen_sets((self.scope,) + tuple(key))

    def resume_from(self, key: tuple):
        return self.memo.resume_from((self.scope,) + tuple(key))
