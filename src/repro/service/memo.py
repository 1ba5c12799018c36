"""The cross-request full-selection memo: bounded LRU plus coalescing.

Lemma 2.1 says every selection on a separable recursion decomposes into
a union of *full* selections, and Figure 2 evaluates a full selection as
one carry/seen run from one seed vector.  That run is the natural unit
of work to share between requests: it is a pure function of (analysis,
selected component, seed, join order) over one database snapshot, which
is exactly what :func:`repro.core.api.full_selection_key` encodes.  The
same leverage drives adorned-subgoal answer caching in magic-sets
engines (Alviano et al. 2019) and memoized subplan enumeration in
recursive-plan optimizers (Fejza & Genevès 2023).

:class:`FullSelectionMemo` is the service-grade realization:

* **bounded LRU** -- completed entries are kept up to ``maxsize``,
  evicting least-recently-*used* (a hit refreshes recency, unlike the
  plan cache's FIFO, because selection constants follow request
  popularity, not compilation order);
* **in-flight coalescing** -- when K requests ask for the same key
  concurrently, one (the *leader*) computes while the other K-1 block
  on the entry's event and then share the value, so the carry/seen
  loops run once per constant no matter the fan-in;
* **leader-failure isolation** -- a leader that trips its budget (its
  deadline may be shorter than a follower's) caches nothing and fails
  alone: each follower wakes, sees no value, and takes its own turn as
  leader under its own budget.

Values are ``(answers, EvaluationStats)`` pairs: ``answers`` is the
frozen answer set the full selection returns (a hit hands out that very
object), and the branch stats are computed fresh per miss and *merged*
(never mutated) into every consumer's accumulator, so a cache hit
reports the same Definition 4.2 relation sizes as the evaluation that
populated it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

__all__ = ["FullSelectionMemo"]


class _InFlight:
    """One in-progress computation other threads can wait on."""

    __slots__ = ("event", "value", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.failed = False

    def resolve(self, value: object) -> None:
        self.value = value
        self.event.set()

    def fail(self) -> None:
        self.failed = True
        self.event.set()


class FullSelectionMemo:
    """Thread-safe bounded LRU of answered full selections.

    ``get_or_run(key, compute)`` is the whole interface the evaluator
    needs (:meth:`peek` only spares a partial selection's batch the
    seeds already answered); counters (``hits`` / ``misses`` / ``coalesced`` /
    ``evictions``) feed the service metrics.  ``compute`` runs outside
    the lock -- it is a whole fixpoint evaluation -- so lookups never
    block behind evaluations of *other* keys.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}

    def get_or_run(self, key: tuple, compute: Callable[[], object]):
        """The cached value for ``key``, computing (once) on a miss.

        Concurrent callers with the same key coalesce onto a single
        ``compute`` call.  If the computing leader raises, its waiters
        retry the lookup themselves (under their own budgets); the
        exception propagates only to the leader.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key]
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    self.coalesced += 1
                    leader = False
            if not leader:
                flight.event.wait()
                if not flight.failed:
                    return flight.value
                continue  # leader failed: compete to become the leader
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.fail()
                raise
            with self._lock:
                self.misses += 1
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                self._inflight.pop(key, None)
            flight.resolve(value)
            return value

    def peek(self, key: tuple):
        """The completed entry for ``key``, or ``None``: no waiting on a
        leader, no counter, no LRU touch.  Lets a Lemma 2.1 batch leave
        out the seeds that are already answered
        (:func:`repro.core.api._run_batch`); the answer may be stale by
        the time ``get_or_run`` is called, which then decides."""
        with self._lock:
            return self._entries.get(key)

    def scoped(self, scope: object) -> "ScopedMemo":
        """A view of this memo with ``scope`` prefixed onto every key.

        The service scopes each request's memo access to the EDB
        snapshot fingerprint it is served against, so entries from
        different database states can never answer each other while
        still sharing one bounded LRU (and one set of counters).
        """
        return ScopedMemo(self, scope)

    def clear(self) -> None:
        """Drop all completed entries and zero the counters.

        In-flight computations are untouched: their leaders will still
        publish, which is harmless (the entry is simply fresh).
        """
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.coalesced = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: size plus every event counter."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                # A write neither repairs nor migrates an entry (the
                # view answers an incremental service's reads); the
                # keys stay for the ledger's reader.
                "repaired": 0,
                "survived": 0,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"FullSelectionMemo(size={s['size']}, hits={s['hits']}, "
            f"misses={s['misses']}, coalesced={s['coalesced']})"
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
