"""Net per-relation delta capture over database mutation observers.

A :class:`DeltaCapture` subscribes to every relation of a
:class:`~repro.datalog.database.Database` and folds the observed
``(fact, sign)`` events into *net* insert/delete sets per relation:
inserting a fact that was deleted earlier in the same capture cancels
the delete (and vice versa), so replaying the net deltas from the
pre-capture state reproduces the post-capture state exactly.  The
cancellation is sound because relation membership strictly alternates
-- :meth:`Relation.add` only fires the observer for a genuinely new
fact and :meth:`Relation.discard` only for a genuinely present one.

Events a delta cannot express -- a :meth:`Relation.clear`, or a write
to a relation the caller declared off-limits (``guard_predicates``,
typically the IDB names) -- set :attr:`overflow`, telling the consumer
to fall back to a full rebuild; so may the consumer itself, for a write
the capture may not have seen.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.database import Database, Fact

__all__ = ["DeltaCapture"]


class DeltaCapture:
    """Capture net insert/delete sets for mutations of ``db``.

    Usable as a context manager; :meth:`detach` (or ``__exit__``)
    unsubscribes.  ``guard_predicates`` names relations whose direct
    mutation invalidates delta semantics (the service passes its IDB
    predicate names: a base-table delta protocol cannot describe a
    direct write to a derived relation).
    """

    def __init__(self, db: Database,
                 guard_predicates: Iterable[str] = ()) -> None:
        self._db = db
        self._guard = frozenset(guard_predicates)
        self.overflow = False
        self._inserted: dict[str, set[Fact]] = {}
        self._deleted: dict[str, set[Fact]] = {}
        db.observe(self._on_event)

    def _on_event(self, relation, fact, sign) -> None:
        name = relation.name  # the name the database holds it under
        if sign == 0 or name in self._guard:
            self.overflow = True
            return
        ins = self._inserted.setdefault(name, set())
        dels = self._deleted.setdefault(name, set())
        if sign > 0:
            if fact in dels:
                dels.discard(fact)
            else:
                ins.add(fact)
        else:
            if fact in ins:
                ins.discard(fact)
            else:
                dels.add(fact)

    def detach(self) -> None:
        """Stop observing; captured deltas remain readable."""
        self._db.unobserve(self._on_event)

    def __enter__(self) -> "DeltaCapture":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    @property
    def touched(self) -> bool:
        """True if any effective mutation (or an overflow) was seen."""
        return self.overflow or bool(self.net())

    def net(self) -> dict[str, tuple[frozenset[Fact], frozenset[Fact]]]:
        """``{relation: (inserted, deleted)}``, empty relations dropped."""
        out: dict[str, tuple[frozenset[Fact], frozenset[Fact]]] = {}
        for name in set(self._inserted) | set(self._deleted):
            ins = frozenset(self._inserted.get(name, ()))
            dels = frozenset(self._deleted.get(name, ()))
            if ins or dels:
                out[name] = (ins, dels)
        return out
