"""The relation-storage protocol and the in-memory reference backend.

A *relation storage* is anything that implements the surface the
evaluators, planner and service use on
:class:`~repro.datalog.database.Relation`:

- mutation: ``add`` / ``add_all`` / ``discard`` / ``discard_all`` /
  ``clear``, all returning effectiveness (arity-checked, set
  semantics);
- lookup: ``__contains__`` / ``__len__`` / ``__iter__`` / ``__bool__``
  / ``tuples()`` and the indexed ``lookup(positions, key, tracer)``
  probe, which builds secondary indexes lazily and reports index
  builds to a live tracer, plus ``lookup_projected(positions, cols,
  key, tracer)``: the set of the matching facts' ``cols`` columns, for
  projections that determine the fact (``positions`` and ``cols``
  cover every column);
- versioning: a ``version`` counter bumped once per effective mutation
  (``add_all``/``discard_all`` bump by the batch's effective size),
  which feeds :meth:`~repro.datalog.database.Database.fingerprint`;
- planner statistics: ``distinct_values`` / ``column_distinct_counts``
  / ``sample(k)``, all cached per version, with ``sample`` drawing the
  crc32-minwise sample the PR 9 containment estimator relies on being
  identical across backends;
- observation: ``observe`` / ``unobserve`` with
  ``callback(relation, fact, sign)`` events (``+1`` insert, ``-1``
  delete, ``0`` reset with ``fact=None``);
- copies: ``copy()`` (private writable clone) and
  ``snapshot(previous=None)`` (stable read view at the same version --
  may be cheaper than a copy, and is ``previous``, the last snapshot of
  this relation, while the version has not moved).

A *storage backend* is a factory for relation storages plus a
``scratch()`` method returning a variant safe for private copies --
a durable file-backed backend hands out a temporary-storage twin so
evaluator scratch databases never write into the shared file.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

__all__ = ["RelationStorage", "StorageBackend", "MemoryBackend"]

Fact = tuple


@runtime_checkable
class RelationStorage(Protocol):
    """Structural protocol for a relation storage implementation.

    ``runtime_checkable`` only verifies method presence; the behavioural
    contract (set semantics, version arithmetic, deterministic
    sampling) is enforced by the conformance suite in
    ``tests/storage/``.
    """

    name: str
    arity: int

    # observation
    def observe(self, callback) -> None: ...
    def unobserve(self, callback) -> None: ...

    @property
    def version(self) -> int: ...

    # mutation
    def add(self, fact: Fact) -> bool: ...
    def add_all(self, facts: Iterable[Fact]) -> int: ...
    def discard(self, fact: Fact) -> bool: ...
    def discard_all(self, facts: Iterable[Fact]) -> int: ...
    def clear(self) -> None: ...

    # lookup
    def __contains__(self, fact: Fact) -> bool: ...
    def __len__(self) -> int: ...
    def __iter__(self): ...
    def tuples(self) -> frozenset: ...
    def lookup(self, positions: tuple, key: tuple, tracer=None) -> list: ...
    def lookup_projected(self, positions: tuple, cols: tuple, key: tuple,
                         tracer=None) -> set: ...

    # planner statistics
    def distinct_values(self) -> frozenset: ...
    def column_distinct_counts(self) -> tuple: ...
    def sample(self, k: int = 32) -> tuple: ...

    # copies
    def copy(self): ...
    def snapshot(self, previous=None): ...


@runtime_checkable
class StorageBackend(Protocol):
    """Factory for relation storages, selectable on a ``Database``."""

    name: str

    def make_relation(self, name: str, arity: int,
                      tuples: Iterable[Fact] = ()): ...

    def scratch(self) -> "StorageBackend":
        """A backend variant safe for private copies/scratch databases."""
        ...


class MemoryBackend:
    """The in-memory hash-indexed backend, as an explicit object.

    ``Database(backend=None)`` constructs :class:`Relation` directly --
    this wrapper exists so ``--backend memory`` resolves to a real
    backend object with a name, and so the conformance suite can treat
    both backends uniformly.
    """

    name = "memory"

    def make_relation(self, name: str, arity: int,
                      tuples: Iterable[Fact] = ()):
        from ..datalog.database import Relation
        return Relation(name, arity, tuples)

    def scratch(self) -> "MemoryBackend":
        return self

    def __repr__(self) -> str:
        return "MemoryBackend()"
