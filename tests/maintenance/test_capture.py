"""Unit tests for :class:`repro.maintenance.DeltaCapture`.

The capture's one job is to produce net deltas whose replay from the
pre-capture state reproduces the post-capture state -- so cancellation,
overflow and subscription lifetime are each pinned here.
"""

from repro.datalog.database import Database
from repro.maintenance import DeltaCapture


def small_db() -> Database:
    return Database.from_facts({"e": [("a", "b"), ("b", "c")]})


class TestNetDeltas:
    def test_plain_insert_and_delete(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.add_fact("e", ("c", "d"))
            db.remove_fact("e", ("a", "b"))
        assert cap.net() == {
            "e": (frozenset([("c", "d")]), frozenset([("a", "b")])),
        }
        assert cap.touched and not cap.overflow

    def test_insert_then_delete_cancels(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.add_fact("e", ("c", "d"))
            db.remove_fact("e", ("c", "d"))
        assert cap.net() == {}
        assert not cap.touched

    def test_delete_then_reinsert_cancels(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.remove_fact("e", ("a", "b"))
            db.add_fact("e", ("a", "b"))
        assert cap.net() == {}

    def test_noop_writes_emit_nothing(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.add_fact("e", ("a", "b"))       # already present
            db.remove_fact("e", ("z", "z"))    # never present
        assert cap.net() == {}

    def test_new_relation_is_captured(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.add_fact("f", ("x",))
        assert cap.net() == {"f": (frozenset([("x",)]), frozenset())}

    def test_replaying_net_reproduces_the_state(self):
        db = small_db()
        before = db.copy()
        with DeltaCapture(db) as cap:
            db.add_fact("e", ("c", "d"))
            db.add_fact("e", ("d", "e"))
            db.remove_fact("e", ("d", "e"))
            db.remove_fact("e", ("b", "c"))
            db.add_fact("f", ("x",))
        for name, (ins, dels) in cap.net().items():
            for fact in dels:
                before.remove_fact(name, fact)
            for fact in ins:
                before.add_fact(name, fact)
        assert {
            name: set(before.tuples(name))
            for name in before.predicates()
        } == {name: set(db.tuples(name)) for name in db.predicates()}


class TestOverflow:
    def test_clear_overflows(self):
        db = small_db()
        with DeltaCapture(db) as cap:
            db.relation("e").clear()
        assert cap.overflow and cap.touched

    def test_guarded_write_overflows(self):
        db = small_db()
        with DeltaCapture(db, guard_predicates=["tc"]) as cap:
            db.add_fact("tc", ("a", "b"))
        assert cap.overflow

    def test_unguarded_write_next_to_guard_does_not(self):
        db = small_db()
        with DeltaCapture(db, guard_predicates=["tc"]) as cap:
            db.add_fact("e", ("c", "d"))
        assert not cap.overflow


class TestLifetime:
    def test_detach_stops_capturing(self):
        db = small_db()
        cap = DeltaCapture(db)
        db.add_fact("e", ("c", "d"))
        cap.detach()
        db.add_fact("e", ("d", "e"))
        assert cap.net() == {"e": (frozenset([("c", "d")]), frozenset())}

    def test_two_captures_observe_independently(self):
        db = small_db()
        first = DeltaCapture(db)
        second = DeltaCapture(db)
        db.add_fact("e", ("c", "d"))
        first.detach()
        db.add_fact("e", ("d", "e"))
        second.detach()
        assert first.net()["e"][0] == frozenset([("c", "d")])
        assert second.net()["e"][0] == frozenset([
            ("c", "d"), ("d", "e"),
        ])
