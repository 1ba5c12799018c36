"""FullSelectionMemo: LRU bounds, coalescing, leader-failure recovery."""

import threading

import pytest

from repro.service import FullSelectionMemo


class TestBasics:
    def test_miss_then_hit(self):
        memo = FullSelectionMemo(maxsize=4)
        calls = []
        value = memo.get_or_run(("k",), lambda: calls.append(1) or "v")
        assert value == "v"
        assert memo.get_or_run(("k",), lambda: calls.append(1) or "v2") == "v"
        assert len(calls) == 1
        assert memo.stats() == {
            "size": 1, "hits": 1, "misses": 1, "resumed": 0, "coalesced": 0,
            "evictions": 0, "repaired": 0, "survived": 0, "absorbed": 0,
        }

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            FullSelectionMemo(maxsize=0)

    def test_clear_resets(self):
        memo = FullSelectionMemo(maxsize=4)
        memo.get_or_run(("k",), lambda: "v")
        memo.clear()
        assert len(memo) == 0
        assert memo.stats()["misses"] == 0

    def test_scoped_keys_do_not_collide(self):
        memo = FullSelectionMemo(maxsize=8)
        a = memo.scoped("snap-a")
        b = memo.scoped("snap-b")
        assert a.get_or_run(("k",), lambda: "from-a") == "from-a"
        assert b.get_or_run(("k",), lambda: "from-b") == "from-b"
        assert a.get_or_run(("k",), lambda: "never") == "from-a"
        assert memo.stats()["misses"] == 2


class TestLRU:
    def test_evicts_least_recently_used_not_insertion_order(self):
        memo = FullSelectionMemo(maxsize=2)
        memo.get_or_run(("a",), lambda: 1)
        memo.get_or_run(("b",), lambda: 2)
        memo.get_or_run(("a",), lambda: None)  # refresh a
        memo.get_or_run(("c",), lambda: 3)  # evicts b, not a
        assert memo.get_or_run(("a",), lambda: "recomputed") == 1
        assert memo.get_or_run(("b",), lambda: "recomputed") == "recomputed"
        assert memo.stats()["evictions"] >= 1

    def test_just_inserted_entry_survives_eviction(self):
        memo = FullSelectionMemo(maxsize=1)
        for i in range(5):
            assert memo.get_or_run(("k", i), lambda i=i: i) == i
            # The entry inserted last must be the one resident.
            assert memo.get_or_run(("k", i), lambda: "lost") == i
        assert len(memo) == 1


class TestCoalescing:
    def test_concurrent_identical_keys_compute_once(self):
        memo = FullSelectionMemo(maxsize=8)
        gate = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            gate.wait(5.0)
            return "shared"

        def worker():
            results.append(memo.get_or_run(("k",), compute))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        # Wait until one leader is inside compute and others are parked.
        deadline = threading.Event()
        for _ in range(100):
            if calls and memo.stats()["coalesced"] >= 7:
                break
            deadline.wait(0.02)
        gate.set()
        for t in threads:
            t.join(5.0)
        assert results == ["shared"] * 8
        assert len(calls) == 1
        stats = memo.stats()
        assert stats["misses"] == 1
        assert stats["coalesced"] == 7

    def test_leader_failure_promotes_a_follower(self):
        memo = FullSelectionMemo(maxsize=8)
        leader_entered = threading.Event()
        release_leader = threading.Event()
        outcomes = []

        def failing_compute():
            leader_entered.set()
            release_leader.wait(5.0)
            raise RuntimeError("leader budget tripped")

        def leader():
            try:
                memo.get_or_run(("k",), failing_compute)
            except RuntimeError as exc:
                outcomes.append(("leader-error", str(exc)))

        def follower():
            outcomes.append(
                ("follower", memo.get_or_run(("k",), lambda: "recovered"))
            )

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        assert leader_entered.wait(5.0)
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        # Let the follower park on the in-flight entry, then fail the leader.
        for _ in range(100):
            if memo.stats()["coalesced"] >= 1:
                break
            threading.Event().wait(0.02)
        release_leader.set()
        t_leader.join(5.0)
        t_follower.join(5.0)
        assert ("leader-error", "leader budget tripped") in outcomes
        assert ("follower", "recovered") in outcomes
        # The failure cached nothing; the retry's value is resident.
        assert memo.get_or_run(("k",), lambda: "never") == "recovered"

    def test_exception_propagates_only_to_leader(self):
        memo = FullSelectionMemo(maxsize=8)
        with pytest.raises(RuntimeError):
            memo.get_or_run(("k",), lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        # Key is not poisoned.
        assert memo.get_or_run(("k",), lambda: "fine") == "fine"
