"""FullSelectionMemo: lookups, LRU bounds, a failed compute."""

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

    def test_an_exception_keeps_nothing(self):
        memo = FullSelectionMemo(maxsize=8)
        with pytest.raises(RuntimeError):
            memo.get_or_run(("k",), lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        # Key is not poisoned.
        assert memo.get_or_run(("k",), lambda: "fine") == "fine"

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
