"""Concurrency stress: snapshot isolation, identical requests at once,
deadline isolation, plan-cache counter consistency.

The acceptance scenario for the query service: 8 workers serving
hundreds of mixed-strategy requests while the EDB mutates underneath,
with every answer checked against a serial oracle evaluation of the
exact database state (by fingerprint) the request was served against.
"""

import sys
import threading
from concurrent.futures import wait

import pytest

from repro.budget import Budget
from repro.datalog.database import Database
from repro.datalog.parser import parse_query
from repro.datalog.plan_cache import PLAN_CACHE
from repro.service import QueryService, ServiceConfig
from repro.workloads import paper

from ..conftest import oracle_answers


def _chain_db(n: int) -> Database:
    return Database.from_facts(
        {
            "friend": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
            "idol": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
            "perfectFor": [(f"a{n}", f"b{n}")],
        }
    )


class TestMixedWorkloadStress:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_snapshot_isolated_answers_match_serial_oracle(
            self, incremental):
        """With a view (``incremental``) the ``auto`` / ``separable``
        reads are probes where the view stands at their fingerprint and
        evaluations over their own snapshot where a write overtook
        them; either way the answer is the serial one."""
        program = paper.example_1_1_program()
        n = 12
        edb = _chain_db(n)
        # Rows out of reach, so that a one-row write to perfectFor is
        # under a quarter of it and its snapshot names the row.
        for k in range(8):
            edb.add_fact("perfectFor", (f"q{k}", f"c{k}"))
        service = QueryService(
            program, edb, ServiceConfig(workers=8, incremental=incremental),
        )
        # Every database state the service can ever serve, keyed by
        # fingerprint.  States are recorded atomically with the
        # mutation that creates them (same lock as snapshot capture),
        # so a request fingerprint outside this dict would be a torn
        # snapshot -- exactly what isolation forbids.
        states: dict[tuple, Database] = {}
        states[service.edb.fingerprint()] = service.edb.copy()

        def mutate_and_record(name: str, fact: tuple,
                              add: bool = True) -> None:
            def fn(db):
                (db.add_fact if add else db.remove_fact)(name, fact)
                states[db.fingerprint()] = db.copy()

            service.mutate(fn)

        strategies = ["auto", "auto", "auto", "separable", "magic",
                      "seminaive"]
        futures = []
        # Hand the interpreter over often: more readers overtaken by a
        # write between their snapshot and their probe.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(240):
                if i % 12 == 5:
                    mutate_and_record(
                        "perfectFor", (f"a{(i % n) + 1}", f"gift{i}")
                    )
                if i % 12 == 11:  # the gift of i - 6 again: a memo
                    # entry that write hit may be brought back
                    mutate_and_record("perfectFor", (
                        f"a{((i - 6) % n) + 1}", f"gift{i - 6}"), add=False)
                if i % 31 == 17:
                    mutate_and_record("friend", (f"z{i}", "a1"))
                constant = f"a{(i % n) + 1}"
                futures.append(
                    service.submit(
                        f"buys({constant}, Y)?",
                        strategy=strategies[i % len(strategies)],
                    )
                )
            done, not_done = wait(futures, timeout=120)
            assert not not_done
            results = [f.result() for f in futures]
            probes = service.metrics_dict()["view_probes"]
        finally:
            sys.setswitchinterval(interval)
            service.close()

        assert len(results) == 240
        assert (probes > 0) == incremental
        assert all(r.status == "ok" for r in results)
        # Serial oracle over the exact state each request was served
        # against (memoized per (fingerprint, query) -- many repeats).
        oracle_cache: dict[tuple, frozenset] = {}
        for result in results:
            assert result.fingerprint in states
            key = (result.fingerprint, str(result.query))
            if key not in oracle_cache:
                oracle_cache[key] = oracle_answers(
                    program, states[result.fingerprint], result.query
                )
            assert result.answers == oracle_cache[key], (
                f"{result.query} diverged from serial evaluation on "
                f"its snapshot"
            )

    def test_plan_cache_counters_stay_consistent(self):
        program = paper.example_1_1_program()
        before = PLAN_CACHE.stats()
        service = QueryService(
            program, _chain_db(10), ServiceConfig(workers=8)
        )
        try:
            service.batch(
                [f"buys(a{(i % 10) + 1}, Y)?" for i in range(80)]
            )
        finally:
            service.close()
        after = PLAN_CACHE.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits + misses > 0
        # Every lookup is either a hit or a miss -- no update was lost
        # to a data race between worker threads.
        assert hits >= 0 and misses >= 0
        assert after["size"] <= PLAN_CACHE.maxsize


class TestIdenticalRequests:
    def test_identical_full_selections_at_once_hit_or_run(self):
        program = paper.example_1_1_program()

        # Twin service: how many carry-loop iterations does ONE
        # evaluation of this full selection cost?
        twin = QueryService(program, _chain_db(14),
                            ServiceConfig(workers=1, trace_sample=1.0))
        try:
            twin.query("buys(a1, Y)?")
            loops_for_one = twin.metrics_dict()["evaluator_counters"][
                "span:separable.loop"]
        finally:
            twin.close()
        assert loops_for_one > 0

        # Now 16 identical requests race on 8 workers: each either hits
        # or runs the carry/seen loops itself (nothing waits on another's
        # run), and every run is the one run the twin made.
        service = QueryService(program, _chain_db(14),
                               ServiceConfig(workers=8, trace_sample=1.0))
        try:
            results = service.batch(["buys(a1, Y)?"] * 16)
            loops = service.metrics_dict()["evaluator_counters"][
                "span:separable.loop"]
            memo = service.memo.stats()
            again = service.query("buys(a1, Y)?")
            after = service.memo.stats()
        finally:
            service.close()
        assert all(r.status == "ok" for r in results)
        assert len({r.answers for r in results}) == 1
        assert memo["hits"] + memo["misses"] == 16
        assert loops == memo["misses"] * loops_for_one
        assert again.answers == results[0].answers
        assert (after["hits"], after["misses"]) == (
            memo["hits"] + 1, memo["misses"])


class TestDeadlineIsolation:
    def test_divergent_request_times_out_without_stalling_others(self):
        # Counting on Example 1.1 at n=26 wants an Omega(2^26)-tuple
        # count relation: it can only end by wall-clock trip.
        program = paper.example_1_1_program()
        db = paper.example_1_1_database(26)
        config = ServiceConfig(
            workers=4,
            max_retries=0,
            budget=Budget(max_wall_seconds=0.25),
        )
        service = QueryService(program, db, config)
        try:
            divergent = service.submit("buys(a1, Y)?", strategy="counting")
            fast = [
                service.submit("buys(a1, Y)?", strategy="separable")
                for _ in range(20)
            ]
            done, not_done = wait([divergent, *fast], timeout=60)
            assert not not_done, "a request stalled past the deadline"
            fast_results = [f.result() for f in fast]
            divergent_result = divergent.result()
            metrics = service.metrics_dict()
        finally:
            service.close()

        assert divergent_result.status == "error"
        assert divergent_result.limit == "wall_clock"
        assert metrics["deadline_trips"] >= 1
        assert all(r.status == "ok" for r in fast_results)
        expected = fast_results[0].answers
        assert all(r.answers == expected for r in fast_results)
        # The fast requests were not serialized behind the divergent
        # one: their p50 stays far under its 0.25s wall budget.
        fast_p50 = sorted(r.latency_s for r in fast_results)[10]
        assert fast_p50 < 0.25


class TestMutationAtomicity:
    def test_mutations_are_atomic_under_contention(self):
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(8), ServiceConfig(workers=8)
        )
        seen_sizes = []
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                # A two-fact mutation: no snapshot may see only half.
                def fn(db, i=i):
                    db.add_fact("friend", (f"p{i}", f"q{i}"))
                    db.add_fact("idol", (f"p{i}", f"q{i}"))

                service.mutate(fn)
                i += 1

        def observe():
            while not stop.is_set():
                sizes = service.mutate(
                    lambda db: (
                        len(db.relation("friend")),
                        len(db.relation("idol")),
                    )
                )
                seen_sizes.append(sizes)

        threads = [threading.Thread(target=churn),
                   threading.Thread(target=observe)]
        try:
            for t in threads:
                t.start()
            futures = [
                service.submit(f"buys(a{(i % 8) + 1}, Y)?")
                for i in range(40)
            ]
            done, not_done = wait(futures, timeout=60)
            assert not not_done
            assert all(f.result().status == "ok" for f in futures)
        finally:
            stop.set()
            for t in threads:
                t.join(10)
            service.close()
        # friend and idol grow in lockstep; observing them mid-mutation
        # would show friend one ahead of idol.
        assert seen_sizes
        assert all(f == i for f, i in seen_sizes)

    def test_request_accounting_holds_under_contention(self):
        """Requests are numbered and counted open without the metrics
        lock: six threads calling ``query()`` beside ``submit()``s on
        four workers, handed over every microsecond, lose no count and
        share no trace id, and a reader sees the submitted and completed
        counts only grow, completed never ahead of submitted."""
        service = QueryService(paper.example_1_1_program(), _chain_db(8),
                               ServiceConfig(workers=4, incremental=True))
        callers, per_caller, submitted = 6, 150, 120
        results, futures, views = [], [], []
        stop = threading.Event()

        def call(k):
            for i in range(per_caller):
                strategy = "auto" if i % 3 else "separable"
                results.append(service.query(
                    f"buys(a{(i + k) % 8 + 1}, Y)?", strategy=strategy))

        def read():
            while not stop.is_set():
                m = service.metrics_dict()
                views.append((m["requests_submitted"],
                              m["requests_completed"]))

        threads = [threading.Thread(target=call, args=(k,))
                   for k in range(callers)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for t in threads:
                t.start()
            futures = [service.submit(f"buys(a{i % 8 + 1}, Y)?")
                       for i in range(submitted)]
            done, not_done = wait(futures, timeout=120)
            assert not not_done
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads)
            results += [f.result() for f in futures]
        finally:
            stop.set()
            reader.join(10)
            sys.setswitchinterval(interval)
            service.close()
        total = callers * per_caller + submitted
        metrics = service.metrics_dict()
        assert len(results) == total and all(r.ok for r in results)
        assert {key: metrics[key] for key in (
            "requests_submitted", "requests_completed", "queue_depth",
            "in_flight", "by_status")} == {
            "requests_submitted": total, "requests_completed": total,
            "queue_depth": 0, "in_flight": 0, "by_status": {"ok": total}}
        assert metrics["latency_s"]["count"] == total
        assert metrics["view_probes"] == sum(r.strategy == "view"
                                             for r in results)
        assert sorted(r.trace_id for r in results) == [
            f"req-{n:08x}" for n in range(1, total + 1)]
        assert views and all(
            done <= admitted and admitted <= later[0] and done <= later[1]
            for (admitted, done), later in zip(views, views[1:]))
