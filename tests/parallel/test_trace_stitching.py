"""Cross-process trace stitching: worker spans come home, counters
reconcile with the serial run.

There is one parallel axis, carry partitioning, and it is what a
Lemma 2.1 union runs through as well: the seed-tagged batch puts every
seed's tuples into one carry, and that carry is what the pool splits.
What reconciles, and how strongly:

* answers, ``iterations``, ``tuples_produced``, every generated
  relation's size and the per-rule ``rule_apps:``/``rule_out:`` totals
  are *byte-identical* to the serial trace -- partitions are exact and
  the parent replays rule accounting from the merged per-join outputs;
* each partition scans its own share of the carry, so ``full_scans``
  grows by exactly one per extra partition per join per partitioned
  round (and by nothing else), and under ``order="left_to_right"`` so
  does ``atom_lookups`` while everything else -- ``EvaluationStats``
  included -- is byte-identical;
* under ``order="greedy"`` a partition may re-choose its join order
  for its smaller share, which can only add to ``atom_lookups``,
  ``tuples_examined`` and ``bindings_out``.

That is short of "every total byte-identical to serial", which held
for the per-seed fan-out this replaced: a branch shipped whole scans
what the serial branch scans; a share of a carry does not.
"""

import json

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.engine import Engine
from repro.observability import (
    RingBufferSink,
    Tracer,
    replay_trace,
    reconciled_counter_totals,
    to_chrome_trace,
    to_metrics_text,
    trace_violations,
)
from repro.parallel import ParallelConfig, get_executor

from .conftest import two_class_workload

# Example 2.4's shape: class e1 = columns {0, 1} (descends through
# ``a``), class e2 = column {2} (ascends through ``b``).  Binding only
# column 0 -- t(x0, Y, Z)? -- is a *partial* selection of e1: a Lemma
# 2.1 union over three seeds, evaluated as one seed-tagged batch.
EX24_SRC = """
t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
t(X, Y, Z) :- t0(X, Y, Z).
"""


def branching_workload(n: int = 6, branches: int = 3):
    program = parse_program(EX24_SRC).program
    db = Database()
    for j in range(branches):
        db.add_fact("a", ("x0", "y0", f"p{j}_0", f"q{j}_0"))
        for i in range(n):
            db.add_fact(
                "a",
                (f"p{j}_{i}", f"q{j}_{i}",
                 f"p{j}_{i + 1}", f"q{j}_{i + 1}"),
            )
        for i in range(0, n, 2):
            db.add_fact("t0", (f"p{j}_{i}", f"q{j}_{i}", "z0"))
    for i in range(n):
        db.add_fact("b", (f"z{i}", f"z{i + 1}"))
    return program, db


BATCH_QUERY = "t(x0, Y, Z)?"

#: Totals a partition's smaller share may move, per join order: each
#: share is scanned by its own worker, and under greedy a share may
#: also re-order its join (more probes, more tuples looked at).
MOVES = {
    "left_to_right": ("atom_lookups", "full_scans"),
    "greedy": ("atom_lookups", "full_scans", "tuples_examined",
               "bindings_out"),
}


def _totals(tracer, drop=()) -> str:
    totals = reconciled_counter_totals(tracer)
    return json.dumps(
        {k: v for k, v in totals.items() if k not in drop}, sort_keys=True
    )


def _record_partitions(monkeypatch, executor) -> list[int]:
    """The number of shares of every carry ``executor`` splits from now
    on: one entry per partitioned round, one shipped task per share."""
    shares: list[int] = []
    split = executor.partition

    def partition(tuples_):
        parts = split(tuples_)
        shares.append(len(parts))
        return parts

    monkeypatch.setattr(executor, "partition", partition)
    return shares


class TestBranchFanoutByteIdentity:
    """The Lemma 2.1 union under a pool.  It used to fan out one task
    per seed; it is now one tagged fixpoint whose carry partitions."""

    @pytest.mark.parametrize("order", ["greedy", "left_to_right"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reconciled_totals_byte_identical_to_serial(
            self, workers, order, monkeypatch):
        """Byte-identical but for the totals in ``MOVES``, whose growth
        is pinned (see the module docstring)."""
        program, db = branching_workload()
        engine = Engine(program, db, order=order)
        serial = Tracer()
        ref = engine.query(
            BATCH_QUERY, strategy="separable", tracer=serial
        )
        executor = get_executor(ParallelConfig.eager(workers))
        shares = _record_partitions(monkeypatch, executor)
        stitched = Tracer()
        out = engine.query(
            BATCH_QUERY, strategy="separable", tracer=stitched,
            parallel=executor,
        )
        assert out.answers == ref.answers
        assert bool(shares) == executor.active
        # Every stage of this plan is a single join, so the scans grow
        # by one per share beyond the first of every partitioned round.
        extra = sum(shares) - len(shares)
        assert _totals(stitched, MOVES[order]) == _totals(
            serial, MOVES[order])
        was, now = (reconciled_counter_totals(t) for t in (serial, stitched))
        assert now["full_scans"] == was["full_scans"] + extra
        want, got = ref.stats.as_dict(), out.stats.as_dict()
        if order == "left_to_right":
            assert now["atom_lookups"] == was["atom_lookups"] + extra
        else:
            for name in MOVES[order]:
                assert now[name] >= was[name], name
            assert got.pop("tuples_examined") >= want.pop("tuples_examined")
        assert got == want
        assert trace_violations(stitched) == []

    def test_branch_spans_come_home(self, monkeypatch):
        program, db = branching_workload()
        executor = get_executor(ParallelConfig.eager(2))
        shares = _record_partitions(monkeypatch, executor)
        tracer = Tracer()
        Engine(program, db).query(
            BATCH_QUERY, strategy="separable", tracer=tracer,
            parallel=executor,
        )
        hosts = list(tracer.spans("parallel.worker"))
        assert len(hosts) == sum(shares) > len(shares) > 0
        assert len(list(tracer.spans("worker.partition"))) == len(hosts)
        # One host per share, installed round by round in share order.
        assert [h.attrs["index"] for h in hosts] == [
            i for n in shares for i in range(n)]
        for host in hosts:
            assert isinstance(host.attrs["worker_pid"], int)
            assert host.attrs["task"] == "partition"
        # The three seeds share every loop: the span count of a batched
        # union does not grow with the number of seeds: a down loop, an
        # exit stage and an up loop for t_part and again for t_full.
        assert len(list(tracer.spans("separable.loop"))) == 4
        assert len(list(tracer.spans("separable.exit"))) == 2


class TestPartitionedCarryReconciliation:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_rule_counters_and_iterations_reconcile(self, workers):
        program, db = two_class_workload()
        engine = Engine(program, db)
        serial = Tracer()
        ref = engine.query(
            "t(x0, Y)?", strategy="separable", tracer=serial
        )
        executor = get_executor(ParallelConfig.eager(workers))
        stitched = Tracer()
        out = engine.query(
            "t(x0, Y)?", strategy="separable", tracer=stitched,
            parallel=executor,
        )
        assert out.answers == ref.answers
        assert out.stats.iterations == ref.stats.iterations
        serial_totals = reconciled_counter_totals(serial)
        stitched_totals = reconciled_counter_totals(stitched)
        for name in set(serial_totals) | set(stitched_totals):
            if name.startswith(("rule_apps:", "rule_out:")) or \
                    name == "iterations":
                assert stitched_totals.get(name, 0) == \
                    serial_totals.get(name, 0), name
        assert trace_violations(stitched) == []

    def test_partition_fragments_nest_inside_the_loop(self):
        program, db = two_class_workload()
        executor = get_executor(ParallelConfig.eager(2))
        tracer = Tracer()
        Engine(program, db).query(
            "t(x0, Y)?", strategy="separable", tracer=tracer,
            parallel=executor,
        )
        hosts = list(tracer.spans("parallel.worker"))
        assert hosts and all(
            h.attrs["task"] == "partition" for h in hosts
        )
        assert list(tracer.spans("worker.partition"))


class TestChromeLanes:
    def test_one_lane_per_worker_pid(self):
        program, db = branching_workload()
        executor = get_executor(ParallelConfig.eager(2))
        tracer = Tracer()
        Engine(program, db).query(
            BATCH_QUERY, strategy="separable", tracer=tracer,
            parallel=executor,
        )
        data = to_chrome_trace(tracer)
        events = data["traceEvents"]
        worker_pids = {
            e["pid"] for e in events if e["ph"] in "BE"
        } - {1}
        assert worker_pids  # at least one remote lane
        named = {
            e["pid"]: e["args"]["name"]
            for e in events if e["ph"] == "M"
        }
        assert named[1] == "parent"
        for pid in worker_pids:
            assert named[pid] == f"worker {pid}"
        # Per-lane B/E events balance in document order: each worker
        # lane reads as a well-formed track on its own.
        for pid in worker_pids | {1}:
            depth = 0
            for e in events:
                if e["pid"] != pid or e["ph"] not in "BE":
                    continue
                depth += 1 if e["ph"] == "B" else -1
                assert depth >= 0
            assert depth == 0
        # Counter-total C events stay on the parent lane.
        assert all(
            e["pid"] == 1
            for e in events
            if e["ph"] == "C" and "." not in e["name"]
        )

    def test_stitched_trace_replays_byte_identical(self):
        program, db = branching_workload()
        executor = get_executor(ParallelConfig.eager(2))
        sink = RingBufferSink()
        tracer = Tracer(sink=sink)
        Engine(program, db).query(
            BATCH_QUERY, strategy="separable", tracer=tracer,
            parallel=executor,
        )
        replayed = replay_trace(list(sink.events))
        assert json.dumps(to_chrome_trace(tracer), sort_keys=True) == \
            json.dumps(to_chrome_trace(replayed), sort_keys=True)
        assert to_metrics_text(tracer) == to_metrics_text(replayed)


class TestZeroOverheadDefault:
    def test_untraced_runs_ship_no_fragments(self):
        program, db = branching_workload()
        executor = get_executor(ParallelConfig.eager(2))
        engine = Engine(program, db)
        # Warm up (installs the db in the workers), then measure.
        engine.query(
            BATCH_QUERY, strategy="separable", parallel=executor
        )
        before = executor.fragments_received
        for _ in range(2):
            engine.query(
                BATCH_QUERY, strategy="separable", parallel=executor
            )
        assert executor.fragments_received == before

    def test_traced_runs_do_ship_fragments(self, monkeypatch):
        program, db = branching_workload()
        executor = get_executor(ParallelConfig.eager(2))
        shares = _record_partitions(monkeypatch, executor)
        before = executor.fragments_received
        Engine(program, db).query(
            BATCH_QUERY, strategy="separable", tracer=Tracer(),
            parallel=executor,
        )
        # One fragment per shipped share of every partitioned round.
        assert executor.fragments_received == before + sum(shares)
        assert sum(shares) > 0
