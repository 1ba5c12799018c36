"""The family registry: resolution, construction, cells and gates."""

import json
from pathlib import Path

import pytest

from repro.bench.families import FAMILIES, Workload, resolve_families
from repro.bench.gating import Agrees, Bound, Ratio
from repro.datalog.parser import parse_query
from repro.datalog.plan_cache import ORDERS
from repro.engine import STRATEGIES

BASELINES = sorted(Path(__file__).parents[2].glob("BENCH_*.json"))


class TestResolve:
    def test_all_keyword(self):
        assert resolve_families("all") == list(FAMILIES.values())

    def test_none_means_all(self):
        assert resolve_families(None) == list(FAMILIES.values())

    def test_subset_keeps_input_order(self):
        picked = resolve_families("e5,e1")
        assert [f.key for f in picked] == ["e5", "e1"]

    def test_whitespace_and_case_tolerated(self):
        picked = resolve_families(" E1 , e2 ")
        assert [f.key for f in picked] == ["e1", "e2"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown famil"):
            resolve_families("e1,nope")


class TestRegistry:
    def test_registry_keys(self):
        assert list(FAMILIES) == [f"e{i}" for i in range(1, 10)] + [
            "incremental-write", "out-of-core", "skewed-join",
        ]

    @pytest.mark.parametrize("key", list(FAMILIES))
    def test_build_produces_runnable_workload(self, key):
        family = FAMILIES[key]
        workload = family.build(4)
        assert isinstance(workload, Workload)
        query = parse_query(workload.query)
        assert query.predicate
        assert family.cells

    @pytest.mark.parametrize("key", list(FAMILIES))
    def test_cells_say_what_they_run(self, key):
        cells = FAMILIES[key].cells
        assert len({cell.label for cell in cells}) == len(cells)
        for cell in cells:
            assert cell.order in ORDERS
            if cell.kind == "query":
                assert cell.strategy in STRATEGIES
            else:
                assert cell.kind in (
                    "detect", "repair", "recompute", "build",
                )
                assert (cell.strategy, cell.backend) == (None, None)

    @pytest.mark.parametrize("key", list(FAMILIES))
    def test_gates_name_cells_of_their_family(self, key):
        labels = {cell.label for cell in FAMILIES[key].cells}
        for gate in FAMILIES[key].gates:
            if isinstance(gate, (Agrees, Ratio)):
                assert gate.reference in labels
            if isinstance(gate, Agrees):
                assert set(gate.cells) <= labels
            if isinstance(gate, Ratio):
                assert gate.cell in labels
                assert gate.sizes in ("all", "largest", "any")
            if isinstance(gate, Bound):
                assert set(gate.cells) <= labels

    @pytest.mark.parametrize(
        "path", BASELINES, ids=[path.stem for path in BASELINES]
    )
    def test_labels_match_the_committed_baseline(self, path):
        """Cell labels are the on-disk contract: a renamed label would
        orphan every baseline cell recorded under the old one."""
        report = json.loads(path.read_text())
        family = FAMILIES[report["family"]]
        assert {cell.label for cell in family.cells} == {
            cell["strategy"] for cell in report["results"]
        }

    def test_mutation_streams_are_balanced(self):
        """Every insert is deleted again: replays are idempotent."""
        for family in FAMILIES.values():
            if family.mutations is None:
                continue
            for n in (4, 9):
                ops = family.mutations(n)
                added = [
                    (rel, fact) for op, rel, fact in ops if op == "add"
                ]
                removed = [
                    (rel, fact) for op, rel, fact in ops if op == "del"
                ]
                assert sorted(added) == sorted(removed)
                assert len(set(added)) == len(added)

    def test_sizes_scale_the_data(self):
        small = FAMILIES["e2"].build(4)
        large = FAMILIES["e2"].build(16)
        total = lambda db: sum(
            db.size(p) for p in db.predicates()
        )
        assert total(large.db) > total(small.db)
