"""Tests for heap files (paged tuple storage)."""

import pytest

import repro.relation.relation as relation_module
from repro.core.interval import FOREVER
from repro.core.ordering import k_ordered_percentage, k_orderedness
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.storage.heapfile import HeapFile
from repro.workload.employed import employed_relation
from repro.workload.generator import WorkloadParameters, generate_relation
from repro.workload.permute import disorder_relation


class TestInMemoryHeap:
    def test_append_and_scan_roundtrip(self, employed):
        heap = HeapFile.from_relation(employed)
        assert len(heap) == 4
        assert list(heap.scan()) == employed.rows()

    def test_to_relation(self, employed):
        heap = HeapFile.from_relation(employed)
        back = heap.to_relation()
        assert back.rows() == employed.rows()

    def test_scan_triples_matches_relation(self, employed):
        heap = HeapFile.from_relation(employed)
        assert list(heap.scan_triples("salary")) == list(
            employed.scan_triples("salary")
        )

    def test_timestamps_only_fast_path(self, employed):
        heap = HeapFile.from_relation(employed)
        triples = list(heap.scan_triples())
        assert triples[0] == (18, FOREVER, None)
        assert all(v is None for _s, _e, v in triples)

    def test_page_fill(self):
        heap = HeapFile(EMPLOYED_SCHEMA)
        for i in range(130):  # needs 3 pages at 63 records/page
            heap.append(TemporalTuple(("T", i), i, i + 1))
        assert heap.page_count == 3
        assert len(list(heap.scan())) == 130

    def test_size_bytes(self):
        heap = HeapFile(EMPLOYED_SCHEMA)
        heap.append(TemporalTuple(("T", 1), 0, 1))
        heap.flush()
        assert heap.size_bytes == 8192


class TestFileBackedHeap:
    def test_persistence_across_reopen(self, tmp_path, employed):
        path = str(tmp_path / "employed.heap")
        with HeapFile.from_relation(employed, path=path) as heap:
            assert len(heap) == 4
        with HeapFile(EMPLOYED_SCHEMA, path=path) as reopened:
            assert len(reopened) == 4
            assert list(reopened.scan()) == employed.rows()

    def test_append_after_reopen_fills_tail_page(self, tmp_path, employed):
        path = str(tmp_path / "grow.heap")
        with HeapFile.from_relation(employed, path=path) as heap:
            pages_before = heap.page_count
        with HeapFile(EMPLOYED_SCHEMA, path=path) as reopened:
            reopened.append(TemporalTuple(("New", 1), 0, 5))
            assert reopened.page_count == pages_before  # tail page reused
            assert len(reopened) == 5

    def test_io_counted_through_buffer(self, tmp_path):
        path = str(tmp_path / "counted.heap")
        relation = employed_relation()
        with HeapFile.from_relation(relation, path=path) as heap:
            heap.buffer.drop_cache()
            list(heap.scan())
            assert heap.buffer.stats.page_reads >= 1

    def test_small_buffer_still_correct(self):
        source = employed_relation()
        heap = HeapFile(EMPLOYED_SCHEMA, buffer_pages=1)
        for i in range(200):
            heap.append(TemporalTuple(("T", i), i, i + 2))
        rows = list(heap.scan())
        assert len(rows) == 200
        assert rows[123].values[1] == 123
        del source


class TestScanEvaluatorIntegration:
    def test_evaluators_run_over_heap_scans(self, employed):
        from repro.core.engine import evaluate_triples
        from repro.workload.employed import TABLE_1_EXPECTED

        heap = HeapFile.from_relation(employed)
        result = evaluate_triples(
            list(heap.scan_triples()), "count", "aggregation_tree"
        )
        assert result.rows == TABLE_1_EXPECTED

    def test_two_pass_scans_heap_twice(self, employed):
        from repro.core.two_pass import TwoPassEvaluator

        heap = HeapFile.from_relation(employed)
        heap.buffer.drop_cache()
        result = TwoPassEvaluator("count").evaluate_relation(heap)
        assert len(result) == 7

    def test_unknown_attribute_raises(self, employed):
        from repro.relation.schema import SchemaError

        heap = HeapFile.from_relation(employed)
        with pytest.raises(SchemaError):
            list(heap.scan_triples("bonus"))


class TestVersionKeyedStatistics:
    """Statistics were cached keyed on the tuple count, so an in-place
    page rewrite at equal cardinality served stale order facts; the
    cache is now keyed on the version counter."""

    def test_unchanged_heap_reuses_the_cached_object(self, employed):
        heap = HeapFile.from_relation(employed)
        assert heap.statistics() is heap.statistics()

    def test_append_bumps_version_and_invalidates(self, employed):
        heap = HeapFile.from_relation(employed)
        stale = heap.statistics()
        version = heap.version
        heap.append(next(heap.scan()))
        assert heap.version == version + 1
        fresh = heap.statistics()
        assert fresh is not stale
        assert fresh.tuple_count == stale.tuple_count + 1

    def test_mark_mutated_invalidates_at_equal_cardinality(self, employed):
        heap = HeapFile.from_relation(employed)
        stale = heap.statistics()
        count = len(heap)
        heap.mark_mutated()
        fresh = heap.statistics()
        assert len(heap) == count  # no append happened...
        assert fresh is not stale  # ...yet the snapshot was recomputed


def _statistics_relation(shape):
    if shape == "empty":
        return TemporalRelation(EMPLOYED_SCHEMA)
    if shape == "sorted":
        return generate_relation(WorkloadParameters(300, seed=1)).sorted_by_time()
    if shape == "k_ordered":
        return disorder_relation(
            generate_relation(WorkloadParameters(300, seed=2)), 20, 0.08, seed=2
        )
    if shape == "unsorted":
        return generate_relation(WorkloadParameters(300, seed=3))
    return generate_relation(WorkloadParameters(300, long_lived_percent=80, seed=4))


class TestOneStatisticsComputation:
    SHAPES = ["empty", "sorted", "k_ordered", "unsorted", "long_lived_80"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_heap_and_relation_statistics_agree(self, shape):
        relation = _statistics_relation(shape)
        assert HeapFile.from_relation(relation).statistics() == relation.statistics()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fields_match_the_ordering_metrics(self, shape):
        relation = _statistics_relation(shape)
        keys = [(row.start, row.end) for row in relation]
        stats = relation.statistics()
        k = k_orderedness(keys)
        assert stats.k == k
        assert stats.is_totally_ordered == (k == 0)
        assert stats.k_ordered_percentage == (
            k_ordered_percentage(keys, k) if k else 0.0
        )
        assert stats.tuple_count == len(relation)
        assert stats.unique_timestamps == relation.unique_timestamps()
        assert stats.lifespan == relation.lifespan
        if shape == "long_lived_80":
            assert stats.long_lived_fraction > 0.5
        if shape == "k_ordered":
            assert 0 < stats.k <= 20

    def test_one_displacement_pass_per_statistics_call(self, monkeypatch):
        calls = []
        real = relation_module.displacements
        monkeypatch.setattr(
            relation_module,
            "displacements",
            lambda keys: calls.append(len(keys)) or real(keys),
        )
        relation = _statistics_relation("unsorted")
        relation.statistics()
        HeapFile.from_relation(relation).statistics()
        assert calls == [len(relation), len(relation)]
