"""Property tests: sharded evaluation is exactly the oracle.

The acceptance bar for the time-partitioned path: for every aggregate
and every shard count, ``parallel_sweep`` (and the ``columnar_sweep``
kernel it runs per shard) returns *row-for-row* the same result as the
brute-force :class:`~repro.core.reference.ReferenceEvaluator` —
including row boundaries, which the seam-stitching step must restore.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import temporal_aggregate
from repro.core.interval import FOREVER
from repro.core.parallel import ParallelSweepEvaluator
from repro.core.columnar_sweep import ColumnarSweepEvaluator
from repro.core.reference import ReferenceEvaluator
from repro.exec import pool as pool_module
from repro.metrics.counters import OperationCounters
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from tests.conftest import random_triples

AGGREGATES = ["count", "sum", "min", "max", "avg"]
SHARD_COUNTS = [1, 2, 3, 7]

#: Small hand-picked corpora covering the shapes that break naive
#: partitioning: nothing, one tuple, total overlap, and tuples that
#: straddle every plausible shard boundary.
EDGE_CORPORA = {
    "empty": [],
    "single": [(5, 9, 3)],
    "all_overlapping": [(0, 100, 1), (0, 100, 2), (0, 100, 5)],
    "boundary_straddling": [
        (0, FOREVER, 4),
        (10, 90, 2),
        (45, 55, 7),
        (50, 50, 1),
    ],
    "abutting": [(0, 49, 1), (50, 99, 2), (100, 149, 3)],
}

triples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=-20, max_value=50),
    ).map(lambda t: (t[0], t[0] + t[1], t[2])),
    max_size=40,
)


def reference_rows(aggregate, triples):
    return ReferenceEvaluator(aggregate).evaluate(list(triples)).rows


class TestEdgeCorpora:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("corpus", sorted(EDGE_CORPORA))
    def test_matches_reference(self, aggregate, shards, corpus):
        triples = EDGE_CORPORA[corpus]
        expected = reference_rows(aggregate, triples)
        result = ParallelSweepEvaluator(aggregate, shards=shards).evaluate(
            list(triples)
        )
        assert result.rows == expected


class TestRandomCorpora:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, aggregate, shards, seed):
        triples = random_triples(seed=seed, n=150)
        expected = reference_rows(aggregate, triples)
        result = ParallelSweepEvaluator(aggregate, shards=shards).evaluate(
            list(triples)
        )
        assert result.rows == expected

    @settings(max_examples=40, deadline=None)
    @given(triples=triples_strategy, shards=st.sampled_from(SHARD_COUNTS))
    def test_hypothesis_count_and_avg(self, triples, shards):
        for aggregate in ("count", "avg"):
            expected = reference_rows(aggregate, triples)
            result = ParallelSweepEvaluator(
                aggregate, shards=shards
            ).evaluate(list(triples))
            assert result.rows == expected


def identified_relation(triples):
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="sharded")
    relation.append_batch(
        [((f"w{index}", value), start, end)
         for index, (start, end, value) in enumerate(triples)]
    )
    return relation


@pytest.fixture()
def running_pool(monkeypatch):
    """A started 2-worker default pool (None where fork is missing)."""
    monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "64")
    pool_module.shutdown_default_pool()
    pool = pool_module.default_pool(2)
    if pool is not None:
        pool.start()
    yield pool
    pool_module.shutdown_default_pool()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the resident pool needs the fork start method",
)
class TestProcessPool:
    """The real resident-worker path: identified columns, a running
    pool, and the pool threshold lowered to the input size."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_pool_matches_reference(self, running_pool, aggregate):
        triples = random_triples(seed=5, n=400)
        expected = reference_rows(aggregate, triples)
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator(
            aggregate, shards=4, counters=counters
        )
        result = evaluator.evaluate_relation(
            identified_relation(triples),
            None if aggregate == "count" else "salary",
        )
        assert result.rows == expected
        assert counters.pool_shards == 4
        assert evaluator.last_supervision.pooled_shards == 4

    def test_pool_auto_off_below_threshold(self, running_pool, monkeypatch):
        relation = identified_relation(random_triples(seed=5, n=400))
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "401")
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator("count", shards=2, counters=counters)
        evaluator.evaluate_relation(relation)
        assert counters.pool_shards == 0
        assert evaluator.last_supervision is None
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "400")
        evaluator.evaluate_relation(relation)
        assert counters.pool_shards == 2

    def test_default_shard_count_follows_the_running_pool(self, running_pool):
        triples = random_triples(seed=6, n=300)
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator("sum", counters=counters)
        result = evaluator.evaluate_relation(
            identified_relation(triples), "salary"
        )
        assert result.rows == reference_rows("sum", triples)
        assert counters.pool_shards == running_pool.worker_count

    def test_anonymous_triples_stay_in_process(self, running_pool):
        triples = random_triples(seed=5, n=400)
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator("count", shards=4, counters=counters)
        assert evaluator.evaluate(list(triples)).rows == reference_rows(
            "count", triples
        )
        assert counters.pool_shards == 0


class TestCustomAggregates:
    def test_unregistered_aggregate_runs_in_process(
        self, running_pool, monkeypatch
    ):
        from repro.core.aggregates import SumAggregate

        class DoubledSum(SumAggregate):
            """Registered name 'sum' but a different type: the pool
            cannot rebuild it by name, so shards run in-process."""

            def finalize(self, state):
                return None if state is None else 2 * state

        triples = random_triples(seed=9, n=120)
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "0")
        counters = OperationCounters()
        evaluator = ParallelSweepEvaluator(
            DoubledSum(), shards=3, counters=counters
        )
        result = evaluator.evaluate_relation(
            identified_relation(triples), "salary"
        )
        expected = ReferenceEvaluator(DoubledSum()).evaluate(list(triples))
        assert result.rows == expected.rows
        assert counters.pool_shards == 0
        assert evaluator.last_supervision is None


class TestEngineIntegration:
    @pytest.mark.parametrize("strategy", ["parallel_sweep", "columnar_sweep"])
    def test_through_temporal_aggregate(self, small_random_relation, strategy):
        expected = temporal_aggregate(
            small_random_relation, "sum", "salary", strategy="reference"
        )
        result = temporal_aggregate(
            small_random_relation, "sum", "salary", strategy=strategy
        )
        assert result.rows == expected.rows

    def test_shards_parameter_flows_through(self, small_random_relation):
        expected = temporal_aggregate(
            small_random_relation, "count", strategy="reference"
        )
        result = temporal_aggregate(
            small_random_relation, "count", strategy="parallel_sweep", shards=3
        )
        assert result.rows == expected.rows

    def test_counters_aggregate_across_shards(self):
        triples = random_triples(seed=4, n=200)
        single = OperationCounters()
        ColumnarSweepEvaluator("count", counters=single).evaluate(list(triples))
        sharded = OperationCounters()
        ParallelSweepEvaluator("count", shards=4, counters=sharded).evaluate(
            list(triples)
        )
        # Clipping spanning tuples duplicates their events, never loses them.
        assert sharded.tuples == single.tuples
        assert sharded.node_visits >= single.node_visits
        assert sharded.emitted == single.emitted
