"""Tests of the Section 6.3 optimizer rules."""

import pytest

from repro.core.aggregates import AvgAggregate, CountAggregate
from repro.core.planner import (
    choose_strategy,
    estimate_ktree_bytes,
    estimate_list_bytes,
    estimate_tree_bytes,
)
from repro.relation.relation import RelationStatistics
from repro.core.interval import Interval


def stats(
    n=1000,
    unique=1800,
    long_lived=0,
    ordered=False,
    k=500,
    percentage=0.5,
):
    if ordered:
        k, percentage = 0, 0.0
    return RelationStatistics(
        tuple_count=n,
        unique_timestamps=unique,
        long_lived_count=long_lived,
        lifespan=Interval(0, 10_000),
        is_totally_ordered=ordered,
        k=k,
        k_ordered_percentage=percentage,
    )


class TestEstimators:
    def test_tree_estimate_uses_two_nodes_per_timestamp(self):
        # Section 7: each unique timestamp adds two nodes to the tree.
        assert estimate_tree_bytes(10) == (2 * 10 + 1) * 20

    def test_list_estimate_uses_one_cell_per_timestamp(self):
        assert estimate_list_bytes(10) == (10 + 1) * 20

    def test_estimates_scale_with_aggregate_state(self):
        count = estimate_tree_bytes(10, CountAggregate())
        avg = estimate_tree_bytes(10, AvgAggregate())
        assert avg > count  # AVG stores 8 state bytes, COUNT 4

    def test_ktree_estimate_grows_with_long_lived(self):
        lean = estimate_ktree_bytes(1, 0.0, 10_000)
        heavy = estimate_ktree_bytes(1, 0.8, 10_000)
        assert heavy > 10 * lean


class TestDecisions:
    def test_sorted_relation_gets_ktree_k1(self):
        decision = choose_strategy(stats(ordered=True))
        assert decision.strategy == "kordered_tree"
        assert decision.k == 1
        assert not decision.sort_first

    def test_nearly_sorted_uses_measured_k(self):
        decision = choose_strategy(stats(k=12, percentage=0.1))
        assert decision.strategy == "kordered_tree"
        assert decision.k == 12

    def test_unordered_with_cheap_memory_gets_tree(self):
        decision = choose_strategy(stats())
        assert decision.strategy == "aggregation_tree"
        assert not decision.sort_first

    def test_unordered_with_budget_gets_sort_plus_ktree(self):
        decision = choose_strategy(stats(), memory_budget_bytes=100)
        assert decision.strategy == "kordered_tree"
        assert decision.sort_first
        assert decision.k == 1

    def test_memory_dearer_than_io_gets_sort_plan(self):
        decision = choose_strategy(stats(), memory_cheaper_than_io=False)
        assert decision.sort_first

    def test_few_constant_intervals_gets_linked_list(self):
        """The student-records / coarse-granularity case of Section 6.3."""
        decision = choose_strategy(stats(n=100_000, unique=12))
        assert decision.strategy == "linked_list"

    def test_declared_retroactive_bound_skips_measurement(self):
        decision = choose_strategy(stats(), declared_k=7)
        assert decision.strategy == "kordered_tree"
        assert decision.k == 7
        assert not decision.sort_first
        assert "retroactively bounded" in decision.reason

    def test_declared_k_zero_clamped_to_one(self):
        decision = choose_strategy(stats(), declared_k=0)
        assert decision.k == 1

    def test_budget_within_tree_size_keeps_tree(self):
        generous = estimate_tree_bytes(1800) + 1
        decision = choose_strategy(stats(), memory_budget_bytes=generous)
        assert decision.strategy == "aggregation_tree"

    def test_describe_mentions_plan_shape(self):
        decision = choose_strategy(stats(), memory_budget_bytes=100)
        text = decision.describe()
        assert "sort + " in text
        assert "k=1" in text

    def test_estimated_bytes_populated(self):
        for decision in (
            choose_strategy(stats()),
            choose_strategy(stats(ordered=True)),
            choose_strategy(stats(n=100_000, unique=12)),
        ):
            assert decision.estimated_bytes > 0


class TestParallelRule:
    """The post-paper rule: large + unsorted + invertible → sweep,
    sharded only across a running multi-worker resident pool."""

    def big_stats(self):
        # k is half of n: nowhere near "nearly sorted".
        return stats(n=100_000, unique=150_000, k=50_000)

    def test_multicore_gets_parallel_sweep(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "parallel_sweep"
        assert decision.shards == 4
        assert "shards=4" in decision.describe()

    def test_single_core_gets_columnar_sweep(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 1)
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "columnar_sweep"
        assert decision.shards is None

    def test_many_cores_without_a_running_pool_get_columnar_sweep(
        self, monkeypatch
    ):
        """Cores alone never license the parallel plan: with no pool
        running its shards would run in-process, slower than one
        columnar sweep."""
        from repro.exec import pool as pool_module

        pool_module.shutdown_default_pool()
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "columnar_sweep"

    def test_running_pool_below_its_threshold_gets_columnar_sweep(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "1000000")
        decision = choose_strategy(self.big_stats(), aggregate=CountAggregate())
        assert decision.strategy == "columnar_sweep"

    def test_non_invertible_falls_through_to_tree(self, monkeypatch):
        from repro.core.aggregates import MaxAggregate

        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        decision = choose_strategy(self.big_stats(), aggregate=MaxAggregate())
        assert decision.strategy == "aggregation_tree"

    def test_small_input_falls_through_to_tree(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        decision = choose_strategy(stats(), aggregate=CountAggregate())
        assert decision.strategy == "aggregation_tree"

    def test_tight_budget_falls_through_to_sort_plan(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        decision = choose_strategy(
            self.big_stats(),
            aggregate=CountAggregate(),
            memory_budget_bytes=64,
        )
        assert decision.strategy == "kordered_tree"
        assert decision.sort_first

    def test_sorted_input_never_takes_parallel_path(self, monkeypatch):
        monkeypatch.setattr("repro.exec.pool.running_workers", lambda: 4)
        decision = choose_strategy(
            stats(n=100_000, unique=150_000, ordered=True),
            aggregate=CountAggregate(),
        )
        assert decision.strategy == "kordered_tree"
        assert decision.k == 1


class TestCostBasedPlanner:
    def test_sorted_relation_priced_to_ktree(self):
        from repro.core.planner import choose_strategy_cost_based

        decision = choose_strategy_cost_based(stats(ordered=True))
        assert decision.strategy == "kordered_tree"
        assert decision.k == 1
        assert "cost-based" in decision.reason

    def test_budget_excludes_hungry_strategies(self):
        from repro.core.planner import choose_strategy_cost_based

        generous = choose_strategy_cost_based(stats())
        tight = choose_strategy_cost_based(stats(), memory_budget_bytes=5_000)
        # The tight budget must pick something whose estimate fits.
        assert tight.estimated_bytes <= 5_000 or tight.sort_first
        assert generous.strategy in (
            "aggregation_tree",
            "kordered_tree",
            "linked_list",
        )

    def test_impossible_budget_falls_back_to_sort_plan(self):
        from repro.core.planner import choose_strategy_cost_based

        decision = choose_strategy_cost_based(stats(), memory_budget_bytes=1)
        assert "no candidate fits" in decision.reason
        assert decision.sort_first

    def test_agrees_with_measurement_on_real_relations(
        self, small_random_relation
    ):
        from repro.bench.measure import measure_strategy
        from repro.core.planner import choose_strategy_cost_based

        for relation in (small_random_relation, small_random_relation.sorted_by_time()):
            statistics = relation.statistics()
            decision = choose_strategy_cost_based(statistics)
            triples = list(relation.scan_triples())
            chosen = measure_strategy(
                decision.strategy, triples, k=decision.k
            ).work
            naive = measure_strategy("linked_list", triples).work
            assert chosen <= naive


class TestDecisionsMatchMeasurement:
    """The planner's choice should actually win on its own regime."""

    @pytest.mark.parametrize(
        "make_input,expected",
        [
            (lambda rel: rel, "aggregation_tree"),
            (lambda rel: rel.sorted_by_time(), "kordered_tree"),
        ],
    )
    def test_choice_is_no_worse_than_alternatives(
        self, small_random_relation, make_input, expected
    ):
        from repro.bench.measure import measure_strategy

        relation = make_input(small_random_relation)
        decision = choose_strategy(relation.statistics())
        assert decision.strategy == expected

        triples = list(relation.scan_triples())
        chosen = measure_strategy(
            decision.strategy, triples, k=decision.k
        )
        naive = measure_strategy("linked_list", triples)
        assert chosen.work <= naive.work
