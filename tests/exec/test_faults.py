"""Deterministic fault-injection suite: every recovery path, exact results.

These tests force resident pool workers to die, hang, and poison their
results, then assert the engine still returns byte-identical rows to
the brute-force oracle for all five aggregates.  The shards reach the
workers the way production sweeps do: identified relation columns, a
running pool, and the pool threshold (``REPRO_POOL_MIN_TUPLES``)
lowered to the corpus size.  They are marked ``faults`` so CI can run
them as a dedicated job (``pytest -m faults``); they also run in the
default suite.
"""

import multiprocessing

import pytest

from repro.core.parallel import ParallelSweepEvaluator
from repro.core.planner import choose_strategy
from repro.core.reference import ReferenceEvaluator
from repro.exec import pool as pool_module
from repro.exec.faults import (
    FaultPlan,
    ShardFault,
    clear_fault_plan,
    current_fault_plan,
    fault_plan,
    install_fault_plan,
)
from repro.exec.supervision import RetryPolicy
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from tests.conftest import random_triples

pytestmark = pytest.mark.faults

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the resident pool needs the fork start method",
)

AGGREGATES = ["count", "sum", "min", "max", "avg"]

#: Fast retries so the whole suite stays inside CI timeouts.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


@pytest.fixture(scope="module")
def running_pool():
    """One started 4-worker default pool for the module: 4 shards land
    on 4 distinct workers, and respawned workers carry over between
    tests exactly as they would between served statements."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_POOL_MIN_TUPLES", "64")
        pool_module.shutdown_default_pool()
        pool = pool_module.default_pool(4)
        pool.start()
        try:
            yield pool
        finally:
            pool_module.shutdown_default_pool()


def corpus(seed=7, n=500):
    return random_triples(seed, n, max_instant=300)


def relation_of(triples):
    """An identified relation (uid + version) over the corpus."""
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="faults")
    relation.append_batch(
        [((f"w{index}", value), start, end)
         for index, (start, end, value) in enumerate(triples)]
    )
    return relation


def evaluate_under(plan, aggregate, data, **kwargs):
    evaluator = ParallelSweepEvaluator(
        aggregate,
        shards=4,
        retry=kwargs.pop("retry", FAST_RETRY),
        **kwargs,
    )
    relation = relation_of(data)
    with fault_plan(plan):
        result = evaluator.evaluate_relation(
            relation, None if aggregate == "count" else "salary"
        )
    report = evaluator.last_supervision
    assert report is not None, "the shards never reached the pool"
    assert report.total_shards == 4
    return result, report


class TestPlanMechanics:
    def test_install_and_clear(self):
        plan = FaultPlan(name="t")
        install_fault_plan(plan)
        assert current_fault_plan() is plan
        clear_fault_plan()
        assert current_fault_plan() is None

    def test_context_manager_restores(self):
        outer = FaultPlan(name="outer")
        inner = FaultPlan(name="inner")
        install_fault_plan(outer)
        with fault_plan(inner):
            assert current_fault_plan() is inner
        assert current_fault_plan() is outer
        clear_fault_plan()

    def test_fault_matching_is_attempt_bounded(self):
        plan = FaultPlan(shard_faults=(ShardFault(2, "raise", attempts=2),))
        assert plan.fault_for(2, 1) is not None
        assert plan.fault_for(2, 2) is not None
        assert plan.fault_for(2, 3) is None
        assert plan.fault_for(1, 1) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ShardFault(0, "meteor")

    def test_inflate_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(inflate_bytes=0)


@needs_fork
@pytest.mark.usefixtures("running_pool")
class TestKilledShards:
    """The acceptance scenario: kill 2 of 4 workers, answers unchanged."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_two_killed_shards_exact_for_all_aggregates(self, aggregate):
        data = corpus()
        reference = ReferenceEvaluator(aggregate).evaluate(data)
        plan = FaultPlan(
            shard_faults=(ShardFault(1, "kill"), ShardFault(2, "kill")),
            name="kill-2-of-4",
        )
        result, report = evaluate_under(plan, aggregate, data)
        assert result.rows == reference.rows
        assert report.degraded  # the kills really happened
        assert report.respawns >= 1

    def test_injected_raise_is_retried_not_fatal(self):
        data = corpus(seed=8)
        reference = ReferenceEvaluator("sum").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(0, "raise"),))
        result, report = evaluate_under(plan, "sum", data)
        assert result.rows == reference.rows
        assert report.retries >= 1
        assert report.respawns == 0  # plain exception, worker intact


@needs_fork
@pytest.mark.usefixtures("running_pool")
class TestPoolWideDeath:
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_every_worker_dying_falls_back_in_process(self, aggregate):
        data = corpus(seed=9)
        reference = ReferenceEvaluator(aggregate).evaluate(data)
        plan = FaultPlan(
            shard_faults=tuple(
                ShardFault(i, "kill", attempts=99) for i in range(4)
            ),
            name="pool-death",
        )
        result, report = evaluate_under(
            plan, aggregate, data, retry=RetryPolicy(max_attempts=2, base_delay=0.01)
        )
        assert result.rows == reference.rows
        assert report.inprocess_shards == 4
        assert report.respawns >= 4
        assert len(report.failures) == 4
        assert all(f.attempts == 2 for f in report.failures)


@needs_fork
@pytest.mark.usefixtures("running_pool")
class TestPoisonedResults:
    def test_unpicklable_result_is_retried(self):
        data = corpus(seed=10)
        reference = ReferenceEvaluator("avg").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(3, "poison"),))
        result, report = evaluate_under(plan, "avg", data)
        assert result.rows == reference.rows
        assert report.retries >= 1

    def test_permanently_poisoned_shard_recovers_in_process(self):
        data = corpus(seed=11)
        reference = ReferenceEvaluator("count").evaluate(data)
        plan = FaultPlan(shard_faults=(ShardFault(0, "poison", attempts=99),))
        result, report = evaluate_under(plan, "count", data)
        assert result.rows == reference.rows
        assert report.inprocess_shards == 1


@needs_fork
@pytest.mark.usefixtures("running_pool")
class TestHungShards:
    def test_delayed_worker_times_out_and_retry_succeeds(self):
        data = corpus(seed=12)
        reference = ReferenceEvaluator("sum").evaluate(data)
        plan = FaultPlan(
            shard_faults=(ShardFault(2, "delay", delay_seconds=1.0),)
        )
        result, report = evaluate_under(
            plan, "sum", data, shard_timeout=0.2
        )
        assert result.rows == reference.rows
        assert report.timeouts >= 1


class TestByteInflation:
    def test_planner_consults_the_inflation_hook(self):
        """Inflated byte estimates push the planner off the in-memory
        tree even for inputs that would normally fit the budget."""
        from repro.workload.generator import WorkloadParameters, generate_relation

        relation = generate_relation(
            WorkloadParameters(tuples=500, long_lived_percent=30, seed=3)
        )
        statistics = relation.statistics()
        unconstrained = choose_strategy(statistics, memory_budget_bytes=10**6)
        with fault_plan(FaultPlan(inflate_bytes=1e9)):
            constrained = choose_strategy(statistics, memory_budget_bytes=10**6)
        assert unconstrained.strategy != constrained.strategy or (
            constrained.sort_first and not unconstrained.sort_first
        )

    def test_inflation_trips_the_memory_guard(self):
        from repro.core.aggregation_tree import AggregationTreeEvaluator
        from repro.exec.budget import MemoryGuard, evaluate_with_degradation

        data = random_triples(21, 600, max_instant=600)
        reference = ReferenceEvaluator("count").evaluate(data)
        evaluator = AggregationTreeEvaluator("count")
        with fault_plan(FaultPlan(inflate_bytes=1000.0)):
            guard = MemoryGuard(10**6, evaluator.space)
            result, trip = evaluate_with_degradation(evaluator, data, guard)
        evaluator.space.inflation = 1.0
        assert trip is not None  # a 1000x inflation trips a 1 MB budget
        assert result.rows == reference.rows
