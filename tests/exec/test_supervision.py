"""Supervision primitives and the in-process shard path (no pool needed)."""

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import window_rows
from repro.exec import pool as pool_module
from repro.exec.deadline import Deadline
from repro.exec.errors import DeadlineExceeded
from repro.exec.pool import sweep_shards
from repro.exec.supervision import RetryPolicy, SupervisionReport

STARTS = [0, 5, 9, 20, 31]
ENDS = [12, 7, 40, 25, 33]
VALUES = [3, 1, 4, 1, 5]
WINDOWS = [(0, 9), (10, 19), (20, 29), (30, 39), (40, 2**62)]


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff(3, 2) == policy.backoff(3, 2)

    def test_backoff_grows_with_attempts(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=10.0, jitter=0.0)
        assert policy.backoff(0, 1) < policy.backoff(0, 2) < policy.backoff(0, 3)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=0.25)
        assert policy.backoff(0, 10) == 0.25

    def test_jitter_decorrelates_shards(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=1.0)
        delays = {policy.backoff(shard, 1) for shard in range(8)}
        assert len(delays) > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestSupervisionReport:
    def test_clean_run_is_not_degraded(self):
        assert not SupervisionReport(total_shards=4, pooled_shards=4).degraded

    @pytest.mark.parametrize(
        "field", ["retries", "respawns", "inprocess_shards"]
    )
    def test_any_recovery_marks_degraded(self, field):
        report = SupervisionReport(total_shards=4)
        setattr(report, field, 1)
        assert report.degraded


class TestInProcessSupervision:
    """With no pool running, :func:`sweep_shards` sweeps every window
    here, in window order, checking the deadline between shards."""

    @pytest.fixture(autouse=True)
    def no_pool(self):
        pool_module.shutdown_default_pool()

    def test_results_arrive_in_window_order(self):
        aggregate = get_aggregate("sum")
        results, report = sweep_shards(
            STARTS, ENDS, VALUES, WINDOWS, aggregate
        )
        assert report is None
        assert results == [
            window_rows(STARTS, ENDS, VALUES, aggregate, lo, hi)
            for lo, hi in WINDOWS
        ]

    def test_empty_window_list(self):
        assert sweep_shards(
            STARTS, ENDS, VALUES, [], get_aggregate("count")
        ) == ([], None)

    def test_deadline_checked_between_shards(self):
        deadline = Deadline(0.0001)
        with pytest.raises(DeadlineExceeded) as info:
            sweep_shards(
                STARTS, ENDS, VALUES, WINDOWS[:3], get_aggregate("sum"),
                deadline=deadline,
            )
        assert info.value.progress["total_shards"] == 3
