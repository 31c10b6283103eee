"""Serving over the resident execution backend.

The two acceptance claims of the backend at the serving layer:

* **Single-flight coalescing** — N identical concurrent statements
  against the same pinned snapshot cost exactly one evaluation and one
  encoded reply; every client receives identical rows, and the
  scheduler's counters prove the shape (``statements_started == 1``,
  ``coalesced_statements == N - 1``).
* **Crash-isolated execution** — a resident worker killed mid-query is
  respawned by the supervisor and the swarm's replies stay
  row-identical to the serial replay oracle, for all five paper
  aggregates.

Plus the hygiene bookend: a server that started the pool unlinks every
shared-memory segment when it stops — and the off switch: a server with
``pool_workers=0`` never forks at all.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.exec import pool as pool_module
from repro.exec.faults import FaultPlan, ShardFault, fault_plan
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.relation.tuples import TemporalTuple
from repro.serve import QueryClient
from repro.serve.swarm import SwarmStep, run_swarm, verify_swarm

from tests.serve.conftest import make_relation, serve

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the resident pool needs the fork start method",
)

COUNT = "SELECT COUNT(name) FROM jobs"
SUM = "SELECT SUM(salary) FROM jobs"
MIXED = (
    "SELECT COUNT(name), SUM(salary), MIN(salary), MAX(salary), "
    "AVG(salary) FROM jobs"
)
QUERIES = [
    COUNT,
    SUM,
    "SELECT MIN(salary) FROM jobs",
    "SELECT MAX(salary) FROM jobs",
    "SELECT AVG(salary) FROM jobs",
]

#: Ladder lifted far above any fleet here: the degradation level is
#: part of the coalesce key, so proving coalescing needs one level.
HIGH_LADDER = dict(shed_load=100.0, degrade_load=100.0, reject_load=100.0)


def shm_names():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("repro-pool-")
        }
    except FileNotFoundError:
        return set()


def fan_out(host, port, texts):
    """Fire one query per thread through its own session, barrier-
    synchronized so the statements overlap; returns replies in thread
    order."""
    barrier = threading.Barrier(len(texts))
    replies = [None] * len(texts)
    errors = []

    def go(index, text):
        try:
            with QueryClient(host, port) as client:
                barrier.wait(timeout=30.0)
                replies[index] = client.query(text)
        except BaseException as error:
            errors.append(error)
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [
        threading.Thread(target=go, args=(index, text))
        for index, text in enumerate(texts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    if errors:
        raise errors[0]
    return replies


class TestCoalescing:
    def test_identical_statements_share_one_flight(self):
        """Six identical concurrent statements: one sweep, one encode,
        six identical replies."""
        n_clients = 6
        with serve(
            make_relation(200),
            workers=n_clients,
            max_sessions=n_clients + 2,
            debug_statement_delay_ms=150,
            **HIGH_LADDER,
        ) as runner:
            replies = fan_out(
                runner.host, runner.port, [COUNT] * n_clients
            )
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()

        rows = [reply.rows for reply in replies]
        assert all(candidate == rows[0] for candidate in rows)
        assert all(
            reply.pinned_version == replies[0].pinned_version
            for reply in replies
        )
        scheduler = stats["scheduler"]
        assert scheduler["statements_started"] == 1
        assert scheduler["coalesced_statements"] == n_clients - 1

    def test_different_statements_do_not_coalesce(self):
        with serve(
            make_relation(200),
            workers=len(QUERIES),
            max_sessions=len(QUERIES) + 2,
            debug_statement_delay_ms=100,
            **HIGH_LADDER,
        ) as runner:
            replies = fan_out(runner.host, runner.port, list(QUERIES))
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()
        assert all(reply.rows for reply in replies)
        scheduler = stats["scheduler"]
        assert scheduler["statements_started"] == len(QUERIES)
        assert scheduler["coalesced_statements"] == 0

    def test_coalescing_can_be_disabled(self):
        n_clients = 4
        with serve(
            make_relation(200),
            workers=n_clients,
            max_sessions=n_clients + 2,
            debug_statement_delay_ms=100,
            coalesce=False,
            **HIGH_LADDER,
        ) as runner:
            replies = fan_out(
                runner.host, runner.port, [SUM] * n_clients
            )
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()
        rows = [reply.rows for reply in replies]
        assert all(candidate == rows[0] for candidate in rows)
        scheduler = stats["scheduler"]
        assert scheduler["statements_started"] == n_clients
        assert scheduler["coalesced_statements"] == 0

    def test_append_between_queries_is_never_coalesced_across(self):
        """A statement admitted after an append pins the *new* version,
        so it can never join a pre-append flight (stale reuse)."""
        with serve(
            make_relation(100),
            workers=4,
            debug_statement_delay_ms=50,
            **HIGH_LADDER,
        ) as runner:
            with QueryClient(runner.host, runner.port) as first:
                before = first.query(COUNT)
                first.append(
                    "jobs", [["zz", 999, 0, 500]]
                )
                after = first.query(COUNT)
            with QueryClient(runner.host, runner.port) as observer:
                stats = observer.stats()
        assert after.pinned_version > before.pinned_version
        assert after.rows != before.rows
        assert stats["scheduler"]["coalesced_statements"] == 0


@needs_fork
class TestPoolBackedSwarm:
    def test_swarm_with_resident_worker_kill_matches_serial(
        self, monkeypatch
    ):
        """10 concurrent clients (readers + appenders) with a resident
        worker killed mid-query: the supervisor respawns it (pool forks
        exceed the configured worker count) and every reply is
        row-identical to the serial replay."""
        n = 400
        # Make the resident backend reachable on any machine: the
        # planner's cached_sweep rule fires at this size, shards into
        # multiple time windows regardless of cpu_count, and the pool's
        # publish threshold sits below the relation size.
        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 4
        )
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "64")

        def reader(i):
            steps = []
            for j in range(3):
                steps.append(
                    SwarmStep("query", text=QUERIES[(i + j) % len(QUERIES)])
                )
                steps.append(SwarmStep("stall", seconds=0.01 * (i % 3)))
            return steps

        def appender(i):
            steps = []
            for j in range(2):
                rows = tuple(
                    (
                        f"a{i}b{j}r{k}",
                        100 * i + 10 * j + k,
                        5 * k,
                        5 * k + 20 + i,
                    )
                    for k in range(3)
                )
                steps.append(SwarmStep("append", table="jobs", rows=rows))
                steps.append(SwarmStep("query", text=MIXED))
            return steps

        scripts = [reader(i) for i in range(8)] + [appender(8), appender(9)]
        plan = FaultPlan(
            name="kill-resident",
            shard_faults=(ShardFault(shard=0, kind="kill", attempts=1),),
        )
        with serve(
            make_relation(n),
            workers=4,
            max_sessions=32,
            pool_workers=2,
            # Coalescing stays on: coalesced statements must be exact
            # too, they reuse the leader's (verified) rows.
            **HIGH_LADDER,
        ) as runner:
            with fault_plan(plan):
                reports = run_swarm(runner.host, runner.port, scripts)
            with QueryClient(runner.host, runner.port) as client:
                assert client.query(COUNT).rows
                stats = client.stats()

        unexpected = [(r.client_id, r.errors) for r in reports if r.errors]
        assert not unexpected, f"swarm clients failed: {unexpected}"
        appends = [a for r in reports for a in r.appends]
        assert len(appends) == 4
        verified = verify_swarm(lambda: make_relation(n), reports, "jobs")
        assert verified >= 28  # 8 readers x 3 + 2 appenders x 2
        # The kill fired inside at least one resident worker and the
        # supervisor replaced it: more forks than configured workers.
        pool_stats = stats["pool"]
        assert pool_stats["workers"] == 2
        assert pool_stats["forks"] > 2

    def test_server_stop_unlinks_all_segments(self, monkeypatch):
        monkeypatch.setattr("repro.core.planner.CACHE_MIN_TUPLES", 64)
        monkeypatch.setattr(
            "repro.core.planner.available_workers", lambda cap=8: 4
        )
        monkeypatch.setenv("REPRO_POOL_MIN_TUPLES", "64")
        before = shm_names()
        with serve(
            make_relation(400), workers=4, pool_workers=1, **HIGH_LADDER
        ) as runner:
            with QueryClient(runner.host, runner.port) as client:
                # Twice: the planner's repeat detection licenses the
                # cached (pool-backed) sweep on the second sighting.
                client.query(SUM)
                client.query(SUM)
                stats = client.stats()
            assert stats["pool"]["forks"] == 1
            assert stats["pool"]["live_segments"] > 0
        assert shm_names() == before


def unsorted_relation(n: int) -> TemporalRelation:
    """A large, far-from-sorted relation with many distinct endpoints:
    the planner's columnar/parallel sweep regime."""
    rows = [
        TemporalTuple(
            (f"p{i}", (i * 37) % 1000),
            (i * 7919) % 100_003,
            (i * 7919) % 100_003 + i % 50,
        )
        for i in range(n)
    ]
    return TemporalRelation(EMPLOYED_SCHEMA, rows, name="jobs")


class TestPoolOff:
    def test_pool_workers_zero_never_forks(self, monkeypatch):
        """``ServerConfig(pool_workers=0)`` evaluates in-process: a cold
        SUM over a 32K unsorted relation, on a host offering two cores
        (two shards), starts no pool and leaves no child process."""
        monkeypatch.delenv("REPRO_POOL_MIN_TUPLES", raising=False)
        monkeypatch.delenv("REPRO_POOL_WORKERS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        pool_module.shutdown_default_pool()
        try:
            with serve(
                unsorted_relation(32_768), workers=2, pool_workers=0,
                **HIGH_LADDER,
            ) as runner:
                with QueryClient(runner.host, runner.port) as client:
                    reply = client.query(SUM)
                    stats = client.stats()
            assert reply.rows
            assert stats["pool"]["forks"] == 0
            assert pool_module.active_pool() is None
            assert multiprocessing.active_children() == []
        finally:
            pool_module.shutdown_default_pool()
