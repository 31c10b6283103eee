"""Tests of EXPLAIN SELECT (the planner surfaced through the language)."""

import pytest

from repro.tsql2.executor import Database
from repro.tsql2.parser import parse
from repro.workload.employed import employed_relation
from repro.workload.generator import WorkloadParameters, generate_relation


@pytest.fixture
def db():
    database = Database()
    database.register(employed_relation())
    database.register(
        generate_relation(WorkloadParameters(tuples=256, seed=77)),
        name="Big",
    )
    return database


def plan_of(result):
    return dict(result.rows)


class TestParsing:
    def test_explain_flag(self):
        assert parse("EXPLAIN SELECT COUNT(N) FROM R").explain
        assert not parse("SELECT COUNT(N) FROM R").explain

    def test_explain_case_insensitive(self):
        assert parse("explain select COUNT(N) from R").explain


class TestExecution:
    def test_plan_columns(self, db):
        result = db.execute("EXPLAIN SELECT COUNT(Name) FROM Employed")
        assert result.columns == ("property", "value")
        plan = plan_of(result)
        assert plan["strategy"] in (
            "aggregation_tree",
            "kordered_tree",
            "linked_list",
        )
        assert plan["qualifying tuples"] == 4
        assert plan["unique timestamps"] == 6

    def test_unordered_relation_plans_tree(self, db):
        plan = plan_of(db.execute("EXPLAIN SELECT COUNT(name) FROM Big"))
        assert plan["strategy"] == "aggregation_tree"
        assert plan["estimated structure bytes"] > 0

    def test_where_clause_affects_statistics(self, db):
        everything = plan_of(db.execute("EXPLAIN SELECT COUNT(name) FROM Big"))
        filtered = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(name) FROM Big WHERE salary > 115_000"
            )
        )
        assert filtered["qualifying tuples"] < everything["qualifying tuples"]

    def test_hint_overrides_planner(self, db):
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(Name) FROM Employed "
                "USING ALGORITHM ktree(k=7)"
            )
        )
        assert plan["strategy"] == "kordered_tree"
        assert plan["k"] == 7
        assert "hint" in plan["reason"]

    def test_explain_does_not_execute(self, db):
        """EXPLAIN over a would-be-slow query returns instantly with a
        plan, not rows of constant intervals."""
        result = db.execute("EXPLAIN SELECT COUNT(name) FROM Big")
        assert "valid_start" not in result.columns

    def test_having_calls_counted(self, db):
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(Name) FROM Employed "
                "HAVING MAX(Salary) > 0"
            )
        )
        assert plan["aggregate calls"] == 2

    def test_override_is_the_reported_strategy(self, db):
        plan = plan_of(
            db.execute(
                "EXPLAIN SELECT COUNT(Name) FROM Employed USING ALGORITHM tree",
                strategy_override="paged",
            )
        )
        assert plan["strategy"] == "paged_tree"
        assert "override" in plan["reason"]

    def test_memory_budget_shapes_the_plan(self, db):
        free = plan_of(db.execute("EXPLAIN SELECT SUM(salary) FROM Big"))
        tight = plan_of(
            db.execute(
                "EXPLAIN SELECT SUM(salary) FROM Big", memory_budget_bytes=1024
            )
        )
        assert free["strategy"] == "aggregation_tree"
        assert (tight["strategy"], tight["sort first"]) == ("kordered_tree", "yes")

    def test_explain_leaves_repeat_detection_alone(self, db):
        """EXPLAIN must not record the query signature: the first real
        run afterwards is still a first sighting, not a cached repeat."""
        from repro.cache.store import ShardResultCache, set_default_cache

        cache = ShardResultCache()
        set_default_cache(cache)
        try:
            big = generate_relation(WorkloadParameters(tuples=4096, seed=5))
            db.register(big, name="Wide")
            for _ in range(2):
                db.execute("EXPLAIN SELECT COUNT(name) FROM Wide")
            db.execute("SELECT COUNT(name) FROM Wide")
            assert cache.counters.cache_misses == 0
            db.execute("SELECT COUNT(name) FROM Wide")
            assert cache.counters.cache_misses == 1
        finally:
            set_default_cache(None)
