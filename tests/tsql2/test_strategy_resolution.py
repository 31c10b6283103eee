"""Tests of the executor's internal strategy resolution."""

import pytest

from repro.tsql2.executor import Database
from repro.workload.generator import WorkloadParameters, generate_relation


@pytest.fixture
def db():
    database = Database()
    database.register(
        generate_relation(WorkloadParameters(tuples=300, seed=88)), name="W"
    )
    database.register(
        generate_relation(WorkloadParameters(tuples=300, seed=88)).sorted_by_time(
            "Sorted"
        ),
        name="Sorted",
    )
    return database


class TestAutoResolution:
    def test_unhinted_query_matches_all_hints(self, db):
        """Whatever the planner picks must agree with every explicit
        algorithm on the same query."""
        auto = [tuple(r) for r in db.execute("SELECT COUNT(name) FROM W")]
        for hint in ("list", "tree", "balanced", "tuma", "sort_merge", "paged"):
            hinted = [
                tuple(r)
                for r in db.execute(
                    f"SELECT COUNT(name) FROM W USING ALGORITHM {hint}"
                )
            ]
            assert hinted == auto, hint

    def test_sorted_relation_auto_is_correct(self, db):
        auto = [tuple(r) for r in db.execute("SELECT COUNT(name) FROM Sorted")]
        explicit = [
            tuple(r)
            for r in db.execute(
                "SELECT COUNT(name) FROM Sorted USING ALGORITHM tuma"
            )
        ]
        assert auto == explicit

    def test_group_by_resolves_per_group(self, db):
        """Each group's partition is planned separately and still
        produces oracle-identical rows."""
        grouped = db.execute(
            "SELECT name, COUNT(salary) FROM W GROUP BY name",
            keep_empty=False,
        )
        hinted = db.execute(
            "SELECT name, COUNT(salary) FROM W GROUP BY name "
            "USING ALGORITHM list",
            keep_empty=False,
        )
        assert grouped.rows == hinted.rows

    def test_ktree_hint_with_insufficient_k_surfaces_violation(self, db):
        """An explicit ktree hint on unsorted data propagates the
        k-order violation rather than silently computing garbage."""
        from repro.core.kordered_tree import KOrderViolationError

        with pytest.raises(KOrderViolationError):
            db.execute("SELECT COUNT(name) FROM W USING ALGORITHM ktree(k=1)")

    def test_ktree_hint_on_sorted_relation_works(self, db):
        result = db.execute(
            "SELECT COUNT(name) FROM Sorted USING ALGORITHM ktree(k=1)"
        )
        plain = db.execute("SELECT COUNT(name) FROM Sorted")
        assert result.rows == plain.rows


class TestEnginePlanning:
    """Filtered and grouped statements plan through the engine's
    planner, with each call's aggregate and the statement's budget."""

    @pytest.fixture(scope="class")
    def table3(self):
        database = Database()
        database.register(
            generate_relation(WorkloadParameters(tuples=40_000, seed=1)),
            name="T",
        )
        return database

    @pytest.fixture
    def strategies_run(self, monkeypatch):
        """Every strategy an evaluator is built for, in call order."""
        import repro.core.engine as engine

        seen = []
        original = engine.make_evaluator

        def recording(strategy, *args, **kwargs):
            seen.append(strategy)
            return original(strategy, *args, **kwargs)

        monkeypatch.setattr(engine, "make_evaluator", recording)
        return seen

    @pytest.mark.parametrize(
        "text, options, expected",
        [
            # MIN is not invertible: no sweep, the plain tree.
            ("SELECT MIN(salary) FROM T WHERE salary > 0", {},
             "aggregation_tree"),
            # Neither the sweep's events nor the tree fit the budget:
            # sort first, then the k-ordered tree.
            ("SELECT SUM(salary) FROM T WHERE salary > 0",
             {"memory_budget_bytes": 65_536}, "kordered_tree"),
        ],
    )
    def test_filtered_statement_runs_and_explains_the_engine_plan(
        self, table3, strategies_run, text, options, expected
    ):
        plan = dict(table3.execute("EXPLAIN " + text, **options).rows)
        assert strategies_run == []
        table3.execute(text, **options)
        assert strategies_run == [expected]
        assert plan["strategy"] == expected
        assert plan["sort first"] == ("yes" if options else "no")

    def test_grouped_statement_plans_each_partition(self, db, strategies_run):
        db.execute(
            "SELECT name, MIN(salary), SUM(salary) FROM W GROUP BY name"
        )
        groups = len({row.values[0] for row in db.relation("W")})
        assert len(strategies_run) == 2 * groups


class TestCacheEligibility:
    """WHERE-qualified rows and GROUP BY partitions have no identity
    beyond their statement: they stay out of the shared cache and its
    repeat detection, while the unfiltered relation takes part."""

    def test_row_subsets_never_reach_the_shared_cache(self, db, monkeypatch):
        from repro.cache.store import ShardResultCache, set_default_cache

        cache = ShardResultCache()
        noted = []
        monkeypatch.setattr(
            cache, "note_query", lambda *signature: noted.append(signature)
        )
        set_default_cache(cache)
        try:
            for text in (
                "SELECT SUM(salary) FROM W WHERE salary > 0",
                "SELECT name, COUNT(salary) FROM W GROUP BY name",
                "SELECT SUM(salary) FROM W WHERE salary > 0 "
                "USING ALGORITHM cached_sweep",
                "SELECT name, SUM(salary) FROM W GROUP BY name "
                "USING ALGORITHM cached_sweep",
            ):
                db.execute(text)
            assert noted == []
            assert len(cache) == 0
            db.execute("SELECT SUM(salary) FROM W")
            assert noted == [(db.relation("W").uid, "sum", "salary")]
        finally:
            set_default_cache(None)
