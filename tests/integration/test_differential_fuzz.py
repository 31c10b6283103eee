"""Differential fuzzing: the TSQL2 executor vs the direct API.

Hypothesis generates random relations and random well-formed queries
(qualifications, aggregates, hints, statement limits); the executor's
answer must equal the result of manually filtering the rows and running
the reference oracle.  Any divergence between the language path and
the library path is a bug in one of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import ReferenceEvaluator
from repro.relation.relation import TemporalRelation
from repro.relation.schema import EMPLOYED_SCHEMA
from repro.tsql2.executor import Database
from repro.tsql2.lexer import TSQL2SyntaxError

NAMES = ["Ada", "Bob", "Cy", "Dee"]

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(NAMES),
        st.integers(min_value=1, max_value=99),  # salary (scaled by 1000)
        st.integers(min_value=0, max_value=60),  # start
        st.integers(min_value=0, max_value=25),  # length
    ),
    max_size=20,
)

aggregates = st.sampled_from(["count", "sum", "min", "max", "avg"])
operators = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
hints = st.sampled_from(
    ["", " USING ALGORITHM linked_list", " USING ALGORITHM tree",
     " USING ALGORITHM balanced", " USING ALGORITHM tuma",
     " USING ALGORITHM paged"]
)
#: Statement limits as the serving ladder sets them: none, the
#: FORCE_PAGED override, and a budget small enough to force sort-first
#: plans and mid-flight tree degradation.
limits_options = st.sampled_from(
    [{}, {"strategy_override": "paged_tree"}, {"memory_budget_bytes": 256}]
)

_PY_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
}


def build_relation(rows) -> TemporalRelation:
    relation = TemporalRelation(EMPLOYED_SCHEMA, name="Fuzz")
    for name, salary, start, length in rows:
        relation.insert((name, salary * 1000), start, start + length)
    return relation


class TestDifferentialFuzz:
    @given(
        rows=rows_strategy,
        aggregate=aggregates,
        hint=hints,
        limits=limits_options,
    )
    @settings(max_examples=40, deadline=None)
    def test_plain_aggregate_matches_oracle(self, rows, aggregate, hint, limits):
        relation = build_relation(rows)
        db = Database()
        db.register(relation)
        attribute = "name" if aggregate == "count" else "salary"
        query = f"SELECT {aggregate.upper()}({attribute}) FROM Fuzz{hint}"
        result = db.execute(query, **limits)

        oracle = ReferenceEvaluator(aggregate).evaluate(
            [(r.start, r.end, r.values[1]) for r in relation]
        )
        assert [(row[0], row[1], row[2]) for row in result] == [
            tuple(r) for r in oracle
        ]

    @given(
        rows=rows_strategy,
        aggregate=aggregates,
        operator=operators,
        threshold=st.integers(min_value=0, max_value=100),
        limits=limits_options,
    )
    @settings(max_examples=40, deadline=None)
    def test_where_clause_matches_manual_filter(
        self, rows, aggregate, operator, threshold, limits
    ):
        relation = build_relation(rows)
        db = Database()
        db.register(relation)
        attribute = "name" if aggregate == "count" else "salary"
        query = (
            f"SELECT {aggregate.upper()}({attribute}) FROM Fuzz "
            f"WHERE salary {operator} {threshold * 1000}"
        )
        result = db.execute(query, **limits)

        compare = _PY_OPS[operator]
        kept = [
            (r.start, r.end, r.values[1])
            for r in relation
            if compare(r.values[1], threshold * 1000)
        ]
        oracle = ReferenceEvaluator(aggregate).evaluate(kept)
        assert [(row[0], row[1], row[2]) for row in result] == [
            tuple(r) for r in oracle
        ]

    @given(
        rows=rows_strategy,
        low=st.integers(min_value=0, max_value=80),
        width=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_overlaps_matches_manual_filter(self, rows, low, width):
        relation = build_relation(rows)
        db = Database()
        db.register(relation)
        high = low + width
        query = (
            f"SELECT COUNT(name) FROM Fuzz WHERE VALID OVERLAPS [{low}, {high}]"
        )
        result = db.execute(query)

        kept = [
            (r.start, r.end, None)
            for r in relation
            if r.start <= high and r.end >= low
        ]
        oracle = ReferenceEvaluator("count").evaluate(kept)
        assert [(row[0], row[1], row[2]) for row in result] == [
            tuple(r) for r in oracle
        ]

    @given(rows=rows_strategy)
    @settings(max_examples=25, deadline=None)
    def test_grouped_counts_sum_to_total(self, rows):
        relation = build_relation(rows)
        db = Database()
        db.register(relation)
        grouped = db.execute(
            "SELECT name, COUNT(salary) FROM Fuzz GROUP BY name"
        )
        total = db.execute("SELECT COUNT(salary) FROM Fuzz")
        for start, end, count in [(r[0], r[1], r[2]) for r in total]:
            for probe in (start, end if end < 10**15 else start):
                summed = sum(
                    row[3]
                    for row in grouped
                    if row[1] <= probe <= row[2]
                )
                assert summed == count


class TestParserFuzz:
    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        """Garbage in, TSQL2SyntaxError (or a clean parse) out — never
        an arbitrary exception."""
        from repro.tsql2.parser import parse

        try:
            parse(text)
        except TSQL2SyntaxError:
            pass
