"""Executor: runs TSQL2-lite queries against registered relations.

The executor glues the query language to the evaluation engine:

1. parse the query text;
2. semantic checks (table and attributes exist, bare select columns
   are grouped, span grouping has a bounded window, algorithm names
   resolve);
3. apply the WHERE qualification in one pass over the relation — a
   statement without WHERE aggregates the registered relation (or
   pinned snapshot) itself, with no copy;
4. resolve ``(strategy, k)`` once per statement — the limits'
   ``strategy_override``, else the USING ALGORITHM hint, else
   ``"auto"`` — and send every aggregate call through
   :func:`~repro.core.engine.temporal_aggregate`, the one path that
   plans (Section 6.3, per aggregate and memory budget), sorts first,
   degrades under the budget and serves repeated queries from the
   shard-result cache.  Span grouping keeps its own algorithm;
5. zip the per-aggregate results (all aggregates over the same tuples
   share the same constant intervals, so zipping is sound) and present
   the rows as a :class:`QueryResult` table with the valid time
   exposed as ``valid_start`` / ``valid_end`` columns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.base import coerce_aggregate
# make_evaluator is not called here; it stays importable from this
# module because perfbench's layer tracer wraps it by this name.
from repro.core.engine import STRATEGIES, make_evaluator, temporal_aggregate
from repro.core.interval import FOREVER, Interval, format_instant
from repro.core.calendar import CalendarError, calendar_span_aggregate
from repro.core.planner import PlannerDecision, choose_strategy
from repro.core.span_grouping import span_aggregate
from repro.exec.deadline import Deadline
from repro.relation.relation import TemporalRelation
from repro.tsql2.ast import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Comparison,
    Literal,
    Query,
    ValidOverlaps,
)
from repro.tsql2.parser import parse

__all__ = ["Database", "QueryResult", "StatementLimits", "TSQL2SemanticError"]

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Friendly strategy aliases accepted in USING ALGORITHM hints.
_STRATEGY_ALIASES = {
    "ktree": "kordered_tree",
    "tree": "aggregation_tree",
    "list": "linked_list",
    "linked": "linked_list",
    "balanced": "balanced_tree",
    "paged": "paged_tree",
    "tuma": "two_pass",
    "sort_merge": "sweep",
}


class TSQL2SemanticError(ValueError):
    """A well-formed query that cannot be executed (unknown table,
    unknown attribute, ungrouped select column, ...)."""


def _strategy_name(name: str) -> str:
    """The registry name behind an algorithm hint or override (aliases
    resolved); unknown names are a semantic error."""
    strategy = _STRATEGY_ALIASES.get(name, name)
    if strategy not in STRATEGIES:
        known = ", ".join(sorted(STRATEGIES))
        raise TSQL2SemanticError(f"unknown algorithm {name!r}; known: {known}")
    return strategy


class _WorkingRelation(TemporalRelation):
    """The rows qualifying a WHERE, or one GROUP BY partition of them.

    A row subset has no identity that outlives its statement, so it
    opts out of the result-cache protocol: the engine neither records
    its query signature nor admits its results into the shared cache.
    """

    supports_result_cache = False


@dataclass
class StatementLimits:
    """Per-statement execution limits.

    The serving layer (:mod:`repro.serve`) and the shell's
    ``\\deadline`` / ``\\budget`` session settings build one of these
    per statement; plain library callers can ignore it entirely.  Every
    statement takes the same engine path with or without limits; the
    limits only bound it.

    * ``deadline`` — one already-started wall-clock budget shared by
      every aggregate call the statement makes.
    * ``memory_budget_bytes`` — handed to the planner and enforced at
      run time; an aggregation-tree build that crosses it degrades to
      the spilling paged tree instead of OOMing.
    * ``strategy_override`` — forces every call onto one strategy
      (the overload ladder downgrades statements to ``paged_tree``
      this way, which also bypasses the shard-result cache); wins over
      USING ALGORITHM hints.
    """

    deadline: Optional[Deadline] = None
    memory_budget_bytes: Optional[int] = None
    strategy_override: Optional[str] = None

    @classmethod
    def from_options(
        cls,
        deadline_ms: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        strategy_override: Optional[str] = None,
    ) -> "Optional[StatementLimits]":
        """Build limits from plain options; None when nothing is set."""
        if (
            deadline_ms is None
            and memory_budget_bytes is None
            and strategy_override is None
        ):
            return None
        return cls(
            deadline=Deadline.after_ms(deadline_ms),
            memory_budget_bytes=memory_budget_bytes,
            strategy_override=strategy_override,
        )


class QueryResult:
    """A flat result table with named columns.

    Temporal grouping exposes the valid time of each row as
    ``valid_start`` / ``valid_end`` columns; attribute grouping
    prepends the grouping attributes.
    """

    def __init__(self, columns: Sequence[str], rows: List[Tuple]) -> None:
        self.columns = tuple(columns)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> Tuple:
        return self.rows[index]

    def column(self, name: str) -> List[Any]:
        """All values of one column."""
        try:
            position = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; columns are {self.columns}"
            ) from None
        return [row[position] for row in self.rows]

    def _render_cell(self, column: str, value: Any) -> str:
        if column in ("valid_start", "valid_end") and isinstance(value, int):
            return format_instant(value)
        return str(value)

    def pretty(self, limit: int = 40) -> str:
        rendered = [
            [self._render_cell(c, v) for c, v in zip(self.columns, row)]
            for row in self.rows[:limit]
        ]
        widths = [
            max(len(column), *(len(row[i]) for row in rendered), 1)
            if rendered
            else len(column)
            for i, column in enumerate(self.columns)
        ]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [header, "-+-".join("-" * w for w in widths)]
        for row in rendered:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "| " + " | ".join("---" for _ in self.columns) + " |",
        ]
        for row in self.rows:
            cells = [
                self._render_cell(c, v) for c, v in zip(self.columns, row)
            ]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QueryResult({len(self.rows)} rows, columns={self.columns})"


class Database:
    """A named collection of temporal relations accepting TSQL2-lite."""

    def __init__(self) -> None:
        self._relations: Dict[str, TemporalRelation] = {}

    def register(
        self, relation: TemporalRelation, name: Optional[str] = None
    ) -> None:
        """Make ``relation`` queryable under ``name`` (default: its own)."""
        self._relations[(name or relation.name).lower()] = relation

    def relation(self, name: str) -> TemporalRelation:
        try:
            return self._relations[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._relations)) or "(none)"
            raise TSQL2SemanticError(
                f"unknown relation {name!r}; registered: {known}"
            ) from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        text: str,
        *,
        keep_empty: bool = True,
        limits: Optional[StatementLimits] = None,
        deadline_ms: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        strategy_override: Optional[str] = None,
    ) -> QueryResult:
        """Parse and run one query.

        ``keep_empty=False`` drops rows whose aggregate values are all
        empty (None, or 0 for COUNT) — TSQL2's presentation of Table 1.

        ``limits`` (or the equivalent plain options ``deadline_ms``,
        ``memory_budget_bytes``, ``strategy_override``) bound this one
        statement — see :class:`StatementLimits`.  A tripped deadline
        raises :class:`~repro.exec.errors.DeadlineExceeded`; a tripped
        memory budget degrades tree builds to the spilling paged tree.
        """
        if limits is None:
            limits = StatementLimits.from_options(
                deadline_ms=deadline_ms,
                memory_budget_bytes=memory_budget_bytes,
                strategy_override=strategy_override,
            )
        query = parse(text)
        relation = self.relation(query.table)
        self._check_semantics(query, relation)
        strategy, k = self._statement_strategy(query, limits)
        source = self._apply_where(query, relation)

        if query.explain:
            return self._explain(query, source, strategy, k, limits)

        if query.group_by.kind == "span":
            result = self._execute_span(query, source, limits)
        elif query.group_by.attributes:
            result = self._execute_grouped(query, source, strategy, k, limits)
        else:
            result = self._execute_instant(query, source, strategy, k, limits)

        if not keep_empty:
            result = self._drop_empty(query, result)
        return result

    @staticmethod
    def _statement_strategy(
        query: Query, limits: Optional[StatementLimits]
    ) -> Tuple[str, Optional[int]]:
        """``(strategy, k)`` for every aggregate call of the statement.

        The limits' override wins (the overload ladder bounds a
        statement this way), then the USING ALGORITHM hint; otherwise
        ``"auto"`` lets the engine's planner choose per call.
        """
        if limits is not None and limits.strategy_override is not None:
            return _strategy_name(limits.strategy_override), None
        if query.hint is not None:
            strategy = _strategy_name(query.hint.strategy)
            return strategy, query.hint.k if strategy == "kordered_tree" else None
        return "auto", None

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def _explain(
        self,
        query: Query,
        source: Any,
        strategy: str,
        k: Optional[int],
        limits: Optional[StatementLimits],
    ) -> QueryResult:
        """The plan the statement's first aggregate call would run,
        without executing it (and without recording the query, so the
        cache's repeat detection is untouched)."""
        statistics = source.statistics()
        calls = query.aggregate_calls()
        if strategy == "auto":
            decision = choose_strategy(
                statistics,
                aggregate=coerce_aggregate(calls[0].function),
                memory_budget_bytes=(
                    limits.memory_budget_bytes if limits is not None else None
                ),
            )
        else:
            overridden = limits is not None and limits.strategy_override is not None
            forced_by = (
                "the statement limits' override" if overridden
                else "USING ALGORITHM hint"
            )
            decision = PlannerDecision(
                strategy=strategy, k=k, reason=f"strategy forced by {forced_by}"
            )
        table = [
            ("strategy", decision.strategy),
            ("k", decision.k if decision.k is not None else ""),
            ("sort first", "yes" if decision.sort_first else "no"),
            ("reason", decision.reason),
            ("estimated structure bytes", decision.estimated_bytes),
            ("qualifying tuples", statistics.tuple_count),
            ("unique timestamps", statistics.unique_timestamps),
            ("measured k-orderedness", statistics.k),
            ("long-lived fraction", round(statistics.long_lived_fraction, 3)),
            ("aggregate calls", len(calls)),
        ]
        return QueryResult(["property", "value"], table)

    # ------------------------------------------------------------------
    # Checks and filtering
    # ------------------------------------------------------------------

    def _check_semantics(self, query: Query, relation: TemporalRelation) -> None:
        schema = relation.schema
        for call in query.aggregate_calls():
            aggregate = coerce_aggregate(call.function)
            if call.argument is not None and not schema.has_attribute(call.argument):
                raise TSQL2SemanticError(
                    f"aggregate argument {call.argument!r} is not an attribute "
                    f"of {query.table!r}"
                )
            if aggregate.needs_value and call.argument is None:
                raise TSQL2SemanticError(
                    f"{call.label()} needs an attribute argument, not '*'"
                )
        if not query.aggregate_calls():
            raise TSQL2SemanticError(
                "TSQL2-lite queries must contain at least one aggregate call"
            )
        grouped = {name.lower() for name in query.group_by.attributes}
        for ref in query.column_refs():
            if ref.name.lower() not in grouped:
                raise TSQL2SemanticError(
                    f"select column {ref.name!r} must appear in GROUP BY"
                )
        for name in query.group_by.attributes:
            if not schema.has_attribute(name):
                raise TSQL2SemanticError(
                    f"GROUP BY attribute {name!r} is not an attribute of "
                    f"{query.table!r}"
                )
        for condition in query.where:
            if isinstance(condition, Comparison) and not schema.has_attribute(
                condition.attribute
            ):
                raise TSQL2SemanticError(
                    f"WHERE attribute {condition.attribute!r} is not an "
                    f"attribute of {query.table!r}"
                )
        if query.hint is not None:
            _strategy_name(query.hint.strategy)

    def _apply_where(self, query: Query, relation: TemporalRelation) -> Any:
        """The relation the statement aggregates: ``relation`` itself
        when there is no WHERE, else a working relation holding the
        qualifying rows (filtered in one pass)."""
        if not query.where:
            return relation
        rows: Any = relation.scan()
        for condition in query.where:
            if isinstance(condition, ValidOverlaps):
                window = Interval(condition.start, condition.end)
                rows = [
                    row
                    for row in rows
                    if row.start <= window.end and window.start <= row.end
                ]
            else:
                position = relation.schema.position_of(condition.attribute)
                compare = _COMPARATORS[condition.operator]
                literal = condition.literal
                rows = [
                    row for row in rows if compare(row.values[position], literal)
                ]
        return _WorkingRelation(relation.schema, rows, name="qualifying")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _aggregate_calls(
        self,
        query: Query,
        source: Any,
        strategy: str,
        k: Optional[int],
        limits: Optional[StatementLimits],
    ) -> Dict[AggregateCall, Any]:
        """One TemporalAggregateResult per distinct aggregate call, each
        through the engine (planning, sort-first, budget degradation,
        invariant checks and cache eligibility all live there)."""
        deadline = limits.deadline if limits is not None else None
        budget = limits.memory_budget_bytes if limits is not None else None
        results: Dict[AggregateCall, Any] = {}
        for call in query.aggregate_calls():
            if deadline is not None:
                deadline.check(aggregate=call.label())
            results[call] = temporal_aggregate(
                source,
                call.function,
                call.argument,
                strategy=strategy,
                k=k,
                memory_budget_bytes=budget,
                deadline_ms=deadline,
            )
        return results

    # ------------------------------------------------------------------
    # Select-item expressions
    # ------------------------------------------------------------------

    @staticmethod
    def _output_items(query: Query) -> List[Any]:
        """Select items that produce output columns (everything except
        the grouped bare columns, which come first)."""
        return [
            item for item in query.select if not isinstance(item, ColumnRef)
        ]

    def _evaluate_item(self, item: Any, values: Dict[AggregateCall, Any]) -> Any:
        """Evaluate one select item given the per-call values for one
        constant interval.  NULL (None) propagates; division by zero
        yields NULL, as in SQL."""
        if isinstance(item, AggregateCall):
            return values[item]
        if isinstance(item, Literal):
            return item.value
        if isinstance(item, BinaryOp):
            left = self._evaluate_item(item.left, values)
            right = self._evaluate_item(item.right, values)
            if left is None or right is None:
                return None
            if item.operator == "+":
                return left + right
            if item.operator == "-":
                return left - right
            if item.operator == "*":
                return left * right
            if right == 0:
                return None
            return left / right
        raise AssertionError(f"unexpected select item {item!r}")

    def _item_rows(
        self,
        query: Query,
        results: Dict[AggregateCall, Any],
    ) -> List[Tuple]:
        """Zip per-call constant intervals into per-select-item rows."""
        calls = list(results)
        if not calls:
            return []
        boundaries = [(r.start, r.end) for r in results[calls[0]]]
        for call in calls[1:]:
            if [(r.start, r.end) for r in results[call]] != boundaries:
                raise AssertionError(
                    "aggregate calls disagree on constant intervals"
                )
        items = self._output_items(query)
        table = []
        for index, (start, end) in enumerate(boundaries):
            values = {call: results[call][index].value for call in calls}
            if not self._having_holds(query, values):
                continue
            table.append(
                (start, end)
                + tuple(self._evaluate_item(item, values) for item in items)
            )
        return table

    def _having_holds(self, query: Query, values: Dict[AggregateCall, Any]) -> bool:
        """All HAVING conditions on one row's aggregate values.

        SQL semantics: a NULL aggregate value satisfies no comparison.
        """
        for condition in query.having:
            left = self._evaluate_item(condition.item, values)
            if left is None:
                return False
            if not _COMPARATORS[condition.operator](left, condition.literal):
                return False
        return True

    def _execute_instant(
        self,
        query: Query,
        source: Any,
        strategy: str,
        k: Optional[int],
        limits: Optional[StatementLimits],
    ) -> QueryResult:
        columns = ["valid_start", "valid_end"] + [
            item.label() for item in self._output_items(query)
        ]
        results = self._aggregate_calls(query, source, strategy, k, limits)
        return QueryResult(columns, self._item_rows(query, results))

    def _execute_grouped(
        self,
        query: Query,
        source: Any,
        strategy: str,
        k: Optional[int],
        limits: Optional[StatementLimits],
    ) -> QueryResult:
        schema = source.schema
        positions = [schema.position_of(name) for name in query.group_by.attributes]
        partitions: Dict[Tuple, List] = {}
        for row in source.scan():
            key = tuple(row.values[p] for p in positions)
            partitions.setdefault(key, []).append(row)

        columns = (
            [schema.attributes[p].name for p in positions]
            + ["valid_start", "valid_end"]
            + [item.label() for item in self._output_items(query)]
        )
        table: List[Tuple] = []
        for key in sorted(partitions, key=repr):
            group = _WorkingRelation(schema, partitions[key], name="group")
            results = self._aggregate_calls(query, group, strategy, k, limits)
            for row in self._item_rows(query, results):
                table.append(key + row)
        return QueryResult(columns, table)

    def _execute_span(
        self,
        query: Query,
        source: Any,
        limits: Optional[StatementLimits],
    ) -> QueryResult:
        rows = list(source.scan())
        group_by = query.group_by
        if group_by.window is not None:
            window = Interval(*group_by.window)
        else:
            if not rows:
                raise TSQL2SemanticError(
                    "span grouping over an empty qualification needs an "
                    "explicit window: GROUP BY SPAN n [a, b]"
                )
            start = min(row.start for row in rows)
            end = max(row.end for row in rows)
            if end >= FOREVER:
                raise TSQL2SemanticError(
                    "span grouping needs a bounded window; the relation "
                    "extends to FOREVER — use GROUP BY SPAN n [a, b]"
                )
            window = Interval(start, end)

        columns = ["valid_start", "valid_end"] + [
            item.label() for item in self._output_items(query)
        ]
        results: Dict[AggregateCall, Any] = {}
        for call in query.aggregate_calls():
            if limits is not None and limits.deadline is not None:
                limits.deadline.check(aggregate=call.label())
            extractor = source.value_extractor(call.argument)
            triples = [(row.start, row.end, extractor(row)) for row in rows]
            if group_by.unit is not None:
                try:
                    results[call] = calendar_span_aggregate(
                        triples, call.function, window, group_by.unit
                    )
                except CalendarError as error:
                    raise TSQL2SemanticError(str(error)) from error
            else:
                results[call] = span_aggregate(
                    triples, call.function, window, group_by.span
                )
        return QueryResult(columns, self._item_rows(query, results))

    # ------------------------------------------------------------------
    # Presentation helpers
    # ------------------------------------------------------------------

    def _drop_empty(self, query: Query, result: QueryResult) -> QueryResult:
        items = self._output_items(query)
        empties = [
            0 if isinstance(item, AggregateCall) and item.function == "count"
            else None
            for item in items
        ]
        width = len(result.columns)
        output_slots = range(width - len(items), width)
        kept = [
            row
            for row in result.rows
            if not all(
                row[slot] == empty
                for slot, empty in zip(output_slots, empties)
            )
        ]
        return QueryResult(result.columns, kept)
