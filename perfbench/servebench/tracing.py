"""Layer spans taken from outside the program.

:class:`Tracer` patches the public functions of each layer at the name
its caller resolves (``repro.serve.scheduler.encode_frame``,
``repro.tsql2.executor.temporal_aggregate``, ...) with a wrapper that
records one span per call: name, start, end, span id, parent span id
and statement id.  No program file changes.  Spans stay in memory
while the run measures and are written out at the end.

On server worker threads the root span is ``Database.execute``; its
span id is the statement id of every span beneath it.  On client
threads the benchmark opens a root span per statement it sends, so the
client-side decode carries that statement's id.  Event-loop spans
(frame encode, admit-time pins) have no statement id.

:func:`layer_metrics` turns the spans into the per-layer metrics the
benchmark reports; see ``perfbench/README.md`` for each definition.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.evaluator import CachedSweepEvaluator
from repro.relation.relation import TemporalRelation
from repro.serve.snapshots import ServedRelation
from repro.storage.heapfile import HeapFile
from repro.tsql2.executor import Database

#: Strategies the planner can choose; each gets a count metric.
PLANNED_STRATEGIES = (
    "aggregation_tree",
    "kordered_tree",
    "linked_list",
    "columnar_sweep",
    "parallel_sweep",
    "cached_sweep",
)


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "span_id", "parent", "stmt", "attrs")

    def __init__(
        self, name: str, span_id: int, parent: Optional["Span"]
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent = None if parent is None else parent.span_id
        # The root span of a thread's stack is its statement.
        self.stmt = span_id if parent is None else parent.stmt
        self.attrs: Dict[str, Any] = {}
        self.end = 0.0
        self.start = perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "id": self.span_id,
            "parent": self.parent,
            "stmt": self.stmt,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder plus the layer patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Threads whose ``decode_body`` calls count as client decodes.
        self.client_threads: set = set()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._restore)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, next(self._ids), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def is_open(self, name: str) -> bool:
        """Is a span called ``name`` open on this thread?"""
        return any(span.name == name for span in self._stack())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _timed(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_module(self, module: str, attr: str, make: Callable) -> None:
        owner = importlib.import_module(module)
        self._patch(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every layer; :meth:`uninstall` restores the originals."""
        if self._restore:
            return
        timed = self._timed
        self._patch_module(
            "repro.serve.scheduler", "encode_frame", self._encode_wrapper
        )
        self._patch_module(
            "repro.serve.protocol", "decode_body", self._decode_wrapper
        )
        self._patch(ServedRelation, "pin", timed("serve.pin", ServedRelation.pin))
        self._patch_module(
            "repro.tsql2.executor", "parse",
            lambda f: timed("tsql2.parse", f),
        )
        self._patch(Database, "execute", self._execute_wrapper(Database.execute))
        self._patch_module(
            "repro.tsql2.executor", "temporal_aggregate",
            lambda f: timed("core.aggregate", f),
        )
        for module in ("repro.tsql2.executor", "repro.core.engine"):
            self._patch_module(module, "make_evaluator", self._factory_wrapper)
            self._patch_module(module, "choose_strategy", self._plan_wrapper)
        self._patch(
            CachedSweepEvaluator,
            "evaluate_relation",
            timed("cache.evaluate", CachedSweepEvaluator.evaluate_relation),
        )
        self._patch(
            TemporalRelation,
            "statistics",
            timed("relation.statistics", TemporalRelation.statistics),
        )
        self._patch(
            TemporalRelation,
            "columns",
            timed("relation.columns", TemporalRelation.columns),
        )
        self._patch(
            ServedRelation,
            "append_replicated",
            timed("relation.append", ServedRelation.append_replicated),
        )
        self._patch(
            HeapFile, "append", timed("storage.heap_append", HeapFile.append)
        )
        self._patch(
            HeapFile, "commit", timed("storage.commit", HeapFile.commit)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Wrappers that record more than a duration
    # ------------------------------------------------------------------

    def _encode_wrapper(self, encode: Callable) -> Callable:
        tracer = self

        @functools.wraps(encode)
        def traced(payload: Dict[str, Any]) -> bytes:
            span = tracer.begin("protocol.encode")
            try:
                data = encode(payload)
            finally:
                tracer.end(span)
            span.attrs["op"] = payload.get("op")
            span.attrs["rows"] = len(payload.get("rows") or ())
            span.attrs["bytes"] = len(data)
            return data

        return traced

    def _decode_wrapper(self, decode: Callable) -> Callable:
        tracer = self

        @functools.wraps(decode)
        def traced(body: bytes) -> Dict[str, Any]:
            if threading.get_ident() not in tracer.client_threads:
                return decode(body)
            span = tracer.begin("protocol.decode")
            try:
                payload = decode(body)
            finally:
                tracer.end(span)
            span.attrs["op"] = payload.get("op")
            return payload

        return traced

    def _execute_wrapper(self, execute: Callable) -> Callable:
        tracer = self

        @functools.wraps(execute)
        def traced(database: Database, text: str, **kwargs: Any) -> Any:
            span = tracer.begin("tsql2.execute")
            try:
                result = execute(database, text, **kwargs)
            finally:
                tracer.end(span)
            span.attrs["rows"] = len(result)
            return result

        return traced

    def _plan_wrapper(self, choose: Callable) -> Callable:
        tracer = self

        @functools.wraps(choose)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin("core.plan")
            try:
                decision = choose(*args, **kwargs)
            finally:
                tracer.end(span)
            span.attrs["strategy"] = decision.strategy
            return decision

        return traced

    def _factory_wrapper(self, make: Callable) -> Callable:
        """Evaluators come back with ``evaluate`` / ``evaluate_relation``
        wrapped on the instance; only the outermost call is a span (the
        default ``evaluate_relation`` calls ``evaluate`` itself)."""
        tracer = self

        def outermost(method: Callable) -> Callable:
            @functools.wraps(method)
            def traced(*args: Any, **kwargs: Any) -> Any:
                if tracer.is_open("core.evaluate"):
                    return method(*args, **kwargs)
                span = tracer.begin("core.evaluate")
                try:
                    return method(*args, **kwargs)
                finally:
                    tracer.end(span)

            return traced

        @functools.wraps(make)
        def traced_make(*args: Any, **kwargs: Any) -> Any:
            evaluator = make(*args, **kwargs)
            evaluator.evaluate = outermost(evaluator.evaluate)
            evaluator.evaluate_relation = outermost(evaluator.evaluate_relation)
            return evaluator

        return traced_make


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------

#: Server-side spans, summed per statement execution (per root
#: ``tsql2.execute`` span).
_PER_EXECUTION = {
    "tsql2.parse_ms": "tsql2.parse",
    "tsql2.execute_ms": "tsql2.execute",
    "core.aggregate_ms": "core.aggregate",
    "core.evaluate_ms": "core.evaluate",
    "core.plan_ms": "core.plan",
    "cache.evaluate_ms": "cache.evaluate",
    "relation.statistics_ms": "relation.statistics",
    "relation.columns_ms": "relation.columns",
}

#: Write-path spans, summed per acknowledged append batch.
_PER_APPEND = {
    "relation.append_ms": "relation.append",
    "storage.heap_append_ms": "storage.heap_append",
    "storage.commit_ms": "storage.commit",
}


def _share(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer timings and counts from one traced window's spans.

    Times are milliseconds.  Spans recorded on worker threads count
    only when they sit under a recorded ``tsql2.execute`` root, so a
    statement cut by a tracing on/off switch does not skew the shares.
    """
    executions = {
        span.span_id: span
        for span in spans
        if span.name == "tsql2.execute" and span.parent is None
    }
    children: Dict[int, float] = {}
    totals: Dict[str, float] = {}
    strategies = dict.fromkeys(PLANNED_STRATEGIES, 0)
    appends = 0
    for span in spans:
        if span.name in ("protocol.encode", "protocol.decode", "serve.pin"):
            continue
        if span.name == "client.append":
            appends += 1
            continue
        if span.name in _PER_APPEND.values():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
            continue
        if span.stmt not in executions or span.parent is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        if span.parent == span.stmt:
            children[span.stmt] = children.get(span.stmt, 0.0) + span.duration
        if span.name == "core.plan":
            strategy = span.attrs.get("strategy")
            if strategy in strategies:
                strategies[strategy] += 1

    count = len(executions)
    metrics: Dict[str, float] = {}
    for metric, name in _PER_EXECUTION.items():
        if name == "tsql2.execute":
            total = sum(span.duration for span in executions.values())
        else:
            total = totals.get(name, 0.0)
        metrics[metric] = _share(total, count) * 1000.0
    metrics["tsql2.self_ms"] = _share(
        sum(
            span.duration - children.get(span_id, 0.0)
            for span_id, span in executions.items()
        ),
        count,
    ) * 1000.0
    metrics["tsql2.rows_per_stmt"] = _share(
        sum(span.attrs.get("rows", 0) for span in executions.values()), count
    )
    for metric, name in _PER_APPEND.items():
        metrics[metric] = _share(totals.get(name, 0.0), appends) * 1000.0
    for strategy, hits in strategies.items():
        metrics[f"core.strategy.{strategy}"] = float(hits)

    encodes = [
        span for span in spans
        if span.name == "protocol.encode" and span.attrs.get("op") == "query"
    ]
    metrics["protocol.encode_ms"] = _share(
        sum(span.duration for span in encodes), len(encodes)
    ) * 1000.0
    metrics["protocol.reply_bytes_per_row"] = _share(
        sum(span.attrs["bytes"] for span in encodes),
        sum(span.attrs["rows"] for span in encodes),
    )
    return metrics


def client_decode_ms(spans: List[Span]) -> Dict[int, float]:
    """Decode seconds per client statement id (query replies only)."""
    decoded: Dict[int, float] = {}
    for span in spans:
        if span.name == "protocol.decode" and span.attrs.get("op") == "query":
            decoded[span.stmt] = decoded.get(span.stmt, 0.0) + span.duration
    return decoded


def pin_seconds(spans: List[Span]) -> float:
    return sum(span.duration for span in spans if span.name == "serve.pin")
