"""Partitioned evaluation: time-domain shards and tuple-set merging.

Two parallel plans live here, one per partitioning axis:

* **Time-domain sharding** (:class:`ParallelSweepEvaluator`, strategy
  ``"parallel_sweep"``) — split ``[ORIGIN, FOREVER]`` into windows,
  clip tuples into the windows they overlap
  (:mod:`repro.core.partition`), run the columnar sweep kernel
  (:mod:`repro.core.columnar_sweep`) per window, and stitch the
  per-window rows back together.  Exact for *every* decomposable
  aggregate (clipping preserves the per-instant valid multiset),
  including AVG and the non-invertible MIN/MAX.  The windows run
  through :func:`repro.exec.pool.sweep_shards`, which sends them to
  the resident worker pool when one is running and the input
  qualifies, and sweeps them in-process otherwise — identical rows
  either way.

* **Tuple-set partitioning** (:func:`partitioned_aggregate`) — the
  historical plan after Bitton et al.'s *Parallel Algorithms for the
  Execution of Relational Database Operations* (in the paper's
  bibliography): split the tuples round-robin, evaluate each chunk
  independently, merge the finalized values with
  :func:`merge_results`.  Merging needs the finalized value domain to
  itself be mergeable, which holds for COUNT, SUM, MIN and MAX but not
  AVG (a finalized mean loses its weight) — exactly the limitation the
  time-domain plan removes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.aggregates import AGGREGATES, Aggregate
from repro.core.base import Evaluator, Triple, coerce_aggregate
from repro.core.columnar_sweep import ColumnarSweepEvaluator, validate_columns
from repro.core.partition import shard_bounds, stitch_rows
from repro.core.result import ConstantInterval, TemporalAggregateResult
from repro.exec.errors import InvalidInput
from repro.exec.validation import validate_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columns import ColumnSet
    from repro.exec.supervision import RetryPolicy, SupervisionReport
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = [
    "MERGEABLE_AGGREGATES",
    "ParallelSweepEvaluator",
    "merge_results",
    "partitioned_aggregate",
    "registered_instance",
]

#: Aggregates whose finalized values merge like states.
MERGEABLE_AGGREGATES = {"count", "sum", "min", "max"}

_VALUE_MERGERS: dict = {
    "count": lambda a, b: a + b,
    "sum": lambda a, b: b if a is None else (a if b is None else a + b),
    "min": lambda a, b: b if a is None else (a if b is None else min(a, b)),
    "max": lambda a, b: b if a is None else (a if b is None else max(a, b)),
}


def _value_merger(aggregate_name: str) -> Callable[[Any, Any], Any]:
    try:
        return _VALUE_MERGERS[aggregate_name]
    except KeyError as exc:
        raise InvalidInput(
            f"no finalized-value merger registered under key "
            f"{aggregate_name!r}: the aggregate does not merge on "
            f"finalized values (mergeable: {sorted(MERGEABLE_AGGREGATES)}); "
            "for AVG merge SUM and COUNT partitions and divide"
        ) from exc


def merge_results(
    left: TemporalAggregateResult,
    right: TemporalAggregateResult,
    aggregate: "Aggregate | str",
) -> TemporalAggregateResult:
    """Combine results computed over disjoint tuple subsets.

    Both inputs must partition the same timeline (which every core
    evaluator guarantees).  Output rows are cut at the union of both
    boundary sets and merged per aligned piece; adjacent rows are *not*
    value-coalesced (callers can apply
    :meth:`TemporalAggregateResult.coalesce_values`).
    """
    aggregate = coerce_aggregate(aggregate)
    merge = _value_merger(aggregate.name)
    left.verify_partition(full_cover=True)
    right.verify_partition(full_cover=True)

    rows: List[ConstantInterval] = []
    i = j = 0
    cursor = left.rows[0].start  # == ORIGIN for full covers
    while i < len(left.rows) and j < len(right.rows):
        a = left.rows[i]
        b = right.rows[j]
        end = min(a.end, b.end)
        rows.append(ConstantInterval(cursor, end, merge(a.value, b.value)))
        cursor = end + 1
        if a.end == end:
            i += 1
        if b.end == end:
            j += 1
    return TemporalAggregateResult(rows, check=False)


# ---------------------------------------------------------------------------
# Time-domain sharding
# ---------------------------------------------------------------------------

#: Memo of registry-name -> constructed type, filled on first touch
#: under a lock: registered_instance runs on every engine call, and
#: without the memo each call constructs a throwaway aggregate; with a
#: plain dict two threads' first touches would both construct and race
#: the insert (harmless for dicts, but the double-checked discipline
#: keeps the invariant obvious and the construction single).
_REGISTERED_TYPE_MEMO: Dict[str, type] = {}
_REGISTERED_TYPE_LOCK = threading.Lock()


def registered_instance(aggregate: Aggregate) -> bool:
    """Can this aggregate be rebuilt elsewhere from its name alone?

    True for the stock registry aggregates; False for custom instances
    (even ones registered under a stock name but of a different type).
    Both the resident pool and the shard-result cache require it: the
    pool to reconstruct the aggregate in a worker, the cache because
    entries are keyed by aggregate *name*.
    """
    factory = AGGREGATES.get(aggregate.name)
    if factory is None:
        return False
    registered_type = _REGISTERED_TYPE_MEMO.get(aggregate.name)
    if registered_type is None:
        with _REGISTERED_TYPE_LOCK:
            registered_type = _REGISTERED_TYPE_MEMO.get(aggregate.name)
            if registered_type is None:
                registered_type = type(factory())
                _REGISTERED_TYPE_MEMO[aggregate.name] = registered_type
    return registered_type is type(aggregate)


class ParallelSweepEvaluator(Evaluator):
    """Time-sharded columnar sweep, fanned out over the resident pool.

    ``shards=None`` uses one shard per worker of the running resident
    pool (:func:`repro.exec.pool.running_workers`), which is one shard
    — a plain columnar sweep — when no pool runs.  The windows go
    through :func:`repro.exec.pool.sweep_shards`, the single gate that
    decides whether they leave the process; shard evaluation itself is
    identical in or out of the pool.

    Pooled shards run under the pool's supervisor: each shard gets
    bounded retries with jittered backoff (``retry``), an optional
    per-shard ``shard_timeout`` in seconds, and — after exhausting its
    attempts — an exact in-process fallback, so the evaluator returns
    the same rows no matter how many workers die.
    ``last_supervision`` holds the most recent pooled run's
    :class:`~repro.exec.supervision.SupervisionReport` (None when the
    shards ran in-process).
    """

    name = "parallel_sweep"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        shards: Optional[int] = None,
        retry: "Optional[RetryPolicy]" = None,
        shard_timeout: Optional[float] = None,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.shards = validate_shards(shards)
        self.retry = retry
        self.shard_timeout = shard_timeout
        self.last_supervision: "Optional[SupervisionReport]" = None

    def _shard_count(self) -> int:
        if self.shards is not None:
            return self.shards
        from repro.exec.pool import running_workers  # deferred: import cycle

        return running_workers()

    def _make_delegate(self) -> ColumnarSweepEvaluator:
        delegate = ColumnarSweepEvaluator(
            self.aggregate, counters=self.counters, space=self.space
        )
        delegate.deadline = self.deadline
        return delegate

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        data = triples if isinstance(triples, list) else list(triples)
        shards = self._shard_count()
        if not data or shards <= 1:
            return self._make_delegate().evaluate(data)
        # The input arrived as per-row tuple objects; the flat-column
        # entry points (evaluate_columns / evaluate_relation) never
        # build these.
        self.counters.tuple_materializations += len(data)
        starts, ends, values = zip(*data)
        return self._evaluate_sharded(
            starts, ends, values, shards=shards, batches=0
        )

    def evaluate_columns(self, columns: "ColumnSet") -> TemporalAggregateResult:
        """Time-sharded evaluation of one flat-column snapshot.

        The zero-tuple hot path: shard workers receive column slices
        (clipped by :func:`repro.core.partition.clip_columns`) and no
        per-row tuples exist anywhere between the input columns and the
        stitched result rows.
        """
        shards = self._shard_count()
        if not len(columns) or shards <= 1:
            return self._make_delegate().evaluate_columns(columns)
        return self._evaluate_sharded(
            columns.starts,
            columns.ends,
            columns.values,
            shards=shards,
            batches=columns.batches,
            columns=columns,
        )

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        columns_method = getattr(relation, "columns", None)
        if callable(columns_method):
            return self.evaluate_columns(columns_method(attribute))
        return self.evaluate(relation.scan_triples(attribute))

    def _evaluate_sharded(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        *,
        shards: int,
        batches: int,
        columns: "Optional[ColumnSet]" = None,
    ) -> TemporalAggregateResult:
        validate_columns(starts, ends)
        windows = shard_bounds(starts, ends, shards)
        self.last_supervision = None
        if len(windows) == 1:
            return self._make_delegate()._evaluate_columns(
                starts, ends, values, batches=batches
            )
        from repro.exec.pool import sweep_shards  # deferred: import cycle

        shard_results, self.last_supervision = sweep_shards(
            starts,
            ends,
            values,
            windows,
            self.aggregate,
            columns=columns,
            counters=self.counters,
            deadline=self.deadline,
            retry=self.retry,
            shard_timeout=self.shard_timeout,
        )
        # Stitch the per-window rows and fold shard events into the
        # counters (worker-private deltas like ``pool_shards`` were
        # merged by the pool).
        raw = stitch_rows(
            [rows for rows, _events in shard_results], set(starts), set(ends)
        )
        counters = self.counters
        counters.tuples += len(starts)
        counters.column_batches += batches
        for _rows, events in shard_results:
            counters.node_visits += events
            counters.aggregate_updates += events
        counters.emitted += len(raw)
        self.space.absorb_concurrent(
            [events for _rows, events in shard_results]
        )
        rows = list(map(tuple.__new__, repeat(ConstantInterval), raw))
        return TemporalAggregateResult(rows, check=False)


# ---------------------------------------------------------------------------
# Tuple-set partitioning (the historical value-merge plan)
# ---------------------------------------------------------------------------

def partitioned_aggregate(
    triples: Iterable[Triple],
    aggregate: "Aggregate | str",
    partitions: int = 4,
    strategy: str = "aggregation_tree",
    *,
    k: Optional[int] = None,
    threads: bool = False,
) -> TemporalAggregateResult:
    """Evaluate per round-robin partition, then merge.

    ``threads=True`` runs the per-partition evaluations on a thread
    pool (the parallel plan's shape; CPU-bound pure Python won't scale
    past the GIL, but the plan and merge logic are what's modeled).
    """
    from repro.core.engine import make_evaluator  # deferred: import cycle

    aggregate = coerce_aggregate(aggregate)
    _value_merger(aggregate.name)  # validate up front
    validate_shards(partitions, what="partitions")

    chunks: List[List[Triple]] = [[] for _ in range(partitions)]
    for index, triple in enumerate(triples):
        chunks[index % partitions].append(triple)

    def evaluate(chunk: Sequence[Triple]) -> TemporalAggregateResult:
        evaluator = make_evaluator(strategy, aggregate, k=k)
        return evaluator.evaluate(list(chunk))

    if threads and partitions > 1:
        with ThreadPoolExecutor(max_workers=partitions) as pool:
            partials = list(pool.map(evaluate, chunks))
    else:
        partials = [evaluate(chunk) for chunk in chunks]

    merged = partials[0]
    for partial in partials[1:]:
        merged = merge_results(merged, partial, aggregate)
    return merged
