"""The endpoint sweep over flat columns — no per-event objects.

Same algorithm as :class:`~repro.core.sweep.SweepEvaluator`, different
data layout, end to end.  The input arrives as a
:class:`~repro.core.columns.ColumnSet` (two ``array('q')`` timestamp
columns plus an optional value column — see
:meth:`~repro.storage.heapfile.HeapFile.scan_columns` and
:meth:`~repro.relation.relation.TemporalRelation.columns`), the two
endpoint columns are sorted independently (plain ints sort at C speed;
value-carrying aggregates sort *indices* keyed by the time column, so
values are never compared), and a per-aggregate **specialized kernel**
merges the two sorted streams with a pair of cursors:

* COUNT — one running integer, no value column at all;
* SUM / AVG — a running total (plus live count), inlined arithmetic
  instead of absorb/retract calls;
* MIN / MAX — the lazy-deletion heap with its methods hoisted to
  locals;
* anything else — the generic absorb/retract walk (or the heap walk
  for non-invertible aggregates), bound methods hoisted out of the
  loop.

:func:`make_kernel` builds the matching closure once per evaluation, so
the inner loops carry **no per-event dispatch** — no ``isinstance``, no
method lookup, no aggregate-protocol indirection.  Result rows are
accumulated as plain 3-tuples and batch-converted to
:class:`~repro.core.result.ConstantInterval` at the end; between the
page bytes and those emitted rows the pipeline materializes zero
per-row or per-event tuple objects, which
:attr:`~repro.metrics.counters.OperationCounters.tuple_materializations`
makes checkable.

The walk functions are module-level and windowed (``lo``/``hi``) so
:mod:`repro.core.parallel` can run them per time shard; rows outside
the window are never produced.  Semantics match the object sweep
exactly: all events at one instant are applied together before the
next row is cut, invertible aggregates reset to the identity when the
live count hits zero, and non-invertible aggregates fall back to the
lazy-deletion heap.
"""

from __future__ import annotations

from itertools import repeat
from operator import le
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.aggregates import (
    Aggregate,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.core.base import Evaluator, Triple
from repro.core.columns import ColumnSet
from repro.core.interval import FOREVER, ORIGIN
from repro.core.partition import clip_columns
from repro.core.result import ConstantInterval, TemporalAggregateResult
from repro.core.sweep import _LazyHeap

__all__ = [
    "ColumnarSweepEvaluator",
    "Kernel",
    "columnar_rows",
    "make_kernel",
    "validate_columns",
    "window_rows",
]

#: Sentinel beyond every legal event time (events are <= FOREVER).
_AFTER_FOREVER = FOREVER + 2

#: A specialized sweep kernel: whole columns in, plain-tuple rows out.
Kernel = Callable[
    [Sequence[int], Sequence[int], Optional[Sequence[Any]], int, int],
    List[Tuple[int, int, Any]],
]


def validate_columns(starts: Sequence[int], ends: Sequence[int]) -> None:
    """Bulk interval validation over whole columns.

    The happy path is three C-speed column checks; only on failure does
    the per-tuple loop rerun to raise the usual per-interval error.
    """
    if min(starts) >= 0 and max(ends) <= FOREVER and all(map(le, starts, ends)):
        return
    for start, end in zip(starts, ends):
        Evaluator._check_triple(start, end)


def _walk_count(
    ss: List[int], bb: List[int], lo: int, hi: int, count: int
) -> List[Tuple[int, int, Any]]:
    """COUNT kernel walk: two sorted int columns, one running integer."""
    out: List[Tuple[int, int, Any]] = []
    append = out.append
    i = j = 0
    ni = len(ss)
    nj = len(bb)
    cursor = lo
    while True:  # ta: hot
        t = ss[i] if i < ni else _AFTER_FOREVER
        tb = bb[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append((cursor, t - 1, count))
            cursor = t
        while i < ni and ss[i] == t:
            count += 1
            i += 1
        while j < nj and bb[j] == t:
            count -= 1
            j += 1
    append((cursor, hi, count))
    return out


def _walk_sum(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    lo: int,
    hi: int,
) -> List[Tuple[int, int, Any]]:
    """SUM kernel walk: a running total, arithmetic inlined.

    Emits ``None`` over empty stretches (SQL's NULL over an empty
    group) and resets the total to 0 when the live count hits zero, so
    float drift never leaks across an empty gap — exactly the object
    sweep's identity-reset convention.
    """
    out: List[Tuple[int, int, Any]] = []
    append = out.append
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    live = 0
    total = 0
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append((cursor, t - 1, total if live else None))
            cursor = t
        while i < ni and s_times[i] == t:
            total += s_values[i]
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            if live:
                total -= b_values[j]
            else:
                total = 0
            j += 1
    append((cursor, hi, total if live else None))
    return out


def _walk_avg(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    lo: int,
    hi: int,
) -> List[Tuple[int, int, Any]]:
    """AVG kernel walk: running (total, live) pair, division at emit."""
    out: List[Tuple[int, int, Any]] = []
    append = out.append
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    live = 0
    total = 0
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append((cursor, t - 1, total / live if live else None))
            cursor = t
        while i < ni and s_times[i] == t:
            total += s_values[i]
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            if live:
                total -= b_values[j]
            else:
                total = 0
            j += 1
    append((cursor, hi, total / live if live else None))
    return out


def _walk_invertible(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    aggregate: Aggregate,
    lo: int,
    hi: int,
    state: Any,
    live: int,
) -> List[Tuple[int, int, Any]]:
    """Generic absorb/retract walk for invertible value aggregates.

    The fallback for aggregates without a specialized kernel; the
    bound methods are hoisted to locals so the loop still carries no
    attribute lookups.
    """
    absorb = aggregate.absorb
    retract = aggregate.retract
    finalize = aggregate.finalize
    identity = aggregate.identity
    empty_value = finalize(identity())
    out: List[Tuple[int, int, Any]] = []
    append = out.append
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append((cursor, t - 1, empty_value if live == 0 else finalize(state)))
            cursor = t
        while i < ni and s_times[i] == t:
            state = absorb(state, s_values[i])
            live += 1
            i += 1
        while j < nj and b_times[j] == t:
            live -= 1
            state = identity() if live == 0 else retract(state, b_values[j])
            j += 1
    append((cursor, hi, empty_value if live == 0 else finalize(state)))
    return out


def _walk_extremal(
    s_times: List[int],
    s_values: List[Any],
    b_times: List[int],
    b_values: List[Any],
    largest: bool,
    lo: int,
    hi: int,
    initial: Sequence[Any] = (),
) -> List[Tuple[int, int, Any]]:
    """Lazy-deletion-heap walk for MIN/MAX (non-invertible aggregates)."""
    heap = _LazyHeap(largest_first=largest)
    for value in initial:
        heap.push(value)
    top = heap.top
    push = heap.push
    discard = heap.discard
    out: List[Tuple[int, int, Any]] = []
    append = out.append
    i = j = 0
    ni = len(s_times)
    nj = len(b_times)
    cursor = lo
    while True:  # ta: hot
        t = s_times[i] if i < ni else _AFTER_FOREVER
        tb = b_times[j] if j < nj else _AFTER_FOREVER
        if tb < t:
            t = tb
        if t > hi:
            break
        if t > cursor:
            append((cursor, t - 1, top()))
            cursor = t
        while i < ni and s_times[i] == t:
            push(s_values[i])
            i += 1
        while j < nj and b_times[j] == t:
            discard(b_values[j])
            j += 1
    append((cursor, hi, top()))
    return out


def _sorted_events(
    starts: Sequence[int], ends: Sequence[int], values: Sequence[Any]
) -> Tuple[List[int], List[Any], List[int], List[Any]]:
    """Time-sorted start and retraction event columns.

    Sorting goes through index lists keyed by the time column so tuple
    values are never compared (they may not be mutually orderable).
    """
    s_order = sorted(range(len(starts)), key=starts.__getitem__)
    s_times = [starts[i] for i in s_order]
    s_values = [values[i] for i in s_order]
    finite = [i for i in range(len(ends)) if ends[i] < FOREVER]
    finite.sort(key=ends.__getitem__)
    b_times = [ends[i] + 1 for i in finite]
    b_values = [values[i] for i in finite]
    return s_times, s_values, b_times, b_values


def make_kernel(aggregate: Aggregate) -> Kernel:
    """Build the specialized sweep closure for one aggregate.

    The factory is where per-aggregate decisions happen *once*, so the
    returned closure's loops run free of dispatch: COUNT/SUM/AVG get
    inlined-arithmetic walks, MIN/MAX the hoisted lazy-heap walk, and
    everything else the generic (still hoisted) absorb/retract or heap
    walk.  Specialization keys on the exact stock type — a custom
    subclass registered under a stock name keeps the generic kernel
    and therefore its own ``absorb``/``retract`` semantics.
    """
    kind = type(aggregate)
    if kind is CountAggregate:

        def count_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> List[Tuple[int, int, Any]]:
            ss = sorted(starts)
            bb = sorted([e + 1 for e in ends if e < FOREVER])
            return _walk_count(ss, bb, lo, hi, 0)

        return count_kernel

    if kind is SumAggregate or kind is AvgAggregate:
        walk = _walk_sum if kind is SumAggregate else _walk_avg

        def running_total_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> List[Tuple[int, int, Any]]:
            assert values is not None  # needs_value aggregates get a column
            s_times, s_values, b_times, b_values = _sorted_events(
                starts, ends, values
            )
            return walk(s_times, s_values, b_times, b_values, lo, hi)

        return running_total_kernel

    if kind is MinAggregate or kind is MaxAggregate or not aggregate.invertible:
        largest = aggregate.name == "max"

        def extremal_kernel(
            starts: Sequence[int],
            ends: Sequence[int],
            values: Optional[Sequence[Any]],
            lo: int,
            hi: int,
        ) -> List[Tuple[int, int, Any]]:
            assert values is not None
            s_times, s_values, b_times, b_values = _sorted_events(
                starts, ends, values
            )
            return _walk_extremal(
                s_times, s_values, b_times, b_values, largest, lo, hi
            )

        return extremal_kernel

    def generic_kernel(
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        lo: int,
        hi: int,
    ) -> List[Tuple[int, int, Any]]:
        assert values is not None
        s_times, s_values, b_times, b_values = _sorted_events(
            starts, ends, values
        )
        return _walk_invertible(
            s_times, s_values, b_times, b_values, aggregate,
            lo, hi, aggregate.identity(), 0,
        )

    return generic_kernel


def columnar_rows(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    aggregate: Aggregate,
    lo: int = ORIGIN,
    hi: int = FOREVER,
) -> List[Tuple[int, int, Any]]:
    """Plain ``(start, end, value)`` rows partitioning ``[lo, hi]``.

    The shard-level workhorse.  Events before the window fold into the
    running state before the first row is cut; events past it are never
    reached — though shards clip first (see
    :mod:`repro.core.partition`) so workers don't walk shared prefixes.
    ``values=None`` is accepted for value-less aggregates (COUNT).
    """
    if not len(starts):
        return [(lo, hi, aggregate.finalize(aggregate.identity()))]
    if values is None and type(aggregate) is not CountAggregate:
        # Every kernel but COUNT's subscripts the value column.  A
        # value-less feed under a value aggregate is a caller bug —
        # fill explicitly so the aggregate raises its own error rather
        # than the kernel dying on a None subscript; value-less custom
        # aggregates ignore the filled value entirely.
        values = [None] * len(starts)
    return make_kernel(aggregate)(starts, ends, values, lo, hi)


def event_count(starts: Sequence[int], ends: Sequence[int]) -> int:
    """Events a sweep over these columns processes (starts + finite ends)."""
    return len(starts) + sum(1 for e in ends if e < FOREVER)


def window_rows(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    aggregate: Aggregate,
    lo: int,
    hi: int,
) -> Tuple[List[Tuple[int, int, Any]], int]:
    """One time window's rows from whole-relation columns.

    The per-shard unit of work shared by the parallel sweep and the
    shard-result cache: clip the columns (staying in column layout —
    :func:`repro.core.partition.clip_columns` builds no row tuples),
    run the specialized kernel over the clipped slice, and fall back to
    a single identity row for an empty window.  Returns
    ``(rows, events_processed)``.
    """
    clipped_starts, clipped_ends, clipped_values = clip_columns(
        starts, ends, values, lo, hi
    )
    if not len(clipped_starts):
        empty = aggregate.finalize(aggregate.identity())
        return [(lo, hi, empty)], 0
    rows = columnar_rows(
        clipped_starts, clipped_ends, clipped_values, aggregate, lo, hi
    )
    return rows, event_count(clipped_starts, clipped_ends)


class ColumnarSweepEvaluator(Evaluator):
    """Endpoint sweep over flat columns; same output as ``sweep``.

    Over a relation (or heap file) offering the flat-column protocol
    (``columns(attribute)``), :meth:`evaluate_relation` routes through
    :meth:`evaluate_columns` — the zero-tuple end-to-end path.  Raw
    triple streams still evaluate through :meth:`evaluate`, which
    decomposes them into columns first (and accounts the per-row
    tuples it consumed under ``tuple_materializations``).
    """

    name = "columnar_sweep"

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        data = triples if isinstance(triples, list) else list(triples)
        if not data:
            return self._empty_result()
        # The input arrived as per-row tuple objects; the columnar
        # protocol path (evaluate_columns) never builds these.
        self.counters.tuple_materializations += len(data)
        starts, ends, values = zip(*data)
        return self._evaluate_columns(starts, ends, values, batches=0)

    def evaluate_columns(self, columns: ColumnSet) -> TemporalAggregateResult:
        """Evaluate one flat-column snapshot — the zero-tuple hot path."""
        if not len(columns):
            return self._empty_result()
        return self._evaluate_columns(
            columns.starts, columns.ends, columns.values,
            batches=columns.batches,
        )

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        columns_method = getattr(relation, "columns", None)
        if callable(columns_method):
            return self.evaluate_columns(columns_method(attribute))
        return self.evaluate(relation.scan_triples(attribute))

    def _empty_result(self) -> TemporalAggregateResult:
        aggregate = self.aggregate
        self.counters.emitted += 1
        value = aggregate.finalize(aggregate.identity())
        return TemporalAggregateResult(
            [ConstantInterval(ORIGIN, FOREVER, value)], check=False
        )

    def _evaluate_columns(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        *,
        batches: int,
    ) -> TemporalAggregateResult:
        if self.deadline is not None:
            # The sweep is monolithic; check once before the heavy work
            # (shard-level granularity comes from the parallel plan).
            self.deadline.check(tuples_consumed=0)
        counters = self.counters
        validate_columns(starts, ends)
        raw = columnar_rows(starts, ends, values, self.aggregate)
        # Bulk accounting mirroring the object sweep's totals: one visit
        # and one state update per event, one allocation per event.
        events = event_count(starts, ends)
        counters.tuples += len(starts)
        counters.node_visits += events
        counters.aggregate_updates += events
        counters.emitted += len(raw)
        counters.column_batches += batches
        self.space.allocate(events)
        self.space.free(events)
        rows = list(map(tuple.__new__, repeat(ConstantInterval), raw))
        return TemporalAggregateResult(rows, check=False)
