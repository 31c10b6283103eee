"""Cached evaluation: pure hits, append deltas, and full recomputes.

:func:`evaluate_cached` is the cache's engine boundary.  Given a
relation carrying the result-cache protocol (uid, version, append
watermark, chained fingerprint — see
:class:`~repro.relation.relation.TemporalRelation`), it serves one
``temporal_aggregate`` call down one of three paths:

* **Pure hit** — the entry's version and fingerprint match the
  relation's: return a copy of the stitched rows.  No scan, no sort,
  no sweep.
* **Append delta** — the entry predates some appends but postdates the
  last in-place reorder, and the relation confirms the content chain
  (:meth:`~repro.relation.relation.TemporalRelation.verify_append_chain`):
  mark dirty exactly the time shards whose windows overlap an appended
  tuple's interval, re-sweep *only those* with the columnar kernel,
  and re-stitch against the current boundary sets.  Clean shards'
  cached rows are reused byte for byte.
* **Miss** — shard the timeline (:func:`repro.core.partition.
  shard_bounds`), sweep every window, stitch, and store.

All three paths emit the same rows the uncached evaluators produce:
the windows are swept through the same gate as ``parallel_sweep``
(:func:`repro.exec.pool.sweep_shards` — the resident pool when one is
running and the input qualifies, in-process otherwise) and stitching
heals exactly the artificial seams.  Uncacheable inputs — relations
without the protocol, unregistered aggregate instances, empty
relations — fall through to the plain columnar sweep.

``REPRO_CHECK_INVARIANTS=1`` adds a sampled-shard audit on every pure
hit: one cached window is re-swept from the live relation and compared
row for row (:func:`repro.analysis.invariants.verify_cached_shards`).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterable, Optional, Tuple

from repro.analysis import invariants as _invariants
from repro.core.base import Evaluator, Triple, coerce_aggregate
from repro.core.columnar_sweep import ColumnarSweepEvaluator, validate_columns
from repro.core.parallel import registered_instance
from repro.core.partition import available_workers, shard_bounds, stitch_rows
from repro.core.result import ConstantInterval, TemporalAggregateResult
from repro.exec.pool import sweep_shards
from repro.exec.validation import validate_shards
from repro.cache.store import (
    CachedEntry,
    CacheKey,
    ShardResultCache,
    cacheable_relation,
    default_cache,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.exec.deadline import Deadline
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

__all__ = ["CachedSweepEvaluator", "evaluate_cached"]


def evaluate_cached(
    relation: Any,
    aggregate: "Aggregate | str",
    attribute: Optional[str] = None,
    *,
    shards: Optional[int] = None,
    cache: Optional[ShardResultCache] = None,
    counters: "Optional[OperationCounters]" = None,
    space: "Optional[SpaceTracker]" = None,
    deadline: "Optional[Deadline]" = None,
) -> TemporalAggregateResult:
    """Evaluate over ``relation`` through the shard-result cache.

    This is an engine boundary: the shard count validates through
    :func:`repro.exec.validation.validate_shards` and the miss path
    bulk-validates the scanned columns before sweeping, exactly as the
    parallel sweep does.
    """
    from repro.metrics.counters import OperationCounters
    from repro.metrics.space import SpaceTracker

    aggregate = coerce_aggregate(aggregate)
    shards = validate_shards(shards)
    counters = counters if counters is not None else OperationCounters()
    space = space if space is not None else SpaceTracker(aggregate)
    if (
        not cacheable_relation(relation)
        or not registered_instance(aggregate)
        or len(relation) == 0
    ):
        delegate = ColumnarSweepEvaluator(aggregate, counters=counters, space=space)
        delegate.deadline = deadline
        return delegate.evaluate_relation(relation, attribute)

    cache = cache if cache is not None else default_cache()
    shard_count = shards if shards is not None else available_workers()
    key = CacheKey(relation.uid, aggregate.name, attribute, shard_count)
    entry = cache.lookup(key)

    if (
        entry is not None
        and entry.version == relation.version
        and entry.fingerprint == relation.fingerprint
    ):
        return _serve_hit(
            relation, aggregate, attribute, entry, cache, counters, deadline
        )

    if (
        entry is not None
        and entry.version >= relation.append_watermark
        and entry.row_count <= len(relation)
        and relation.verify_append_chain(entry.row_count, entry.fingerprint)
    ):
        return _refresh_append(
            relation, aggregate, attribute, entry, cache, key, counters,
            space, deadline,
        )

    return _recompute(
        relation, aggregate, attribute, cache, key, shard_count, counters,
        space, deadline,
    )


def _serve_hit(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    entry: CachedEntry,
    cache: ShardResultCache,
    counters: "OperationCounters",
    deadline: "Optional[Deadline]" = None,
) -> TemporalAggregateResult:
    # Even a pure hit honors the caller's deadline: a statement that
    # arrived already past its budget must fail typed, not serve rows
    # the session will never read.
    if deadline is not None:
        deadline.check(cached_rows=len(entry.rows))
    counters.cache_hits += 1
    cache.tally(cache_hits=1)
    counters.emitted += len(entry.rows)
    if _invariants.invariants_enabled():
        _invariants.verify_cached_shards(
            relation, attribute, aggregate, entry.windows, entry.shard_rows
        )
    return TemporalAggregateResult(list(entry.rows), check=False)


def _scan_columns(
    relation: Any, attribute: Optional[str], counters: "OperationCounters"
) -> Tuple[Any, Any, Any, Any]:
    """One counted scan decomposed into validated flat columns.

    Relations offering the flat-column protocol (``columns()``) feed
    the cache straight from their version-keyed column snapshot — no
    per-row tuples are built between storage and the shard kernels.
    Protocol-less relations fall back to decomposing a triple scan (and
    account the per-row tuples that scan materialized).

    The fourth return is the :class:`~repro.core.columns.ColumnSet`
    itself when the relation produced one (None otherwise) — the
    resident pool needs its identity stamp to key a shared-memory
    publication.
    """
    columns_method = getattr(relation, "columns", None)
    if callable(columns_method):
        columns = columns_method(attribute)
        counters.column_batches += columns.batches
        starts, ends, values = columns.starts, columns.ends, columns.values
    else:
        columns = None
        starts, ends, values = zip(*relation.scan_triples(attribute))
        counters.tuple_materializations += len(starts)
    validate_columns(starts, ends)
    return starts, ends, values, columns


def _finish(
    entry: CachedEntry,
    starts: Iterable[int],
    ends: Iterable[int],
    counters: "OperationCounters",
) -> TemporalAggregateResult:
    """Stitch the entry's shard rows against the current boundary sets
    and refresh its finished-row copy."""
    raw = stitch_rows(entry.shard_rows, set(starts), set(ends))
    entry.rows = list(map(tuple.__new__, repeat(ConstantInterval), raw))
    counters.emitted += len(raw)
    return TemporalAggregateResult(list(entry.rows), check=False)


def _refresh_append(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    entry: CachedEntry,
    cache: ShardResultCache,
    key: CacheKey,
    counters: "OperationCounters",
    space: "SpaceTracker",
    deadline: "Optional[Deadline]",
) -> TemporalAggregateResult:
    """Fold appended tuples in by re-sweeping only the dirty shards.

    The refresh is copy-on-write: a published entry is never mutated
    (a concurrent session that validated the old version against the
    old entry may still be copying its rows), so the dirty shards are
    re-swept into a *fresh* entry that replaces the stale one in the
    store.  Readers holding the old object keep a consistent row set
    for the version they pinned.
    """
    delta = relation.triples_since(entry.row_count, attribute)
    windows = entry.windows
    dirty = sorted(
        {
            index
            for index, (lo, hi) in enumerate(windows)
            for start, end, _value in delta
            if start <= hi and end >= lo
        }
    )
    # Uncharge the stale entry up front; the refreshed entry re-admits
    # (and re-applies the byte budget) through the normal store path.
    cache.discard(key)
    starts, ends, values, columns = _scan_columns(relation, attribute, counters)
    refreshed = CachedEntry(
        version=relation.version,
        fingerprint=relation.fingerprint,
        row_count=len(relation),
        windows=windows,
        shard_rows=list(entry.shard_rows),
        rows=[],
    )
    swept, _report = sweep_shards(
        starts,
        ends,
        values,
        [windows[index] for index in dirty],
        aggregate,
        columns=columns,
        counters=counters,
        deadline=deadline,
    )
    for index, (rows, _events) in zip(dirty, swept):
        refreshed.shard_rows[index] = rows
    events_by_shard = [events for _rows, events in swept]
    counters.tuples += len(delta)
    # The delta itself arrives as a short list of per-row tuples (it
    # drives dirty-window detection); the re-sweep runs on columns.
    counters.tuple_materializations += len(delta)
    counters.node_visits += sum(events_by_shard)
    counters.aggregate_updates += sum(events_by_shard)
    counters.cache_hits += 1
    counters.cache_dirty_shards += len(dirty)
    cache.tally(cache_hits=1, cache_dirty_shards=len(dirty))
    space.absorb_concurrent(events_by_shard)

    result = _finish(refreshed, starts, ends, counters)
    cache.store(key, refreshed)
    return result


def _recompute(
    relation: Any,
    aggregate: "Aggregate",
    attribute: Optional[str],
    cache: ShardResultCache,
    key: CacheKey,
    shard_count: int,
    counters: "OperationCounters",
    space: "SpaceTracker",
    deadline: "Optional[Deadline]",
) -> TemporalAggregateResult:
    """Full miss: sweep every window, stitch, store."""
    counters.cache_misses += 1
    cache.tally(cache_misses=1)
    cache.discard(key)
    starts, ends, values, columns = _scan_columns(relation, attribute, counters)
    windows = shard_bounds(starts, ends, shard_count)
    swept, _report = sweep_shards(
        starts,
        ends,
        values,
        windows,
        aggregate,
        columns=columns,
        counters=counters,
        deadline=deadline,
    )
    shard_rows = [rows for rows, _events in swept]
    events_by_shard = [events for _rows, events in swept]
    counters.tuples += len(starts)
    counters.node_visits += sum(events_by_shard)
    counters.aggregate_updates += sum(events_by_shard)
    space.absorb_concurrent(events_by_shard)

    entry = CachedEntry(
        version=relation.version,
        fingerprint=relation.fingerprint,
        row_count=len(relation),
        windows=windows,
        shard_rows=shard_rows,
        rows=[],
    )
    result = _finish(entry, starts, ends, counters)
    cache.store(key, entry)
    return result


class CachedSweepEvaluator(Evaluator):
    """The ``cached_sweep`` strategy: sharded sweep behind the cache.

    Over a relation carrying the cache protocol, evaluation routes
    through :func:`evaluate_cached`; over raw triples (no identity, no
    version — nothing to key a cache on) it behaves exactly like the
    columnar sweep, so the strategy is safe to select anywhere.
    ``cache=None`` uses the process-default cache at call time.
    """

    name = "cached_sweep"

    def __init__(
        self,
        aggregate: "Aggregate | str",
        *,
        shards: Optional[int] = None,
        cache: Optional[ShardResultCache] = None,
        counters: "Optional[OperationCounters]" = None,
        space: "Optional[SpaceTracker]" = None,
    ) -> None:
        super().__init__(aggregate, counters=counters, space=space)
        self.shards = validate_shards(shards)
        self.cache = cache

    def evaluate(self, triples: Iterable[Triple]) -> TemporalAggregateResult:
        delegate = ColumnarSweepEvaluator(
            self.aggregate, counters=self.counters, space=self.space
        )
        delegate.deadline = self.deadline
        return delegate.evaluate(triples)

    def evaluate_relation(
        self, relation: Any, attribute: Optional[str] = None
    ) -> TemporalAggregateResult:
        return evaluate_cached(
            relation,
            self.aggregate,
            attribute,
            shards=self.shards,
            cache=self.cache,
            counters=self.counters,
            space=self.space,
            deadline=self.deadline,
        )
