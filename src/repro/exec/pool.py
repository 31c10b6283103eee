"""The process backend: a resident worker pool over shared memory.

Time-sharded sweeps (``parallel_sweep`` and the shard-result cache's
recompute and dirty-shard refresh) leave the process only through this
module, and only through one gate, :func:`sweep_shards`.  Shards go to
worker processes when all of these hold: a pool is already running
(:func:`active_pool` — nothing on an evaluation path ever starts one),
the columns carry their relation's uid and version, the input has at
least :func:`pool_min_tuples` tuples, there is more than one window,
and the aggregate is a registry aggregate a worker can rebuild by
name.  Otherwise the shards run in-process with a deadline check
between them, through the same per-window kernel, so the rows are
identical either way.

The backend pays each cost of process parallelism exactly once:

* **Workers fork once**, at pool start, and then live across queries
  (:class:`ResidentWorkerPool`).  A query sends each worker a few
  hundred bytes of job descriptor over a pipe and reads rows back; no
  interpreter start, no module re-import, no column pickling.  The
  ``pool_forks`` counter proves the shape: it equals the worker count
  (plus crash respawns), never the statement count.  Pools start only
  where a caller asks: ``ServerConfig(pool_workers=N)``,
  :func:`acquire_default_pool`, or ``with default_pool(n):``.

* **Columns publish once per (relation uid, version)** into named
  ``multiprocessing.shared_memory`` segments (:class:`SegmentStore`).
  The ``array('q')`` timestamp columns map byte-for-byte into the
  segment; workers attach by name and read them zero-copy through a
  ``memoryview('q')``.  A second query against the same snapshot — the
  common case under serving load — reuses the published segments
  outright.  Segments are refcounted (pins for in-flight sweeps, a
  doom mark for released versions) and unlinked deterministically on
  release, relation GC (:meth:`SegmentStore.adopt`), pool shutdown,
  and interpreter exit (``atexit``), so ``/dev/shm`` holds nothing
  after the owning process is done — the hygiene property the tests
  assert by listing segment names before and after.

Worker lifecycle is supervised (:class:`ResidentPoolSupervisor`): a
worker that dies mid-job (OOM killer, injected ``kill`` fault) is
detected by pipe EOF, respawned, and the job retried under the
:class:`~repro.exec.supervision.RetryPolicy`; jobs that exhaust their
attempts fall back to an exact in-process evaluation, so the caller
sees identical rows no matter how many workers die.  Deadlines bound
every pipe wait.

Fault injection: workers fork *before* any test installs a
:class:`~repro.exec.faults.FaultPlan`, so the active plan travels
inside each job descriptor (plans are small frozen dataclasses,
picklable by construction) and fires inside the worker.  The
in-process fallback never sees it.

Cross-process metrics stay exact: each worker tallies its own
per-job counter deltas (shard sweeps run, tuples materialized — zero
on this columnar path, which is the PR 6 proof the pool must not
regress) and returns them with the rows; the parent merges them into
the caller's :class:`~repro.metrics.counters.OperationCounters`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import weakref
from array import array
from collections import OrderedDict
from multiprocessing import shared_memory
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import get_aggregate
from repro.core.columnar_sweep import window_rows
from repro.core.parallel import registered_instance
from repro.exec.deadline import Deadline
from repro.exec.errors import ShardFailure
from repro.exec.faults import FaultPlan, current_fault_plan
from repro.exec.supervision import RetryPolicy, SupervisionReport

from repro.metrics.counters import OperationCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregates import Aggregate
    from repro.core.columns import ColumnSet

__all__ = [
    "SegmentStore",
    "PublishedSnapshot",
    "ResidentWorkerPool",
    "ResidentPoolSupervisor",
    "sweep_shards",
    "running_workers",
    "pool_min_tuples",
    "pool_workers_from_env",
    "default_pool",
    "active_pool",
    "acquire_default_pool",
    "release_default_pool",
    "shutdown_default_pool",
    "default_segment_store",
]

#: Default minimum input size before the resident pool pays for itself;
#: overridable through ``REPRO_POOL_MIN_TUPLES``.
DEFAULT_POOL_MIN_TUPLES = 32_768

#: Counter-delta fields a worker may report back with a job result.
#: A fixed allowlist: the parent merges blindly, so the protocol — not
#: the worker — decides which counters can cross the process boundary.
WORKER_DELTA_FIELDS = ("pool_shards", "tuple_materializations")


def pool_min_tuples() -> int:
    """Minimum tuple count before :func:`sweep_shards` uses the pool.

    Reads ``REPRO_POOL_MIN_TUPLES``; invalid or missing values fall
    back to :data:`DEFAULT_POOL_MIN_TUPLES`.
    """
    raw = os.environ.get("REPRO_POOL_MIN_TUPLES", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_POOL_MIN_TUPLES
    return value if value >= 0 else DEFAULT_POOL_MIN_TUPLES


def pool_workers_from_env() -> Optional[int]:
    """Worker-count override from ``REPRO_POOL_WORKERS`` (None = auto)."""
    raw = os.environ.get("REPRO_POOL_WORKERS", "")
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 1 else None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Shared-memory column segments
# ---------------------------------------------------------------------------


def _shareable_values(values: Optional[Sequence[Any]]) -> Optional[array]:
    """The value column as int64s, or None when it cannot map.

    Only ``array('q')``-compatible values (plain ints in int64 range)
    lay out directly in a shared segment; floats, Decimals, strings and
    mixed columns return None and the shards run in-process, where the
    kernel handles arbitrary Python values.
    """
    if values is None:
        return None
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except (TypeError, ValueError, OverflowError):
        return None


class PublishedSnapshot:
    """One (relation uid, version) snapshot resident in shared memory.

    Holds the parent-side segment handles plus the descriptor fields a
    job needs to attach from a worker: segment *names* and the row
    count (segment sizes round up to page granularity, so the length
    travels explicitly).
    """

    __slots__ = (
        "uid",
        "version",
        "column_key",
        "length",
        "segments",
        "starts_name",
        "ends_name",
        "values_name",
        "pins",
        "doomed",
    )

    def __init__(
        self,
        uid: int,
        version: int,
        column_key: str,
        length: int,
        segments: List[shared_memory.SharedMemory],
        values_name: Optional[str],
    ) -> None:
        self.uid = uid
        self.version = version
        self.column_key = column_key
        self.length = length
        self.segments = segments
        self.starts_name = segments[0].name
        self.ends_name = segments[1].name
        self.values_name = values_name
        self.pins = 0
        self.doomed = False

    def descriptor(self) -> Dict[str, Any]:
        """The picklable attach-by-name fields for a job spec."""
        return {
            "starts_name": self.starts_name,
            "ends_name": self.ends_name,
            "values_name": self.values_name,
            "length": self.length,
        }

    def destroy(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for segment in self.segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass  # already unlinked (e.g. atexit after explicit release)
        self.segments = []


class SegmentStore:
    """Refcounted registry of published column snapshots.

    One store per process owns every segment this process created.
    ``publish`` is idempotent per (uid, version, column key) — the
    column key names the attribute the value column was scanned from,
    because one relation version has a *different* value column per
    attribute — so the serving case of many statements against one
    snapshot publishes once and reuses.  A snapshot first published
    value-less (a COUNT sweep needs no values) upgrades in place when
    a valued sweep later needs the same attribute's column.
    Reclamation is deterministic: a snapshot dies when it is *released*
    (its relation moved on, or its owner was garbage collected) **and**
    no in-flight sweep holds a pin.  ``shutdown`` (also registered via
    ``atexit``) unlinks everything unconditionally, so a crashed or
    interrupted run leaves ``/dev/shm`` clean.
    """

    #: Resident snapshots kept per store; beyond this the least
    #: recently used unpinned snapshot is doomed on publish, bounding
    #: ``/dev/shm`` under long append-heavy serving runs.
    MAX_RESIDENT_SNAPSHOTS = 8

    def __init__(self, max_resident: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self.max_resident = (
            max_resident if max_resident is not None
            else self.MAX_RESIDENT_SNAPSHOTS
        )
        #: (uid, version, column_key) -> snapshot, LRU-ordered by last
        #: publish/pin touch.  # ta: guarded-by(self._lock)
        self._snapshots: "OrderedDict[Tuple[int, int, str], PublishedSnapshot]" = (
            OrderedDict()
        )
        #: Doomed-but-pinned snapshots whose registry slot was reused
        #: by a later publish of the same key.  They no longer appear
        #: in ``_snapshots`` yet their segments are still linked, so
        #: the store must keep owning them until the last unpin (or
        #: ``shutdown``) destroys them.  # ta: guarded-by(self._lock)
        self._limbo: List[PublishedSnapshot] = []
        self._nonce = 0  # ta: guarded-by(self._lock)
        self.published_total = 0  # ta: guarded-by(self._lock)
        self.reclaimed_total = 0  # ta: guarded-by(self._lock)

    # -- naming ---------------------------------------------------------

    def _segment_name_locked(self, uid: int, version: int, column: str) -> str:
        # The pid prefix scopes hygiene checks to this process's
        # segments; the nonce keeps names fresh across publish cycles
        # of the same (uid, version) after a release.
        self._nonce += 1
        return f"repro-pool-{os.getpid()}-{uid}-v{version}-{column}-{self._nonce}"

    @staticmethod
    def name_prefix() -> str:
        """The ``/dev/shm`` name prefix of this process's segments."""
        return f"repro-pool-{os.getpid()}-"

    # -- publication ----------------------------------------------------

    def _make_segment_locked(
        self, uid: int, version: int, column_name: str, column: array
    ) -> shared_memory.SharedMemory:
        name = self._segment_name_locked(uid, version, column_name)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, len(column) * 8), name=name
        )
        payload = column.tobytes()
        segment.buf[: len(payload)] = payload
        return segment

    def publish(
        self,
        uid: int,
        version: int,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        *,
        column_key: str = "",
        owner: Optional[Any] = None,
        counters: Optional[OperationCounters] = None,
    ) -> Optional[PublishedSnapshot]:
        """Ensure (uid, version, column_key) is resident.

        Returns None — the caller sweeps in-process — for empty
        columns or a value column that does not map to int64.
        Idempotent: a second publish of a live snapshot returns the
        existing one without touching shared memory, except that a
        value-less snapshot grows a values segment the first time a
        valued sweep asks for one.

        ``owner`` (typically the producing ColumnSet) ties the
        publication's lifetime to an object: when the owner is garbage
        collected — its relation died, or a newer version superseded
        it — the snapshot is released automatically.
        """
        if not len(starts):
            return None
        key = (uid, version, column_key)
        with self._lock:
            existing = self._snapshots.get(key)
            if (
                existing is not None
                and not existing.doomed
                and (values is None or existing.values_name is not None)
            ):
                self._snapshots.move_to_end(key)
                return existing
        # Convert outside the lock: the int64 probe is O(n).
        start_column = _shareable_values(starts)
        end_column = _shareable_values(ends)
        value_column = _shareable_values(values)
        if start_column is None or end_column is None:
            return None
        if values is not None and value_column is None:
            return None
        with self._lock:
            existing = self._snapshots.get(key)
            if existing is not None and not existing.doomed:
                self._snapshots.move_to_end(key)
                if value_column is not None and existing.values_name is None:
                    # Upgrade in place: COUNT published timestamps only;
                    # this valued sweep needs the attribute's column too.
                    try:
                        segment = self._make_segment_locked(
                            uid, version, "values", value_column
                        )
                    except (OSError, ValueError):
                        return None
                    existing.segments.append(segment)
                    existing.values_name = segment.name
                    self.published_total += 1
                    if counters is not None:
                        counters.segments_published += 1
                return existing
            segments: List[shared_memory.SharedMemory] = []
            try:
                columns = [("starts", start_column), ("ends", end_column)]
                if value_column is not None:
                    columns.append(("values", value_column))
                for column_name, column in columns:
                    segments.append(
                        self._make_segment_locked(uid, version, column_name, column)
                    )
            except (OSError, ValueError):
                for segment in segments:
                    try:
                        segment.close()
                        segment.unlink()
                    except (FileNotFoundError, OSError):
                        pass
                return None
            snapshot = PublishedSnapshot(
                uid,
                version,
                column_key,
                len(start_column),
                segments,
                segments[2].name if value_column is not None else None,
            )
            if existing is not None:
                # A doomed snapshot still in the registry is pinned by
                # an in-flight sweep (unpinned doomed snapshots are
                # popped eagerly).  Overwriting its slot must not lose
                # track of its live segments: park it in limbo until
                # its last unpin destroys it.
                self._limbo.append(existing)
            self._snapshots[key] = snapshot
            self.published_total += len(segments)
            if counters is not None:
                counters.segments_published += len(segments)
            evicted = self._evict_over_capacity_locked(counters)
        for old in evicted:
            old.destroy()
        if owner is not None:
            try:
                weakref.finalize(owner, self.release_key, uid, version, column_key)
            except TypeError:
                pass  # owner not weak-referenceable; capacity eviction covers it
        return snapshot

    def _evict_over_capacity_locked(
        self, counters: Optional[OperationCounters]
    ) -> List[PublishedSnapshot]:
        """Doom LRU unpinned snapshots beyond ``max_resident``."""
        evicted: List[PublishedSnapshot] = []
        if len(self._snapshots) <= self.max_resident:
            return evicted
        # [:-1]: never evict the entry just published (always newest).
        for key in list(self._snapshots)[:-1]:
            if len(self._snapshots) <= self.max_resident:
                break
            snapshot = self._snapshots[key]
            if snapshot.pins > 0:
                continue
            snapshot.doomed = True
            self._snapshots.pop(key, None)
            self._account_reclaim_locked(snapshot, counters)
            evicted.append(snapshot)
        return evicted

    # -- pinning and reclamation ----------------------------------------

    def pin(
        self, uid: int, version: int, column_key: str = ""
    ) -> Optional[PublishedSnapshot]:
        """Take a use-pin on a live snapshot (None if gone/doomed)."""
        with self._lock:
            snapshot = self._snapshots.get((uid, version, column_key))
            if snapshot is None or snapshot.doomed:
                return None
            snapshot.pins += 1
            self._snapshots.move_to_end((uid, version, column_key))
            return snapshot

    def unpin(
        self,
        snapshot: PublishedSnapshot,
        *,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        """Drop a use-pin; reclaims the snapshot if it was doomed."""
        with self._lock:
            snapshot.pins -= 1
            doomed = snapshot.doomed and snapshot.pins <= 0
            if doomed:
                key = (snapshot.uid, snapshot.version, snapshot.column_key)
                # Pop by identity, never by key alone: while this pin
                # was held the key's slot may have been republished,
                # and popping the *new* snapshot would orphan its
                # segments (untracked yet still linked in /dev/shm).
                if self._snapshots.get(key) is snapshot:
                    self._snapshots.pop(key)
                else:
                    try:
                        self._limbo.remove(snapshot)
                    except ValueError:
                        pass
                self._account_reclaim_locked(snapshot, counters)
        if doomed:
            snapshot.destroy()

    def _account_reclaim_locked(
        self,
        snapshot: PublishedSnapshot,
        counters: Optional[OperationCounters],
    ) -> None:
        reclaimed = len(snapshot.segments)
        self.reclaimed_total += reclaimed
        if counters is not None:
            counters.segments_reclaimed += reclaimed

    def release(
        self,
        uid: int,
        version: Optional[int] = None,
        *,
        counters: Optional[OperationCounters] = None,
    ) -> int:
        """Doom (and reclaim, once unpinned) snapshots of ``uid``.

        ``version=None`` dooms every version of the relation — the
        relation-close/GC path; a specific version dooms just that
        snapshot (e.g. superseded by an append).  Returns the number of
        snapshots reclaimed immediately.
        """
        to_destroy: List[PublishedSnapshot] = []
        with self._lock:
            for key in list(self._snapshots):
                snapshot = self._snapshots[key]
                if snapshot.uid != uid:
                    continue
                if version is not None and snapshot.version != version:
                    continue
                snapshot.doomed = True
                if snapshot.pins <= 0:
                    self._snapshots.pop(key, None)
                    self._account_reclaim_locked(snapshot, counters)
                    to_destroy.append(snapshot)
        for snapshot in to_destroy:
            snapshot.destroy()
        return len(to_destroy)

    def release_key(
        self,
        uid: int,
        version: int,
        column_key: str,
        *,
        counters: Optional[OperationCounters] = None,
    ) -> int:
        """Doom exactly one (uid, version, column_key) snapshot.

        The owner-finalizer path: a dying ColumnSet releases only its
        own publication, never another attribute's columns at the same
        version.  Returns 1 if the snapshot was reclaimed immediately.
        """
        with self._lock:
            snapshot = self._snapshots.get((uid, version, column_key))
            if snapshot is None:
                return 0
            snapshot.doomed = True
            if snapshot.pins > 0:
                return 0
            self._snapshots.pop((uid, version, column_key), None)
            self._account_reclaim_locked(snapshot, counters)
        snapshot.destroy()
        return 1

    def adopt(self, owner: Any, uid: int) -> None:
        """Reclaim every segment of ``uid`` when ``owner`` is GC'd.

        The relation itself cannot import this module (layering), so
        the wiring layer calls ``adopt(relation, relation.uid)`` once
        and garbage collection of the relation unlinks its segments —
        no explicit close required.
        """
        weakref.finalize(owner, self.release, uid)

    # -- shutdown and introspection -------------------------------------

    def live_keys(self) -> List[Tuple[int, int, str]]:
        with self._lock:
            return sorted(self._snapshots)

    def live_segment_names(self) -> List[str]:
        with self._lock:
            snapshots = list(self._snapshots.values()) + self._limbo
            return sorted(
                segment.name
                for snapshot in snapshots
                for segment in snapshot.segments
            )

    def shutdown(self, *, counters: Optional[OperationCounters] = None) -> int:
        """Unlink every segment unconditionally (pins notwithstanding).

        The end-of-process path: at this point no worker will attach
        again, so holding segments for pinned sweeps only leaks them.
        """
        with self._lock:
            snapshots = list(self._snapshots.values()) + self._limbo
            self._snapshots.clear()
            self._limbo = []
            for snapshot in snapshots:
                self._account_reclaim_locked(snapshot, counters)
        for snapshot in snapshots:
            snapshot.destroy()
        return len(snapshots)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _Attachments:
    """A worker's cache of attached segments, keyed by name.

    Attaching is a syscall plus a page-table mapping; caching it makes
    the second and every later job against the same snapshot touch
    nothing but the descriptor bytes on the pipe.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[Tuple[str, int], memoryview] = {}

    def column(self, name: str, length: int) -> memoryview:
        """The named segment's first ``length`` int64s, zero-copy."""
        view = self._views.get((name, length))
        if view is not None:
            return view
        segment = self._segments.get(name)
        if segment is None:
            # Attach-only: ownership stays with the parent's
            # SegmentStore.  Workers are forked, so they share the
            # parent's resource-tracker process; the attach-side
            # re-registration is a set no-op there and the single
            # unregister happens when the store unlinks.  (Do NOT
            # unregister here — that would race the parent's own
            # unregister in the shared tracker.)
            segment = shared_memory.SharedMemory(name=name)
            self._segments[name] = segment
        view = memoryview(segment.buf)[: length * 8].cast("q")
        self._views[(name, length)] = view
        return view

    def close(self) -> None:
        for view in self._views.values():
            view.release()
        self._views.clear()
        for segment in self._segments.values():
            try:
                segment.close()
            except (OSError, BufferError):
                pass  # exported views may pin the mapping; process exit frees it
        self._segments.clear()


def _run_sweep_job(
    spec: Dict[str, Any], attachments: _Attachments
) -> Tuple[str, Any]:
    """Execute one sweep job inside a worker; returns the reply tuple.

    Replies are ``("ok", (rows, events, deltas))`` or
    ``("err", (type_name, message))``.  ``deltas`` carries the worker's
    counter increments for this job (see :data:`WORKER_DELTA_FIELDS`).
    """
    plan: Optional[FaultPlan] = spec.get("plan")
    if plan is not None:
        poison = plan.execute_in_worker(spec["shard"], spec["attempt"])
        if poison is not None:
            # The poison payload is unpicklable; returning it makes the
            # reply send fail, which is the point of the fault.
            return ("ok", (poison, 0, {}))
    length = spec["length"]
    starts = attachments.column(spec["starts_name"], length)
    ends = attachments.column(spec["ends_name"], length)
    values_name = spec.get("values_name")
    values = (
        attachments.column(values_name, length)
        if values_name is not None
        else None
    )
    aggregate = get_aggregate(spec["aggregate"])
    rows, events = window_rows(
        starts, ends, values, aggregate, spec["lo"], spec["hi"]
    )
    # The worker's own counter deltas: the sweep ran here, and — the
    # hot-path proof — it materialized zero intermediate row tuples
    # (columns in, result rows out, nothing between).
    deltas = {"pool_shards": 1, "tuple_materializations": 0}
    return ("ok", (rows, events, deltas))


def _pool_worker(conn: Any) -> None:
    """A resident worker's main loop: recv job, send reply, repeat.

    Lives until a ``stop`` job or pipe EOF (parent died).  Errors are
    typed replies, not crashes — only an injected ``kill`` fault (or a
    real signal) takes the process down.
    """
    attachments = _Attachments()
    try:
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            kind, spec = job
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("ok", "pong"))
                continue
            try:
                reply = _run_sweep_job(spec, attachments)
            except Exception as exc:
                reply = ("err", (type(exc).__name__, str(exc)))
            try:
                conn.send(reply)
            except Exception as exc:
                # Unpicklable result (poison fault): the failed send
                # wrote nothing, so the pipe is still clean — report
                # the serialization failure as a typed error instead.
                try:
                    conn.send(("err", (type(exc).__name__, str(exc))))
                except (OSError, ValueError):
                    break
    finally:
        attachments.close()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side: the resident pool and its supervisor
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle on one resident worker process."""

    __slots__ = ("process", "conn", "index")

    def __init__(self, process: Any, conn: Any, index: int) -> None:
        self.process = process
        self.conn = conn
        self.index = index

    def alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self) -> None:
        try:
            self.conn.send(("stop", None))
        except (OSError, ValueError, BrokenPipeError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)


class ResidentPoolSupervisor:
    """Distribute sweep jobs over resident workers; recover crashes.

    Bounded retries under a :class:`~repro.exec.supervision.
    RetryPolicy` with an exact in-process fallback.  Detection works
    on pipes — a dead worker is an ``EOFError``/closed pipe on recv, a
    hung one a ``poll`` timeout — and recovery respawns the *one*
    worker.  ``report.respawns`` counts those.
    """

    def __init__(
        self,
        pool: "ResidentWorkerPool",
        *,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.pool = pool
        self.retry = retry if retry is not None else RetryPolicy()
        self.shard_timeout = shard_timeout
        self.deadline = deadline
        self.report = SupervisionReport()

    def _check_deadline(self, completed: int, total: int) -> None:
        if self.deadline is not None:
            self.deadline.check(
                completed_shards=completed, total_shards=total
            )

    def _poll_timeout(self) -> Optional[float]:
        timeout = self.shard_timeout
        if self.deadline is not None:
            remaining = self.deadline.remaining_seconds()
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def run(
        self,
        specs: List[Dict[str, Any]],
        fallback: Any,
        counters: Optional[OperationCounters] = None,
    ) -> List[Any]:
        """Run every job spec; returns ``(rows, events, deltas)`` per job.

        ``fallback(spec)`` computes one job in-process (exact, faults
        exempt) after retries are exhausted or when no worker remains.
        Jobs round-robin over workers; every worker's whole batch is
        sent before any reply is read, so all workers compute in
        parallel, and replies are drained from whichever worker
        finishes next (per worker they arrive in send order, which is
        what matches a reply back to its job).
        """
        n = len(specs)
        self.report.total_shards = n
        results: List[Any] = [None] * n
        completed = 0
        attempts = [0] * n
        pending = list(range(n))
        while pending:
            self._check_deadline(completed, n)
            workers = self.pool.workers()
            if not workers:
                for index in pending:
                    self._check_deadline(completed, n)
                    self.report.inprocess_shards += 1
                    results[index] = fallback(specs[index])
                    completed += 1
                pending = []
                break

            # Round-robin assignment; per-worker queues run in order.
            queues: Dict[int, List[int]] = {w.index: [] for w in workers}
            by_index = {w.index: w for w in workers}
            for position, index in enumerate(pending):
                worker = workers[position % len(workers)]
                queues[worker.index].append(index)

            failed: List[Tuple[int, Optional[str]]] = []
            dead_workers: List[int] = []

            def mark_dead(worker_index: int) -> None:
                if worker_index not in dead_workers:
                    dead_workers.append(worker_index)

            # Send phase: every batch goes out up front.  Job
            # descriptors are a few hundred bytes, so a whole round's
            # batch fits the pipe buffer without the worker consuming.
            outstanding: "OrderedDict[int, List[int]]" = OrderedDict()
            for worker_index, job_indexes in queues.items():
                worker = by_index[worker_index]
                pipe_down = False
                sent: List[int] = []
                for index in job_indexes:
                    attempts[index] += 1
                    specs[index]["attempt"] = attempts[index]
                    if not pipe_down:
                        try:
                            worker.conn.send(("sweep", specs[index]))
                            sent.append(index)
                            continue
                        except (OSError, ValueError, BrokenPipeError):
                            pipe_down = True
                            mark_dead(worker_index)
                            # Un-count the attempt that never started?
                            # No: a dead pipe consumed a real attempt
                            # window.
                    failed.append((index, "send failed: worker pipe down"))
                if sent:
                    outstanding[worker_index] = sent

            # Drain phase: wait on every owing worker's pipe at once.
            try:
                while outstanding:
                    self._check_deadline(completed, n)
                    conns = {by_index[wi].conn: wi for wi in outstanding}
                    timeout = self._poll_timeout()
                    ready = connection_wait(
                        list(conns),
                        timeout=None if timeout is None else max(0.0, timeout),
                    )
                    if not ready:
                        # A full per-shard timeout passed with no reply
                        # from *any* worker: everything still owing is
                        # wedged (or mid-sleep on a delay fault).
                        self.report.timeouts += 1
                        for worker_index in list(outstanding):
                            for index in outstanding.pop(worker_index):
                                failed.append((index, "job timed out"))
                            mark_dead(worker_index)
                        # Deadline enforcement resumes right after the
                        # wedged workers are respawned below — raising
                        # before the respawn would leave their stale
                        # replies in the pipes.
                        continue
                    for conn in ready:
                        worker_index = conns[conn]
                        queue = outstanding.get(worker_index)
                        if not queue:
                            continue
                        try:
                            reply = conn.recv()
                        except (EOFError, OSError):
                            for index in outstanding.pop(worker_index):
                                failed.append((index, "worker died (pipe EOF)"))
                            mark_dead(worker_index)
                            continue
                        index = queue.pop(0)
                        if not queue:
                            outstanding.pop(worker_index, None)
                        kind, payload = reply
                        if kind == "ok":
                            results[index] = payload
                            self.report.pooled_shards += 1
                            completed += 1
                        else:
                            type_name, message = payload
                            failed.append((index, f"{type_name}: {message}"))
                        self._check_deadline(completed, n)
            except BaseException:
                # Abandoning the round (a deadline, typically) with
                # replies still owed would leave stale replies in those
                # pipes to corrupt the next fan-out: replace the owing
                # workers before propagating.
                for worker_index in outstanding:
                    self.report.respawns += 1
                    self.pool.respawn(worker_index, counters=counters)
                raise

            for worker_index in dead_workers:
                # A timed-out worker may still be alive but wedged (or
                # mid-sleep on a delay fault): replace it either way so
                # the next round starts from a clean pipe.
                self.report.respawns += 1
                self.pool.respawn(worker_index, counters=counters)

            next_round: List[int] = []
            for index, cause in failed:
                if attempts[index] >= self.retry.max_attempts:
                    self.report.failures.append(
                        ShardFailure(
                            f"pool job {index} failed {attempts[index]} "
                            f"attempts ({cause}); recovering in-process",
                            shard=specs[index].get("shard", index),
                            window=(specs[index]["lo"], specs[index]["hi"]),
                            attempts=attempts[index],
                        )
                    )
                    self._check_deadline(completed, n)
                    self.report.inprocess_shards += 1
                    results[index] = fallback(specs[index])
                    completed += 1
                else:
                    self.report.retries += 1
                    next_round.append(index)

            if next_round:
                delay = max(
                    self.retry.backoff(index, attempts[index])
                    for index in next_round
                )
                if self.deadline is not None:
                    delay = min(delay, self.deadline.remaining_seconds())
                if delay > 0:
                    time.sleep(delay)
            pending = next_round
        return results


class ResidentWorkerPool:
    """A fork-once pool of resident sweep workers.

    ``workers=None`` sizes from ``REPRO_POOL_WORKERS`` then the core
    count (via :func:`repro.core.partition.available_workers`).  The
    pool owns a :class:`SegmentStore` for its snapshots and a single
    submission lock: one sweep fan-out at a time, with workers
    surviving in between — that survival is the entire point.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        store: Optional[SegmentStore] = None,
    ) -> None:
        if workers is None:
            workers = pool_workers_from_env()
        if workers is None:
            from repro.core.partition import available_workers

            workers = available_workers()
        if workers < 1:
            raise ValueError("a resident pool needs at least 1 worker")
        self.worker_count = workers
        self.store = store if store is not None else default_segment_store()
        self._ctx = (
            multiprocessing.get_context("fork") if _fork_available() else None
        )
        self._lock = threading.RLock()
        self._workers: List[Optional[_Worker]] = []  # ta: guarded-by(self._lock)
        self._started = False  # ta: guarded-by(self._lock)
        self._closed = False  # ta: guarded-by(self._lock)
        self.forks_total = 0  # ta: guarded-by(self._lock)
        #: Shards whose accepted result came from a worker, over the
        #: pool's life.  # ta: guarded-by(self._lock)
        self.shards_total = 0

    # -- lifecycle ------------------------------------------------------

    def usable(self) -> bool:
        with self._lock:
            return self._ctx is not None and not self._closed

    def _spawn_locked(self, index: int) -> _Worker:
        assert self._ctx is not None
        # Start the parent's resource tracker BEFORE forking: a worker
        # forked without one would lazily spawn its own on first
        # attach, and that private tracker would "reclaim" (unlink,
        # with a warning) names the parent still owns when the worker
        # exits.  Forked after ensure_running, workers inherit the
        # parent's tracker fd and every registration lands in one
        # shared, set-deduplicated cache that the store's unlink
        # clears exactly once.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError, OSError):
            pass  # no tracker on this platform; nothing to share
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn,),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.forks_total += 1
        return _Worker(process, parent_conn, index)

    def start(
        self, *, counters: Optional[OperationCounters] = None
    ) -> "ResidentWorkerPool":
        """Fork the workers (idempotent).  The only fork site."""
        with self._lock:
            if self._started or not self.usable():
                return self
            before = self.forks_total
            self._workers = [
                self._spawn_locked(index) for index in range(self.worker_count)
            ]
            self._started = True
            if counters is not None:
                counters.pool_forks += self.forks_total - before
        return self

    def started(self) -> bool:
        with self._lock:
            return self._started

    def respawn(
        self, index: int, *, counters: Optional[OperationCounters] = None
    ) -> None:
        """Replace worker ``index`` after a crash or hang."""
        with self._lock:
            if not self._started or self._closed or self._ctx is None:
                return
            old = self._workers[index] if index < len(self._workers) else None
            if old is not None:
                try:
                    old.conn.close()
                except OSError:
                    pass
                if old.process.is_alive():
                    old.process.terminate()
                old.process.join(timeout=2.0)
            self._workers[index] = self._spawn_locked(index)
            if counters is not None:
                counters.pool_forks += 1
                counters.worker_respawns += 1

    def workers(self) -> List[_Worker]:
        with self._lock:
            return [w for w in self._workers if w is not None and w.alive()]

    def stop(self, *, counters: Optional[OperationCounters] = None) -> None:
        """Stop every worker and reclaim this pool's segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._workers if w is not None]
            self._workers = []
        for worker in workers:
            worker.terminate()
        self.store.shutdown(counters=counters)

    def __enter__(self) -> "ResidentWorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- evaluation -----------------------------------------------------

    def sweep_columns(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        values: Optional[Sequence[Any]],
        windows: Sequence[Tuple[int, int]],
        aggregate_name: str,
        *,
        uid: Optional[int],
        version: Optional[int],
        column_key: str = "",
        owner: Optional[Any] = None,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        counters: Optional[OperationCounters] = None,
    ) -> Optional[Tuple[List[Any], "ResidentPoolSupervisor"]]:
        """Fan ``windows`` out over the resident workers.

        Returns ``(shard_results, supervisor)`` with one
        ``(rows, events)`` pair per window (worker counter deltas
        already merged into ``counters``), or None when the resident
        backend cannot serve this input — pool not started,
        unidentified snapshot (no uid/version), unshareable values,
        fork unavailable — and the caller should sweep in-process.  Exactly one fan-out runs
        at a time; the columns publish at most once per snapshot.
        """
        # A sweep never starts the pool: forking is the starter's call.
        if uid is None or version is None:
            return None
        if not (self.usable() and self.started()):
            return None
        snapshot = self.store.publish(
            uid,
            version,
            starts,
            ends,
            values,
            column_key=column_key,
            owner=owner,
            counters=counters,
        )
        if snapshot is None:
            return None
        pinned = self.store.pin(uid, version, column_key)
        if pinned is None:
            return None
        try:
            plan = current_fault_plan()
            descriptor = pinned.descriptor()
            if values is None:
                # A value-less sweep (COUNT) must stay value-less even
                # when the snapshot carries a values segment for others.
                descriptor["values_name"] = None
            specs = [
                dict(
                    descriptor,
                    lo=lo,
                    hi=hi,
                    aggregate=aggregate_name,
                    shard=shard,
                    attempt=0,
                    plan=plan if plan is not None and plan.shard_faults else None,
                )
                for shard, (lo, hi) in enumerate(windows)
            ]
            aggregate = get_aggregate(aggregate_name)

            def fallback(spec: Dict[str, Any]) -> Tuple[Any, int, Dict[str, int]]:
                rows, events = window_rows(
                    starts, ends, values, aggregate, spec["lo"], spec["hi"]
                )
                return (rows, events, {})

            supervisor = ResidentPoolSupervisor(
                self,
                retry=retry,
                shard_timeout=shard_timeout,
                deadline=deadline,
            )
            with self._lock:
                job_results = supervisor.run(specs, fallback, counters)
                self.shards_total += supervisor.report.pooled_shards
            if counters is not None:
                for result in job_results:
                    deltas = result[2]
                    for field in WORKER_DELTA_FIELDS:
                        if field in deltas:
                            setattr(
                                counters,
                                field,
                                getattr(counters, field) + deltas[field],
                            )
            shard_results = [
                (result[0], result[1]) for result in job_results
            ]
            return shard_results, supervisor
        finally:
            self.store.unpin(pinned, counters=counters)


# ---------------------------------------------------------------------------
# Process-wide defaults
# ---------------------------------------------------------------------------

# Reentrant: default_pool() holds it while ResidentWorkerPool.__init__
# fetches the default store through default_segment_store().
_DEFAULT_LOCK = threading.RLock()
_DEFAULT_STORE: Optional[SegmentStore] = None  # ta: guarded-by(_DEFAULT_LOCK)
_DEFAULT_POOL: Optional[ResidentWorkerPool] = None  # ta: guarded-by(_DEFAULT_LOCK)
#: Outstanding acquire_default_pool() references; the pool is shut
#: down when the count returns to zero.  # ta: guarded-by(_DEFAULT_LOCK)
_DEFAULT_POOL_REFS = 0


def default_segment_store() -> SegmentStore:
    """The process-wide segment store (created on first touch)."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = SegmentStore()
        return _DEFAULT_STORE


def default_pool(workers: Optional[int] = None) -> Optional[ResidentWorkerPool]:
    """The process-wide resident pool, created (not started) on first touch.

    Returns None on platforms without ``fork``.  ``workers`` sizes the
    pool on first touch only; later calls return the existing pool
    regardless (one resident pool per process — its workers are the
    shared backend for every evaluator and the serve scheduler).
    Nothing forks until someone starts it: ``with default_pool(n):``
    runs a block on a started pool and stops it afterwards.
    """
    global _DEFAULT_POOL
    if not _fork_available():
        return None
    with _DEFAULT_LOCK:
        if _DEFAULT_POOL is None or not _DEFAULT_POOL.usable():
            _DEFAULT_POOL = ResidentWorkerPool(workers)
        return _DEFAULT_POOL


def active_pool() -> Optional[ResidentWorkerPool]:
    """The default pool only if it is *already running*; never creates.

    What :func:`sweep_shards` and the planner consult.  Evaluation
    paths must not fork lazily: they run on server executor threads
    mid-query (forking a multi-threaded process at an arbitrary
    point), and ``ServerConfig(pool_workers=0)`` promises in-process
    evaluation.  Whoever wants resident execution starts the pool
    explicitly — the server's ``start()``, a ``with`` block, a bench
    driver — and this returns it; otherwise None and the shards stay
    in-process.
    """
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOL
    if pool is not None and pool.usable() and pool.started():
        return pool
    return None


def running_workers() -> int:
    """Worker count of the running default pool; 1 when none runs.

    The shard count the planner and ``ParallelSweepEvaluator(shards=
    None)`` use: more windows than workers only adds clipping work.
    """
    pool = active_pool()
    return pool.worker_count if pool is not None else 1


def sweep_shards(
    starts: Sequence[int],
    ends: Sequence[int],
    values: Optional[Sequence[Any]],
    windows: Sequence[Tuple[int, int]],
    aggregate: "Aggregate",
    *,
    columns: "Optional[ColumnSet]" = None,
    counters: Optional[OperationCounters] = None,
    deadline: Optional[Deadline] = None,
    retry: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
) -> Tuple[List[Tuple[List[tuple], int]], Optional[SupervisionReport]]:
    """Sweep every window; the one place shards may leave the process.

    Returns one ``(rows, events)`` pair per window, in window order,
    plus the :class:`~repro.exec.supervision.SupervisionReport` of a
    pooled fan-out (None when the shards ran in-process).  The pool is
    used only when it is already running, ``columns`` is a snapshot
    stamped with its relation's uid and version, the input has at
    least :func:`pool_min_tuples` tuples, there is more than one
    window, and ``aggregate`` is a registry aggregate; worker counter
    deltas are then merged into ``counters``.  In every other case —
    and when the pool declines the input (values that do not map to
    int64) — the windows are swept here, with a ``deadline`` check
    before each one.
    """
    qualifies = (
        len(windows) > 1
        and columns is not None
        and columns.uid is not None
        and columns.version is not None
        and len(starts) >= pool_min_tuples()
        and registered_instance(aggregate)
    )
    # Last, because it takes the pool's lock, which a running fan-out
    # holds: inputs that stay in-process never wait on another sweep.
    pool = active_pool() if qualifies else None
    if pool is not None and columns is not None:
        outcome = pool.sweep_columns(
            starts,
            ends,
            values,
            windows,
            aggregate.name,
            uid=columns.uid,
            version=columns.version,
            column_key=columns.column_key,
            owner=columns,
            deadline=deadline,
            retry=retry,
            shard_timeout=shard_timeout,
            counters=counters,
        )
        if outcome is not None:
            shard_results, supervisor = outcome
            return shard_results, supervisor.report
    shard_results = []
    for index, (lo, hi) in enumerate(windows):
        if deadline is not None:
            deadline.check(completed_shards=index, total_shards=len(windows))
        shard_results.append(window_rows(starts, ends, values, aggregate, lo, hi))
    return shard_results, None


def acquire_default_pool(
    workers: Optional[int] = None,
) -> Optional[ResidentWorkerPool]:
    """:func:`default_pool` plus a shutdown reference.

    Callers that own a pool lifetime (one per server instance) pair
    this with :func:`release_default_pool`; the process-wide pool is
    only torn down when the last reference drops, so one server
    stopping cannot unlink segments out from under another server — or
    any evaluator sweep — sharing the same process.
    """
    global _DEFAULT_POOL_REFS
    pool = default_pool(workers)
    if pool is None:
        return None
    with _DEFAULT_LOCK:
        _DEFAULT_POOL_REFS += 1
    return pool


def release_default_pool() -> None:
    """Drop one acquire reference; shuts the pool down at zero."""
    global _DEFAULT_POOL_REFS
    with _DEFAULT_LOCK:
        if _DEFAULT_POOL_REFS > 0:
            _DEFAULT_POOL_REFS -= 1
        remaining = _DEFAULT_POOL_REFS
    if remaining == 0:
        shutdown_default_pool()


def shutdown_default_pool() -> None:
    """Stop the default pool and unlink every default-store segment."""
    global _DEFAULT_POOL, _DEFAULT_POOL_REFS
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOL
        _DEFAULT_POOL = None
        _DEFAULT_POOL_REFS = 0
        store = _DEFAULT_STORE
    if pool is not None:
        pool.stop()
    elif store is not None:
        store.shutdown()


def _atexit_cleanup() -> None:
    # Last-resort hygiene: whatever the process failed to release,
    # unlink now so /dev/shm is clean after every exit path.
    try:
        shutdown_default_pool()
    except (OSError, ValueError):
        pass


atexit.register(_atexit_cleanup)
