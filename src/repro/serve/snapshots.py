"""Snapshot isolation for served relations.

A reader evaluating a statement while other sessions append must see a
*consistent* relation: either all of an append batch or none of it,
and never rows appearing mid-scan.  Served relations get this from the
append-only discipline plus prefix pinning:

* :class:`ServedRelation` is the single append point.  Appends go
  through one lock and map one client operation to exactly one version
  bump (:meth:`~repro.relation.relation.TemporalRelation.append_batch`),
  so a version number identifies an exact prefix of append batches.
* :meth:`ServedRelation.pin` copies the current row references under
  that lock and wraps them in a :class:`SnapshotView` with the current
  version.  The copy is one O(n) pointer copy of immutable rows, so
  appends that land after the pin never reach the view.

A :class:`SnapshotView` *is* a :class:`TemporalRelation` over its
pinned rows: scans, statistics, column snapshots, sorting and the
result-cache protocol are the relation's own methods.  It adopts the
**base relation's uid**, the pinned version, the base's append
watermark, and the furthest fingerprint fold state any earlier pin
reached, so its fingerprint is the base's chain at the pinned version
and its first read folds only rows no earlier pin folded.  A statement
that never reads it (a filtered one, which bypasses the cache) folds
nothing.  That is what makes the shared server cache
work across concurrent appends: a result computed at version ``v``
pure-hits any later statement pinned at ``v``, and a statement pinned
at ``v+k`` append-delta refreshes it over exactly the ``k`` batches in
between.  Column snapshots carry the same ``(uid, version)``, so
resident-pool segments key on the served relation too.  No locks are
held while evaluating — pinning is the only synchronized step.

Snapshot correctness relies on the served base being append-only;
:class:`ServedRelation` exposes no reorder operation for exactly that
reason.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Any, List, Optional, Tuple

from repro.relation.relation import TemporalRelation
from repro.relation.tuples import TemporalTuple

__all__ = ["SnapshotView", "ServedRelation", "PIN_MEMO_LIMIT"]

#: Snapshot views memoized per served relation (LRU by version).  Small:
#: under steady appends only the newest couple of versions are pinned.
PIN_MEMO_LIMIT = 8


class SnapshotView(TemporalRelation):
    """A relation holding the first ``row_count`` rows of ``base``,
    with the base's identity as of one pinned version.

    Views are shared across worker threads.  Their rows never change
    after construction, so reads are lock-free (two racing first reads
    of the fingerprint at worst fold the same rows twice); only the
    scan counter takes a lock.
    """

    def __init__(
        self,
        base: TemporalRelation,
        version: int,
        row_count: int,
        fingerprint_state: Tuple[int, int],
    ) -> None:
        super().__init__(
            base.schema, islice(base, row_count), name=f"{base.name}@v{version}"
        )
        #: The *base* relation's uid: snapshots of one relation share
        #: cache entries, which is the whole point of pinning.
        self.uid = base.uid
        self.version = version
        #: A ``(rows_folded, fingerprint)`` chain over a prefix of the
        #: pinned rows; the first :attr:`fingerprint` read folds the rest.
        self._fingerprint_state = fingerprint_state
        self._reorder_version = base.append_watermark
        self._stats_lock = threading.Lock()
        self.scan_count = 0  # ta: guarded-by(self._stats_lock)

    def _count_scan(self) -> None:
        # Views are shared across worker threads; an unlocked += here
        # loses updates between concurrent statements.
        with self._stats_lock:
            self.scan_count += 1

    def __repr__(self) -> str:
        return f"SnapshotView({self.name!r} uid={self.uid}, {len(self)} rows)"


class ServedRelation:
    """One relation behind the server: locked appends, memoized pins."""

    def __init__(self, base: TemporalRelation, name: Optional[str] = None) -> None:
        self.base = base
        self.name = name or base.name
        self._lock = threading.Lock()
        self._pins: "OrderedDict[int, SnapshotView]" = OrderedDict()

    def pin(self) -> SnapshotView:
        """A snapshot view of the relation as of right now.

        The version, the rows and the fingerprint fold state are read
        under the append lock, so a pin can never observe a
        half-applied batch.  Views are memoized per version: concurrent
        statements at the same version share one view (and its
        statistics and column snapshots).
        """
        with self._lock:
            base = self.base
            version = base.version
            view = self._pins.get(version)
            if view is None:
                # Every memoized view's fold state chains a prefix of the
                # base's rows (appends only grow them), so the new view
                # starts from the furthest one: its first fingerprint
                # read folds only rows that no earlier pin has folded.
                state = max(
                    [base._fingerprint_state]
                    + [pinned._fingerprint_state for pinned in self._pins.values()]
                )
                view = SnapshotView(base, version, len(base), state)
                self._pins[version] = view
                while len(self._pins) > PIN_MEMO_LIMIT:
                    self._pins.popitem(last=False)
            else:
                self._pins.move_to_end(version)
            return view

    def stats(self) -> Tuple[int, int]:
        """``(version, row_count)`` read atomically under the append
        lock.

        The stats frame used to read ``base.version`` and
        ``len(base)`` separately without the lock — a concurrent
        append between the two reads produced a torn pair (version v
        with v+1's row count).
        """
        with self._lock:
            return self.base.version, len(self.base)

    def append_batch(self, rows: Any) -> Tuple[int, int]:
        """Append one batch of ``(values, start, end)`` rows atomically.

        Returns ``(version, row_count)`` after the append — the batch's
        identity in the version order every reader pins against.
        Validation failures reject the whole batch (the relation is
        untouched and the version does not move).
        """
        with self._lock:
            appended = self.base.append_batch(rows)
            if appended == 0:
                raise ValueError("append batch must contain at least one row")
            return self.base.version, len(self.base)

    def adopt_version(self, version: int) -> None:
        """Fast-forward the version counter without rows.

        Replica bootstrap edge case: the rows already match the
        primary but the locally-counted version lags the shipped one
        (e.g. after a restart whose ledger window was shorter than the
        batch history).  Only ever moves forward.
        """
        with self._lock:
            base = self.base
            if version > base.version:
                base.version = version

    def validate_batch(self, rows: Any) -> List[TemporalTuple]:
        """Validate ``(values, start, end)`` rows without appending.

        The replication primary validates *before* journaling — a
        malformed row must reject the whole batch before any byte of
        it becomes durable or ships.  Uses the relation's own row
        validation so accept/reject semantics match a plain append.
        """
        return [
            self.base._validated_row(values, start, end)
            for values, start, end in rows
        ]

    def append_replicated(self, rows: Any, version: int) -> Tuple[int, int]:
        """Apply one primary-shipped batch, adopting the primary's
        version number.

        A replica must hand out the *primary's* version order —
        read tokens and pinned snapshots compare versions across
        nodes, so a locally-counted version would break
        read-your-writes after failover.  ``append_batch`` bumps the
        local counter by one; the explicit assignment then aligns it
        with the shipped version (monotonicity enforced: replication
        never moves a version backwards).
        """
        with self._lock:
            base = self.base
            if version <= base.version:
                raise ValueError(
                    f"replicated version {version} must exceed the applied "
                    f"version {base.version}"
                )
            appended = base.append_batch(rows)
            if appended == 0:
                raise ValueError("append batch must contain at least one row")
            base.version = version
            return base.version, len(base)

    def __repr__(self) -> str:
        return f"ServedRelation({self.name!r}, v{self.base.version})"
