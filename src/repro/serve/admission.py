"""Admission control and the overload degradation ladder.

The server never takes on unbounded work.  Three bounds, enforced
here, keep it answerable under any client behavior:

1. **Sessions** — at most ``max_sessions`` concurrent connections; the
   next is refused at the door with a typed
   :class:`~repro.exec.errors.ServerOverloaded` (``reason="sessions"``).
2. **Per-session queue** — at most ``max_queue_depth`` statements
   queued behind a session's in-flight one; excess statements are
   refused (``reason="queue"``) while the session itself survives.
3. **The ladder** — admitted load degrades *gracefully* before it is
   refused.  The controller tracks outstanding statements (queued +
   running) as a ratio of worker capacity and maps it to a level:

   ========  ==================  =========================================
   level     threshold           effect on newly admitted statements
   ========  ==================  =========================================
   0 NORMAL  below ``shed``      full service: shared result cache on
   1 SHED    ``shed_load``       shed the shared cache once; statements
                                 keep the same engine path and the
                                 cache refills within its byte budget
   2 DEGRADE ``degrade_load``    additionally force the low-memory
                                 ``paged_tree`` strategy
   3 REJECT  ``reject_load``     refuse (``reason="overload"``) with a
                                 ``retry_after_ms`` hint
   ========  ==================  =========================================

   The cache is shed exactly once per overload excursion (re-armed when
   load returns to NORMAL), so a load spike cannot thrash the cache
   with repeated shed storms.

Everything is guarded by one lock: admission decisions are taken on
the event-loop thread, completions are reported from worker threads.
"""

from __future__ import annotations

import threading
from enum import IntEnum
from typing import Callable, Dict, Optional

from repro.cache.store import shed_default_cache
from repro.exec.errors import ServerOverloaded
from repro.serve.config import ServerConfig

__all__ = ["DegradationLevel", "AdmissionController"]


class DegradationLevel(IntEnum):
    """Rungs of the overload ladder, in order of increasing distress."""

    NORMAL = 0
    SHED_CACHE = 1
    FORCE_PAGED = 2
    REJECT = 3


class AdmissionController:
    """Bounded admission with load-proportional degradation."""

    def __init__(
        self,
        config: ServerConfig,
        *,
        shed: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config
        #: The cache-shedding hook level 1 fires (injectable for tests).
        self._shed = shed if shed is not None else shed_default_cache
        self._lock = threading.Lock()
        self._sessions = 0  # ta: guarded-by(self._lock)
        self._outstanding = 0  # ta: guarded-by(self._lock)
        self._shed_armed = True  # ta: guarded-by(self._lock)
        # Tallies for the stats frame: bumped from both the event-loop
        # thread (admission) and worker threads (completion), so every
        # one of these read-modify-writes needs the lock.
        self.sessions_admitted = 0  # ta: guarded-by(self._lock)
        self.sessions_rejected = 0  # ta: guarded-by(self._lock)
        self.statements_admitted = 0  # ta: guarded-by(self._lock)
        self.statements_rejected_queue = 0  # ta: guarded-by(self._lock)
        self.statements_rejected_overload = 0  # ta: guarded-by(self._lock)
        self.cache_sheds = 0  # ta: guarded-by(self._lock)
        self.shed_bytes_released = 0  # ta: guarded-by(self._lock)
        self.degraded_statements = 0  # ta: guarded-by(self._lock)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def admit_session(self) -> int:
        """Claim a session slot, or raise ``ServerOverloaded``."""
        with self._lock:
            if self._sessions >= self.config.max_sessions:
                self.sessions_rejected += 1
                raise ServerOverloaded(
                    f"session limit of {self.config.max_sessions} reached",
                    retry_after_ms=self.config.retry_after_ms,
                    reason="sessions",
                )
            self._sessions += 1
            self.sessions_admitted += 1
            return self._sessions

    def release_session(self) -> None:
        with self._lock:
            self._sessions -= 1

    # ------------------------------------------------------------------
    # Statements and the ladder
    # ------------------------------------------------------------------

    def _load_locked(self) -> float:
        return self._outstanding / self.config.workers

    def _level_locked(self, load: float) -> DegradationLevel:
        if load >= self.config.reject_load:
            return DegradationLevel.REJECT
        if load >= self.config.degrade_load:
            return DegradationLevel.FORCE_PAGED
        if load >= self.config.shed_load:
            return DegradationLevel.SHED_CACHE
        return DegradationLevel.NORMAL

    def load(self) -> float:
        """Outstanding statements per worker, right now."""
        with self._lock:
            return self._load_locked()

    def level(self) -> DegradationLevel:
        """The ladder rung current load maps to (no side effects)."""
        with self._lock:
            return self._level_locked(self._load_locked())

    def admit_statement(self, queued_depth: int) -> DegradationLevel:
        """Admit one statement from a session with ``queued_depth``
        statements already waiting.

        Returns the degradation level the statement must run at, or
        raises :class:`ServerOverloaded` (``reason="queue"`` for a full
        per-session queue, ``reason="overload"`` at the top rung).
        Admission counts the statement as outstanding; the caller owns
        a matching :meth:`statement_done`, including for statements it
        later drops unrun.
        """
        shed_now = False
        try:
            with self._lock:
                if queued_depth >= self.config.max_queue_depth:
                    self.statements_rejected_queue += 1
                    raise ServerOverloaded(
                        f"session queue depth limit of "
                        f"{self.config.max_queue_depth} reached",
                        retry_after_ms=self.config.retry_after_ms,
                        reason="queue",
                    )
                # The level is judged as if this statement were already
                # queued: capacity is about what admitting it *creates*.
                level = self._level_locked(
                    (self._outstanding + 1) / self.config.workers
                )
                if level is DegradationLevel.REJECT:
                    self.statements_rejected_overload += 1
                    raise ServerOverloaded(
                        f"overloaded: {self._outstanding} statements "
                        f"outstanding against {self.config.workers} workers",
                        retry_after_ms=self.config.retry_after_ms,
                        reason="overload",
                    )
                self._outstanding += 1
                self.statements_admitted += 1
                if level >= DegradationLevel.SHED_CACHE and self._shed_armed:
                    self._shed_armed = False
                    shed_now = True
                    self.cache_sheds += 1
                if level >= DegradationLevel.FORCE_PAGED:
                    self.degraded_statements += 1
                return level
        finally:
            if shed_now:
                # Outside the lock: shedding walks the whole cache.
                released = self._shed()
                # The tally bump re-takes the lock: the unlocked
                # read-modify-write here raced concurrent shed
                # excursions and tore reads in snapshot() (found by
                # TA011 once the tallies were annotated).
                with self._lock:
                    self.shed_bytes_released += released

    def statement_done(self) -> None:
        """One admitted statement finished (or was dropped unrun)."""
        with self._lock:
            self._outstanding -= 1
            if self._level_locked(self._load_locked()) is DegradationLevel.NORMAL:
                self._shed_armed = True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The stats-frame view of admission state."""
        with self._lock:
            load = self._load_locked()
            return {
                "active_sessions": self._sessions,
                "max_sessions": self.config.max_sessions,
                "outstanding_statements": self._outstanding,
                "load": round(load, 4),
                "level": int(self._level_locked(load)),
                "sessions_admitted": self.sessions_admitted,
                "sessions_rejected": self.sessions_rejected,
                "statements_admitted": self.statements_admitted,
                "statements_rejected_queue": self.statements_rejected_queue,
                "statements_rejected_overload": self.statements_rejected_overload,
                "cache_sheds": self.cache_sheds,
                "shed_bytes_released": self.shed_bytes_released,
                "degraded_statements": self.degraded_statements,
            }
