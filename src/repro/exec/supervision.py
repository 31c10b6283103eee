"""Shard supervision primitives: the retry policy and the run report.

The resident worker pool (:mod:`repro.exec.pool`) fans one job per
time shard out to its workers.  A killed worker (OOM killer, segfault),
a hung shard, or an unpicklable result must not abort the query, so
its :class:`~repro.exec.pool.ResidentPoolSupervisor` turns each into
bounded, observable recovery driven by the two types here:

* :class:`RetryPolicy` — every shard gets up to ``max_attempts`` pool
  attempts, separated by exponential backoff with **deterministic**
  jitter (seeded from the shard index and attempt number — reproducible
  runs, but concurrent retries still decorrelate); a shard that
  exhausts its attempts falls back to an exact in-process evaluation;
* :class:`SupervisionReport` — what one supervised fan-out actually
  did: pooled and in-process shards, retries, timeouts, and worker
  respawns.

The result is the invariant the engine advertises: ``parallel_sweep``
returns byte-identical answers whether zero, some, or all of its
workers die — only slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.exec.errors import ShardFailure

__all__ = ["RetryPolicy", "SupervisionReport"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic jittered exponential backoff."""

    max_attempts: int = 3
    base_delay: float = 0.02
    max_delay: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def backoff(self, shard: int, attempt: int) -> float:
        """Delay before retrying ``shard`` after failed ``attempt``.

        Exponential in the attempt, jittered by a hash of (shard,
        attempt) — no clock, no RNG state, so identical runs sleep
        identical amounts while distinct shards still spread out.
        """
        delay = self.base_delay * (2 ** (attempt - 1))
        seed = (shard * 2654435761 + attempt * 40503) & 0xFFFFFFFF
        frac = ((seed * 69069 + 1) & 0xFFFFFFFF) / 2**32
        return min(delay * (1.0 + self.jitter * frac), self.max_delay)


@dataclass
class SupervisionReport:
    """What one supervised fan-out actually did (for logs and tests)."""

    total_shards: int = 0
    pooled_shards: int = 0  # shards whose accepted result came from the pool
    inprocess_shards: int = 0  # shards recovered by the in-process fallback
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0  # resident workers replaced after a crash or hang
    failures: List[ShardFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Did any shard need recovery (retry, respawn, or fallback)?"""
        return bool(self.retries or self.inprocess_shards or self.respawns)
