"""Single-cell measurement: run one algorithm over one workload.

A :class:`Measurement` bundles the three quantities the paper reports
or that we substitute for them:

* ``seconds`` — wall-clock evaluation time (the paper's CPU seconds;
  machine-dependent),
* ``work`` — abstract operations performed
  (:attr:`OperationCounters.total_work`; machine-independent, used for
  the shape checks in EXPERIMENTS.md),
* ``peak_bytes`` — peak structure memory under the Section 6.2 node
  model (Figure 9's y-axis).

Measurements over multiple seeds are averaged with
:func:`mean_measurement`, mirroring the paper's repeated runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.base import Triple
from repro.core.engine import make_evaluator
from repro.metrics.counters import OperationCounters
from repro.metrics.space import SpaceTracker

__all__ = ["Measurement", "measure_strategy", "mean_measurement"]


@dataclass(frozen=True)
class Measurement:
    """Result of one evaluation run."""

    strategy: str
    tuples: int
    seconds: float
    work: int
    peak_nodes: int
    peak_bytes: int
    result_rows: int


def measure_strategy(
    strategy: str,
    triples: Sequence[Triple],
    aggregate: str = "count",
    k: Optional[int] = None,
    shards: Optional[int] = None,
    *,
    relation: Any = None,
) -> Measurement:
    """Time one in-memory evaluation with counters and space tracking.

    With ``relation`` (holding the same tuples), the timed call is
    ``evaluate_relation`` over its identified column snapshot — which
    the resident pool can publish — instead of ``evaluate`` over the
    anonymous ``triples``.
    """
    counters = OperationCounters()
    evaluator = make_evaluator(
        strategy, aggregate, k=k, shards=shards, counters=counters
    )
    started = time.perf_counter()
    if relation is None:
        result = evaluator.evaluate(list(triples))
    else:
        result = evaluator.evaluate_relation(relation)
    elapsed = time.perf_counter() - started
    space: SpaceTracker = evaluator.space
    return Measurement(
        strategy=strategy,
        tuples=len(triples),
        seconds=elapsed,
        work=counters.total_work,
        peak_nodes=space.peak_nodes,
        peak_bytes=space.peak_bytes,
        result_rows=len(result),
    )


def mean_measurement(samples: List[Measurement]) -> Measurement:
    """Average a list of same-shaped measurements (multi-seed runs)."""
    if not samples:
        raise ValueError("cannot average zero measurements")
    count = len(samples)
    first = samples[0]
    return Measurement(
        strategy=first.strategy,
        tuples=first.tuples,
        seconds=sum(s.seconds for s in samples) / count,
        work=round(sum(s.work for s in samples) / count),
        peak_nodes=round(sum(s.peak_nodes for s in samples) / count),
        peak_bytes=round(sum(s.peak_bytes for s in samples) / count),
        result_rows=round(sum(s.result_rows for s in samples) / count),
    )
