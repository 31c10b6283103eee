"""Metric catalog and the human-readable run summary.

The catalog is the single list of metric names, units and directions;
``BENCHMARK.json`` at the repository root must name the same metrics
(the smoke tests check it).
"""

from __future__ import annotations

from typing import Any, Dict

from servebench.tracing import PLANNED_STRATEGIES

#: A p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
#: Reads, rates and set-up are read on the process CPU clock; appends
#: on the clock :func:`servebench.workloads.append_latency` names.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("read_p50_cpu_ms", "ms", "lower"),
    ("read_p90_cpu_ms", "ms", "lower"),
    ("reads_per_cpu_s", "1/s", "higher"),
    ("rows_per_cpu_s", "1/s", "higher"),
    ("append_p50_ms", "ms", "lower"),
    ("append_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit) of the wall-clock figures a ``--trace 0`` run prints
#: beside the end-to-end metrics, unbounded.
WALL_CLOCK = (
    ("setup_wall_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("read_qps", "1/s"),
    ("rows_per_s", "1/s"),
    ("append_p50_wall_ms", "ms"),
    ("append_p90_wall_ms", "ms"),
    ("cpu_share", "ratio"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = (
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.reply_bytes_per_row", "B", "lower"),
    ("serve.server_ms", "ms", "lower"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.degraded_ratio", "ratio", "lower"),
    ("serve.pin_ms", "ms", "lower"),
    ("tsql2.parse_ms", "ms", "lower"),
    ("tsql2.execute_ms", "ms", "lower"),
    ("tsql2.self_ms", "ms", "lower"),
    ("tsql2.rows_per_stmt", "count", "lower"),
    ("core.aggregate_ms", "ms", "lower"),
    ("core.evaluate_ms", "ms", "lower"),
    ("core.plan_ms", "ms", "lower"),
    *(
        (f"core.strategy.{name}", "count",
         "higher" if name == "cached_sweep" else "lower")
        for name in PLANNED_STRATEGIES
    ),
    ("cache.evaluate_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.dirty_shards_per_read", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.live_bytes", "B", "lower"),
    ("relation.statistics_ms", "ms", "lower"),
    ("relation.columns_ms", "ms", "lower"),
    ("relation.append_ms", "ms", "lower"),
    ("storage.heap_append_ms", "ms", "lower"),
    ("storage.commit_ms", "ms", "lower"),
    ("storage.journal_bytes_per_row", "B", "lower"),
    ("storage.syncs_per_append", "count", "lower"),
    ("load.writer_late_p90_ms", "ms", "lower"),
    ("trace.read_p50_overhead_pct", "%", "lower"),
)


def units(catalog: Any) -> Dict[str, str]:
    return {name: unit for name, unit, _ in catalog}


def print_summary(
    args: Any,
    workload: Any,
    outcome: Any,
    metrics: Dict[str, float],
    metric_units: Dict[str, str],
    failed: int,
    wall: Dict[str, float],
) -> None:
    """Every metric by name with its unit, plus the sample counts and,
    after an untraced run, the wall-clock figures."""
    reads = len(outcome.reads)
    appends = len(outcome.appends)
    attempted = reads + appends
    print(
        f"perfbench {args.workload}: seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"tuples={workload.tuples}"
    )
    print(
        f"  samples: {reads} reads, {appends} appends; "
        f"wrong answers {outcome.wrong}; "
        f"set-ups {', '.join(f'{s:.3f}' for s in outcome.setups)} s"
    )
    if min(reads, appends) < P90_MIN_SAMPLES:
        print(
            f"  note: fewer than {P90_MIN_SAMPLES} samples; "
            "a p90 has fewer than ten beyond it"
        )
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6f} ratio")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {metric_units[name]}")
    if wall:
        print("  wall clock (printed, not bounded):")
        for name, unit in WALL_CLOCK:
            print(f"  {name:<34} {wall[name]:>14.4f} {unit}")
