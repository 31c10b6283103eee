"""Served-statement benchmark: one command, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 25 --trace 0

Workloads: ``warm_read``, ``filtered_read``, ``append_mix`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with no tracing installed (reads and set-up on the process
CPU clock) and prints the wall-clock figures beside them; ``--trace 1``
makes a separate traced run whose spans give the per-layer metrics and
the tracing overhead, and writes the spans to ``.perfbench/`` in the
checkout.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The program under test is imported from ``src/`` of the checkout that
holds this file; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("warm_read", "filtered_read", "append_mix"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tuples",
        type=int,
        default=None,
        help="override the workload's relation size (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}/repro; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from servebench import report
    from servebench.tracing import Tracer
    from servebench.workloads import (
        WORKLOADS,
        end_to_end,
        per_layer,
        wall_clock,
    )

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, str(workdir), args.tuples
    )
    tracer = Tracer() if args.trace else None
    outcome = workload.run(tracer)

    wall = {}
    if tracer is None:
        measured = end_to_end(outcome)
        catalog = report.END_TO_END
        wall = wall_clock(outcome)
    else:
        measured = per_layer(outcome, tracer)
        catalog = report.PER_LAYER
        spans = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans))
        print(f"spans: {len(tracer.spans)} written to {spans}")

    attempted = len(outcome.reads) + len(outcome.appends)
    errors = sum(
        1 for sample in (*outcome.reads, *outcome.appends)
        if sample.error is not None
    )
    failed = errors + outcome.wrong
    metrics = {name: measured[name] for name, _, _ in catalog}
    units = report.units(catalog)
    report.print_summary(
        args, workload, outcome, metrics, units, failed, wall
    )
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
