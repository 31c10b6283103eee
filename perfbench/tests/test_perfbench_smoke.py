"""Smoke tests for the served-statement benchmark (``perfbench/run.py``).

Each run goes through the real command in a subprocess, at a tiny
relation size and a one-second window, so the benchmark's process-wide
state (the default result cache, the tracing patches) never touches
the test process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
RUN = PERFBENCH / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--tuples", "512"]


def _run(args, code=None, cwd=ROOT):
    command = [sys.executable, str(RUN), *args]
    if code is not None:
        command = [sys.executable, "-c", code, *args]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _assert_catalog(metrics, catalog):
    assert list(metrics) == [metric["name"] for metric in catalog]
    for metric in catalog:
        assert metrics[metric["name"]]["unit"] == metric["unit"]


def test_benchmark_json_matches_the_metric_catalog():
    sys.path[:0] = [str(PERFBENCH)]
    try:
        from servebench import report
    finally:
        sys.path.remove(str(PERFBENCH))
    for key, catalog in (
        ("end_to_end", report.END_TO_END),
        ("per_layer", report.PER_LAYER),
    ):
        declared = [
            (m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]
        ]
        assert declared == list(catalog)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_emits_every_end_to_end_metric(workload):
    completed = _run(["--workload", workload, "--trace", "0", *TINY])
    result = _result(completed)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_catalog(result["metrics"], BENCHMARK["end_to_end"])
    assert "failed_ratio" in completed.stdout
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_run(["--workload", workload, "--trace", "1", *TINY]))
    assert result["correct"] is True
    _assert_catalog(result["metrics"], BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["tsql2.execute_ms"] > 0
    if workload == "append_mix":
        assert metrics["storage.commit_ms"] > 0
        assert metrics["storage.syncs_per_append"] >= 1
    if workload == "filtered_read":
        assert metrics["cache.hit_ratio"] == 0
        assert metrics["serve.coalesced_ratio"] == 0


CORRUPT_ONE_REPLY = """
import dataclasses, runpy, sys, threading
sys.path[:0] = [{src!r}]
from repro.serve.client import QueryClient
original = QueryClient.query
corrupted = []

def query(self, text, **kwargs):
    reply = original(self, text, **kwargs)
    reader = threading.current_thread().name.startswith("perfbench-Reader")
    if reader and reply.rows and not corrupted:
        corrupted.append(text)
        start, end, value = reply.rows[0]
        rows = [(start, end, (value or 0) + 1), *reply.rows[1:]]
        reply = dataclasses.replace(reply, rows=rows)
    return reply

QueryClient.query = query
sys.argv = [{run!r}, *sys.argv[1:]]
runpy.run_path({run!r}, run_name="__main__")
"""


def test_a_corrupted_answer_counts_as_failed():
    code = CORRUPT_ONE_REPLY.format(src=str(ROOT / "src"), run=str(RUN))
    completed = _run(["--workload", "warm_read", "--trace", "0", *TINY], code)
    result = _result(completed)
    assert result["correct"] is False
    assert result["failed"] == 1
    ratio = next(
        float(line.split()[1])
        for line in completed.stdout.splitlines()
        if line.strip().startswith("failed_ratio")
    )
    assert ratio == pytest.approx(1 / result["attempted"], rel=1e-3)


def test_without_program_sources_it_exits_nonzero_and_prints_no_result(
    tmp_path,
):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
