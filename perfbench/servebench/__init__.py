"""Served-statement benchmark for the temporal-aggregate query server.

The command-line entry point is ``perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
