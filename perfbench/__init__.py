"""Benchmark of hkcert: workloads, output checks and per-layer tracing.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
