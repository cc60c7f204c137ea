"""Serving-stack benchmark: three seeded workloads, end-to-end metrics, per-layer trace.

See ``perfbench/README.md``; run it with ``python3 perfbench/run.py``.
"""
