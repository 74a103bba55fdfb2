"""End-to-end benchmark for the ``trout`` pipeline, what-if queries and serving.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and the metric map.
"""
