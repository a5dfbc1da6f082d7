"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload goldens --seed 2024 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics, and the map
from each per-layer metric to the end-to-end metric it should move.
"""
