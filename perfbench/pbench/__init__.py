"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one entry point; see ``perfbench/README.md``.
"""
