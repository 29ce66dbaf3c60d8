"""End-to-end and per-layer benchmark of the SOE reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md``.
"""
