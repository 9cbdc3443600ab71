"""The repository's performance benchmark (see ``bench/README.md``).

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh subprocess, checks its outputs and prints
every end-to-end (or, traced, per-layer) metric with its unit.
"""
