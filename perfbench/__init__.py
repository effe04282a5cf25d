"""Benchmark for hzeta: seeded, oracle-checked workloads and an outside-in
layer trace.  Run ``python3 perfbench/run.py --help`` from the repository
root; see ``perfbench/README.md`` for the workloads and metrics."""
