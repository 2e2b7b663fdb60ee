"""The repo's benchmark: five workloads, both clocks, per-layer traced run.

Run one workload with ``python3 benchmarks/ledger/__main__.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>`` (or ``python -m
benchmarks.ledger`` with the same arguments) from the repository root; see
``README.md`` in this directory for every metric and workload.
"""
