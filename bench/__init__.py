"""The repo's one performance benchmark (see bench/README.md).

``benchmarks/`` stays the paper-figure shape suite; every performance
claim cites a metric and a workload name printed by ``python -m bench``.
"""
