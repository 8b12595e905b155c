"""The committed benchmark for the two-level engine (see bench/README.md).

``python3 -m bench drive --workload W --seed N --seconds S --trace 0|1`` is
the contract entry point named in ``BENCHMARK.json``; ``python3 -m bench run``
runs all six workloads and ``python3 -m bench compare A.json B.json`` judges
two result files.  Nothing in ``src/`` imports this package.
"""
