"""End-to-end, layer-attributed benchmark of the WATTER reproduction.

Run it from the repository root with ``python3 benchmarks/e2e/run.py``
(what ``BENCHMARK.json`` names) or ``python -m benchmarks.e2e``; see
``README.md`` in this directory for the metric and workload glossary.
"""
