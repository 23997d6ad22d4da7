"""bench-e2e: host time to reproduce the paper's experiments, end to end and per layer.

See ``benchmarks/e2e/README.md``; run ``python -m benchmarks.e2e`` from the
repository root.
"""
