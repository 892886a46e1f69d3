"""Benchmark harness for the network observer's serving and retrain paths.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for
the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""
