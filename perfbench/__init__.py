"""Benchmark harness for ecgmon: workloads, tracing and result comparison."""
