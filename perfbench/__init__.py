"""Repository benchmark: workloads, tracing and metrics (see README.md)."""
