"""The benchmark workloads, one module each."""
