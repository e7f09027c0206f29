"""Benchmark harness for the invkl command line tools (see bench/README.md)."""
