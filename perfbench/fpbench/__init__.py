"""Benchmark harness for the fatpoints command line (see perfbench/README.md)."""
