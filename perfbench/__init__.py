"""Benchmark harness for minidet3d; see run.py."""
