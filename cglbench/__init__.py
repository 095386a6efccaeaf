"""Benchmark of the cgl proof kernel; run it with cglbench/run.py."""
