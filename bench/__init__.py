"""Benchmark harness of the repo (see ``bench/README.md``)."""
