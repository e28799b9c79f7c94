#!/usr/bin/env python3
"""Benchmark entry point: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``bench/README.md``).

Pins BLAS to one thread before NumPy loads (the runtime's own stage
workers are the only extra threads) and the process to one CPU, puts
``src/`` on the path, and hands over to :mod:`bench.main`.

Why one CPU: the runtime hands every activation from thread to thread,
and on a 2-vCPU VM the cost of that hand-off depends on whether the OS
happened to place the threads on one vCPU or two - unpinned,
``serve_decode_fp16`` read 2400-4200 tok/s from run to run, pinned
4100-4400.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
try:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
except (AttributeError, OSError):  # not Linux, or not permitted: run unpinned
    pass

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    sys.exit("bench/run.py: no src/repro beside bench/ - nothing to benchmark")
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

if __name__ == "__main__":
    from bench.main import main

    sys.exit(main(sys.argv[1:], T_START))
