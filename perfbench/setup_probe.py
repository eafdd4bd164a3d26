"""Print one set-up time sample of a workload, measured in a fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from harness import limit_blas_threads, timed_setup

if __name__ == "__main__":
    limit_blas_threads()
    seconds, _, _ = timed_setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
