"""Time a fixed CPU task on request, to measure how fast the host runs now.

    python3 perfbench/calibrate.py

Prints the environment (Python, numpy, BLAS and its thread setting, nproc,
CPU) as one JSON line, then, for every line read from standard input, the
CPU seconds the task took.  It exits when standard input closes.  run.py
scales each invocation's times by CALIBRATION_REF_S over the task's times
around it.
"""

import json
import os
import platform
import sys
import time

import numpy

from run import THREAD_VARS

RNG = numpy.random.default_rng(0)
VECTOR = RNG.standard_normal(1_000_000)
MATRIX = RNG.standard_normal((250, 250))


def task() -> float:
    """Interpreted loops and small numpy kernels, the mix the workloads run
    (the pure-Python eigensolve and recursions, numpy kernel matrices), so a
    slow spell of the host slows it about as much as an invocation.

    CPU time, not wall time: it measures how fast the CPU runs the task's
    instructions, and misses the brief stalls of this process, which say
    nothing about the invocations before and after it."""
    start = time.process_time()
    acc, table, values = 0.0, {}, []
    for i in range(400_000):
        acc += (i % 97) * 0.5 / (1.0 + (i & 15))
        if i % 5 == 0:
            values.append(acc)
            table[i & 1023] = acc
    values.sort()
    for _ in range(4):
        numpy.cos(VECTOR) * VECTOR + VECTOR
        MATRIX @ MATRIX
        numpy.linalg.eigh(MATRIX + MATRIX.T)
    return time.process_time() - start


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    task()  # first call pays for page faults and lazy BLAS set-up
    print(json.dumps(environment()), flush=True)
    for _ in sys.stdin:
        print(repr(task()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
