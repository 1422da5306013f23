"""Calibration loops: how fast this machine runs right now.

On a shared virtual machine the speed of the same code drifts by 10-20%
over tens of seconds, longer than one benchmark run, so medians of raw
times differ from run to run by that much.  The benchmark therefore times
a fixed calibration loop next to the work it measures and reports each wall
time scaled by the loop's reference wall time over its measured wall time,
and each CPU time likewise by CPU times: the time the work would take while
the loop takes REF_S[kind], its typical time on a 2-vCPU Xeon sandbox.
Raw times stay in the full report.

The loops are the benchmark's own code, so no change to sidephase can move
them.  Each mirrors one kind of work, because a loop only tracks the
slowdown of work that uses the machine the same way:

- interpreter: bytecode dispatch plus per-object numpy calls (seeding a
  generator, a short draw), like the scalar analytic path and per-member
  Monte Carlo overhead;
- numeric: long normal draws, an AR(1) filter and a cumsum on two
  threads, like the motional-narrowing Monte Carlo.

One sample takes about 0.1-0.2 s, so that its own noise is small next to
the speed it measures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

INTERPRETER_PASSES = 8
NUMERIC_TASKS = 512

# (wall, cpu) seconds of one sample, the reference the timings are scaled to.
REF_S = {"interpreter": (0.12, 0.12), "numeric": (0.19, 0.35)}


def interpreter() -> tuple[float, float]:
    """Wall and CPU seconds of one sample."""
    start, cpu = time.perf_counter(), time.process_time()
    for _ in range(INTERPRETER_PASSES):
        total = 0
        for i in range(100_000):
            total += i * i
        for i in range(200):
            np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i,))).standard_normal(64)
    return time.perf_counter() - start, time.process_time() - cpu


def _numeric_task(index: int) -> None:
    from scipy.signal import lfilter

    draws = np.random.default_rng(index).standard_normal(20_001)
    np.cumsum(lfilter([1.0], [1.0, -0.9], draws))


def numeric() -> tuple[float, float]:
    """Wall and CPU seconds of one sample.  CPU time counts both threads and
    not their waiting, so it scales cpu_s."""
    start, cpu = time.perf_counter(), time.process_time()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_numeric_task, range(NUMERIC_TASKS)))
    return time.perf_counter() - start, time.process_time() - cpu


LOOPS = {"interpreter": interpreter, "numeric": numeric}
