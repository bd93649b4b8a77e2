"""How long a run lasts, and the CPU-speed probe that puts times at reference speed.

On a shared virtual machine the speed of a vCPU drifts with the load of other
tenants, by a fifth or more over minutes on a 2-vCPU Xeon VM.  Every time the
benchmark gates on is therefore reported at reference speed: the measured time
divided by the slowdown of a fixed pure-Python loop, timed in the benchmark's
own process right before and right after the work.
"""
from __future__ import annotations

import statistics
import time

PROBE_SAMPLES = 10
REFERENCE_PROBE_S = 0.002  # the loop's median on an idle 2-vCPU Xeon VM


def _probe_loop() -> int:
    total, table = 0, {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return total


def probe(samples: int = PROBE_SAMPLES) -> list[float]:
    """Durations of that many runs of the probe loop."""
    durations = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _probe_loop()
        durations.append(time.perf_counter() - t0)
    return durations


def slowdown(samples: list[float]) -> float:
    """How many times slower than reference the CPU ran during the samples."""
    return statistics.median(samples) / REFERENCE_PROBE_S


def passes_within(seconds: float):
    """Yield pass numbers: always a first pass, then another while the median
    pass so far still ends within `seconds` of the start."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - t0)
