"""Timings in reference seconds, steady on a host whose CPU speed swings.

On small shared hosts a vCPU switches, often within a second, between
full speed and roughly half speed (its hyperthread sibling runs another
tenant).  The same `repro merge` then takes anywhere between 1x and 1.8x
its best wall and CPU time, and runs minutes apart disagree by more than
any useful regression bound.

:class:`HostClock` pins the benchmark process, and so every process it
starts, to one CPU, and runs a sampler thread that times a fixed burst of
pure-Python work (thread CPU time, so preemption does not count) every
SAMPLE_INTERVAL_S.  Each sample gives the CPU's current speed relative to
REFERENCE_BURST_S.  An interval of wall (or CPU) time converts to
*reference seconds* by weighting it with the mean speed the samples saw
during it: the time the same work would take at reference speed.  The
sampler costs the measured work a few percent, the same on every run.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from statistics import mean
from typing import List

#: CPU seconds one burst takes at reference speed (a full-speed vCPU of a
#: 2.1 GHz Xeon host).
REFERENCE_BURST_S = 0.002
SAMPLE_INTERVAL_S = 0.1


def _burst() -> int:
    table = {}
    for i in range(6000):
        table.setdefault(f"k{i % 97}", []).append(i * 31 % 1009)
    total = 0
    for values in table.values():
        values.sort()
        total += sum(values[::7])
    return total


class HostClock:
    """Pins the process to one CPU and samples that CPU's speed; use as a
    context manager around everything the run times."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._speeds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_forever, daemon=True)

    def __enter__(self) -> "HostClock":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        start, cpu0 = time.perf_counter(), time.thread_time()
        _burst()
        cpu = time.thread_time() - cpu0
        # Speeds first: a reader that sees a time also sees its speed.
        self._speeds.append(REFERENCE_BURST_S / max(cpu, 1e-9))
        self._times.append((start + time.perf_counter()) / 2)

    def _sample_forever(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed over ``[start, end]`` (``perf_counter``
        times); the latest earlier sample when none falls inside."""
        times = self._times[:]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi > lo:
            return mean(self._speeds[lo:hi])
        return self._speeds[max(hi - 1, 0)]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return (end - start) * self.speed(start, end)
