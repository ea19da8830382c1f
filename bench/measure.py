"""Small statistics, timing and process helpers shared by the workloads.

``percentile`` and ``ZipfSampler`` repeat ``benchmarks/load_soak.py``'s
``percentile`` and ``zipf_sequence`` on purpose: ``benchmarks/`` is due
for removal, and the benchmark must not depend on it.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import os
import random
import resource
import signal
import time


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample such that at least
    ``fraction`` of the samples are <= it (``ordered[ceil(f*n) - 1]``).

    Always returns a value that was observed.  With fewer than
    ``1 / (1 - fraction)`` samples this is the maximum.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(rank, 1) - 1]


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class ZipfSampler:
    """Seeded draws of ranks ``0..population-1`` with P(rank k) ∝ 1/(k+1)^s,
    by inverse CDF; the same seed gives the same sequence."""

    def __init__(self, population: int, s: float, seed):
        if population < 1:
            raise ValueError("population must be positive")
        weights = [1.0 / (rank ** s) for rank in range(1, population + 1)]
        total = sum(weights)
        running, self._cdf = 0.0, []
        for weight in weights:
            running += weight / total
            self._cdf.append(running)
        self._cdf[-1] = 1.0
        self._rng = random.Random(seed)

    def draw(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random())


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live pool workers, in
    MB.  Other children (the import timings of ``run.py``) do not count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    live = [
        _vm_hwm_kb(child.pid) for child in multiprocessing.active_children()
    ]
    return (own + sum(kb for kb in live if kb)) / 1024.0


def cpus() -> int:
    return os.cpu_count() or 1


# -- calibrated time ------------------------------------------------------------
#
# On a shared host the CPU's speed is not the program's to keep.  A fixed
# pure-Python loop, timed back to back for a minute on a 2-vCPU Intel Xeon
# VM, spread by 30-45% (interquartile range over median); its CPU time
# followed its wall time exactly, steal time stayed near zero, the two
# vCPUs slowed independently of each other, and consecutive 12 ms samples
# differed by only 6%.  Hardware shared with other machines slows the
# core for a few hundred milliseconds at a time.  So every timing the
# benchmark reports is *calibrated*: a reference kernel, run every
# SAMPLE_PERIOD_S from a timer signal, measures how fast the core is
# right now, and each interval is counted at REFERENCE_S's speed.  On
# suite-fig2 this took the spread of pass times from 16-30% to 2.4-3.4%
# (bench/README.md, "Calibrated time").

#: The reference kernel's CPU time on an unloaded core of the VM above
#: (Python 3.11).  A calibrated second is the time the work would take at
#: that speed; the constant only sets the scale.
REFERENCE_S = 0.22e-3
SAMPLE_PERIOD_S = 0.02

_SLOTS = [0] * 256


def reference_kernel() -> int:
    """Fixed interpreter work of ~0.2 ms.  It allocates no object the
    garbage collector tracks, so it cannot start a collection of the
    program's heap."""
    total = 0
    slots = _SLOTS
    for i in range(2500):
        total += i * i % 7
        slots[i & 255] = total
    return total


class SpeedSampler:
    """Samples the core's speed from a ``SIGALRM`` handler while active.

    Each sample pauses the main thread (and, holding the GIL, every other
    Python thread) for one run of :func:`reference_kernel`, timed in
    thread CPU time so that waiting for a CPU does not count.  With more
    than one CPU in ``cpus``, consecutive samples move the main thread to
    each CPU in turn, so they cover the cores a process pool runs on.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._pause_start: list[float] = []
        self._pause_end: list[float] = []
        self._factor: list[float] = []
        self._previous = None

    def run_on(self, cpus) -> None:
        """Let the calling thread, and the threads and processes it starts
        from now on, run on ``cpus``; sample those."""
        self.cpus = sorted(cpus)
        os.sched_setaffinity(0, self.cpus)

    def _sample(self, signum, frame) -> None:
        moved = len(self.cpus) > 1
        if moved:
            cpu = self.cpus[len(self._factor) % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})
        start, cpu_start = time.perf_counter(), time.thread_time()
        reference_kernel()
        cpu_s, end = time.thread_time() - cpu_start, time.perf_counter()
        if moved:
            os.sched_setaffinity(0, self.cpus)
        if cpu_s > 0:
            self._pause_start.append(start)
            self._pause_end.append(end)
            self._factor.append(REFERENCE_S / cpu_s)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speeds(self) -> list[float]:
        """Each sample's core speed as a multiple of the reference speed."""
        return list(self._factor)

    def timeline(self) -> "Timeline":
        """Calibrated time from the samples taken so far."""
        n = len(self._factor)
        return Timeline(
            self._pause_start[:n], self._pause_end[:n], self._factor[:n]
        )


class Timeline:
    """Calibrated time between any two ``time.perf_counter()`` readings.

    Between two samples the core runs at the mean of their speeds; the
    samples' own pauses count as no time; before the first sample and after
    the last, the nearest sample's speed holds.  With no sample at all,
    time is wall time.
    """

    def __init__(self, pause_start, pause_end, factor):
        self._first = pause_start[0] if pause_start else 0.0
        self._starts = pause_end
        self._ends = pause_start[1:] + [math.inf]
        self._speeds = [(a + b) / 2 for a, b in zip(factor, factor[1:])]
        self._speeds += factor[-1:]
        self._head = factor[0] if factor else 1.0
        self._cumulative = [0.0]
        for start, end, speed in zip(self._starts, self._ends, self._speeds[:-1]):
            self._cumulative.append(self._cumulative[-1] + (end - start) * speed)

    def _at(self, t: float) -> float:
        if not self._starts:
            return t
        segment = bisect.bisect_right(self._starts, t) - 1
        if segment < 0:
            return (min(t, self._first) - self._first) * self._head
        start = self._starts[segment]
        run = min(t, self._ends[segment]) - start
        return self._cumulative[segment] + run * self._speeds[segment]

    def seconds(self, start: float, end: float) -> float:
        return self._at(end) - self._at(start)
