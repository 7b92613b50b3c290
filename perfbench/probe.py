"""A CPU-speed probe, so that host times can be normalised to one speed.

On a shared host the speed of a virtual CPU changes from one moment to
the next with what other tenants run on the same physical core.  On the
2-CPU x86_64 machine the benchmark was built on, a fixed loop ran at
one of two speeds about a factor of two apart, switching every 0.1–1 s,
with minutes-long phases at either speed.  :class:`SpeedLog` samples a
fixed probe on a thread while the program runs; a host interval is
divided by the mean slowdown sampled inside it, which gives the time the
same work would have taken with the probe at :data:`REFERENCE_S`.
Changes to the program change the interval and not the probe: the probe
runs none of the program's code.

The probe mixes the two kinds of work the program does: an
interpreter-bound loop and NumPy array kernels.  It is timed in thread
CPU time, so time slices lost to other threads and processes (the
program itself) do not count as slowness; a physical core shared with
another tenant does.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

import numpy as np

#: The reference speed: the probe's thread CPU time at which normalised
#: times equal host times.  On the machine the benchmark was built on,
#: the probe took about 1.7 ms on an idle core and 3.3 ms on a shared one.
REFERENCE_S = 0.002
#: Shortest stretch of samples one interval is normalised by.
MIN_WINDOW_S = 1.0
ITERATIONS = 3000
ARRAY_LENGTH = 20_000


@functools.cache
def _array() -> np.ndarray:
    return np.random.default_rng(0).integers(0, 1 << 20, ARRAY_LENGTH)


def _work() -> int:
    # An interpreter-bound 2-way LRU over a pseudo-random line stream:
    # the same kind of work as the simulator's budgeted cache loop.
    sets: list[list[int]] = [[] for _ in range(256)]
    state = 12345
    hits = 0
    for _ in range(ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = state >> 20
        ways = sets[line & 255]
        if line in ways:
            ways.remove(line)
            hits += 1
        elif len(ways) >= 2:
            ways.pop(0)
        ways.append(line)
    # Array kernels like the trace analyses'.
    data = _array()
    values, counts = np.unique(data, return_counts=True)
    return hits + int(np.cumsum(np.sort(data))[-1]) + len(values) + int(counts.max())


def slowdown() -> float:
    """How many times slower than the reference this CPU runs now."""
    started = time.thread_time()
    _work()
    return (time.thread_time() - started) / REFERENCE_S


class SpeedLog:
    """Samples :func:`slowdown` on a background thread every ``period`` s.

    The thread visits the CPUs this process may use in turn, pinning
    itself to one per sample, so the samples average over the CPUs the
    measured program runs on.  Each sample costs about 2 ms of CPU, so
    the default period takes about 4% of one CPU from the program.
    Samples are stamped with ``time.monotonic()``, which every process
    shares, so intervals measured in another process can be normalised
    here.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedLog":
        _work()  # first-call costs (the array, NumPy's lazy set-up)
        self.samples.append((time.monotonic(), slowdown()))
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        visit = itertools.cycle(self.cpus)
        while not self._stop.wait(self.period):
            # On Linux, pid 0 pins the calling thread only.
            os.sched_setaffinity(0, {next(visit)})
            factor = slowdown()
            self.samples.append((time.monotonic(), factor))

    def normalise(self, start: float, end: float) -> float:
        """``end - start`` divided by the mean slowdown sampled meanwhile.

        The samples are taken from a window of at least
        :data:`MIN_WINDOW_S` centred on the interval, so that a short
        interval (a set-up, one request) is not scaled by one noisy
        sample.
        """
        middle = (start + end) / 2
        half = max(end - start, MIN_WINDOW_S) / 2
        samples = list(self.samples)
        inside = [f for at, f in samples if middle - half <= at <= middle + half]
        if not inside:
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return (end - start) / (sum(inside) / len(inside))

    def median(self) -> float:
        factors = sorted(factor for _, factor in self.samples)
        return factors[len(factors) // 2] if factors else 1.0
