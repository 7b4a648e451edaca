"""Core-speed sampling, to express measured times at a fixed reference speed.

The benchmark's CPU is shared with other tenants, and the speed of each core
drifts by a factor of up to two over seconds to tens of seconds,
independently on each core. A fixed workload's wall time then spreads by
20-30% between runs, more than any run length the benchmark can afford
averages out. So the benchmark pins its main thread to one core, and a
sampler thread on that same core times a fixed loop every PERIOD_S
seconds. Over an interval, the mean of REFERENCE_S / loop time is
the core's mean speed relative to a quiet core. A measured time multiplied by
it is the time the same work takes at the reference speed.

The loop is timed in the sampler thread's own CPU time (``time.thread_time``),
not by wall clock. Wall-clock loop times would also count the time the core
spends on the measured program (its numpy calls that release the GIL, or a
child process on the same core), so the factor would depend on the workload.
Thread CPU time counts only the loop's own execution, and so measures how fast
the core runs, whatever else it runs meanwhile.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
# The loop below takes about REFERENCE_S on a quiet core of the 2-core x86-64
# box the benchmark was written on (CPython 3.11, numpy 2.4); it sets the unit
# of the normalised times.
REFERENCE_S = 9e-4


_GRID = np.linspace(0.0, 1.0, 4096)


def _loop() -> None:
    """Interpreter arithmetic, small-array numpy calls, and numpy arithmetic
    on arrays of grid size (4,096 nodes): the kinds of work the solver, the
    Holder scans and the cc search do. Their slowdowns differ by a few percent
    from one moment to the next, so the loop blends them rather than tracking
    one kind, and a change that moves work from one kind to another is not
    credited with the core's drift."""
    s = 0
    for i in range(2500):
        s += i * i % 7
    for i in range(50):
        a = np.array([[1.0, 0.0, 2.0 * i], [0.0, 1.0, -2.0]])
        bool(np.any(a < 0.5))
    for _ in range(30):
        float(np.sqrt(_GRID * _GRID + 1.0).sum())


@contextlib.contextmanager
def pinned():
    """Pin the calling thread, and the threads it starts meanwhile, to one core;
    yields the core's id and restores the previous affinity on exit."""
    previous = os.sched_getaffinity(0)
    cpu = min(previous)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, previous)


class SpeedProbe:
    """Samples the speed of the calling thread's core from a second thread.

    Start it inside ``pinned()``, so the sampler shares the pinned core.
    """

    def __init__(self):
        self.samples: list = []  # (start time, REFERENCE_S / loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            _loop()
            self.samples.append((t0, REFERENCE_S / (time.thread_time() - c0)))

    def speed(self, start: float, end: float) -> float:
        """Mean relative core speed over [start, end]; the nearest sample when
        the interval holds none."""
        samples = list(self.samples)
        if not samples:
            raise RuntimeError("the speed probe has no samples yet")
        inside = [s for t, s in samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        middle = (start + end) / 2.0
        return min(samples, key=lambda ts: abs(ts[0] - middle))[1]
