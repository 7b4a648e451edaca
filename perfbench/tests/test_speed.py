"""The speed probe samples the pinned core and leaves no thread or pin behind."""

import os
import statistics
import time

import numpy as np

import speed


def test_probe_samples_the_pinned_core_and_cleans_up():
    before = os.sched_getaffinity(0)
    with speed.pinned() as cpu, speed.SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {cpu}
        start = time.perf_counter()
        time.sleep(0.5)
        end = time.perf_counter()
    assert os.sched_getaffinity(0) == before
    assert not probe._thread.is_alive()
    assert 0.0 < probe.speed(start, end) < 100.0
    # an interval without samples takes the nearest one
    assert probe.speed(end + 10.0, end + 11.0) == probe.samples[-1][1]


def test_program_work_on_the_core_does_not_slow_the_probe():
    # np.sort releases the GIL, so a wall-clock probe would share the core
    # with it and read about half speed while it runs.
    data = np.random.default_rng(0).random(1 << 18)
    idle, busy = [], []
    with speed.pinned(), speed.SpeedProbe() as probe:
        for _ in range(4):
            start = time.perf_counter()
            time.sleep(0.3)
            idle.append(probe.speed(start, time.perf_counter()))
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                np.sort(data)
            busy.append(probe.speed(start, time.perf_counter()))
    assert statistics.median(busy) / statistics.median(idle) > 0.75
