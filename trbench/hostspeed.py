"""Reference kernel for host-speed normalisation.

The host is shared, and its speed drifts by tens of percent between
one-second windows. The run's timings (all but set-up) are therefore paired
with a fixed kernel timed in the same window: the same mix of small numpy
calls and Python bookkeeping that dominates the models' autodiff code.

* Work in the Spark driver process (direct calls, training) holds the
  interpreter, so the kernel runs between units of work (:class:`SpeedProbe`),
  and each unit takes the median of the ``WINDOW`` samples on either side.
* During Spark work the Spark driver only waits, so a thread runs the kernel
  alongside at a low duty cycle (:class:`Sampler`).

``slowness = kernel time / REF_MS``; a normalised time is the raw time
divided by the slowness of its window. The raw figures are reported too.
"""
from __future__ import annotations

import gc
import statistics
import threading
import time

import numpy as np

REF_MS = 1.25  # nominal kernel time; only ratios to it are reported
WINDOW = 5  # samples on each side of a unit of work that set its slowness
SAMPLER_PERIOD_S = 0.05  # kernel period of :class:`Sampler`, ~3% of one core

_A = (np.arange(32 * 32, dtype=np.float64).reshape(32, 32) % 7 - 3.0) / 40.0


def kernel_ms() -> float:
    """Wall time of one kernel call, in ms. The garbage collector is paused
    while it runs, so collecting the caller's garbage (an autodiff graph,
    say) is never billed to the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = np.ones(32)
        acc: dict[int, float] = {}
        for i in range(400):
            x = np.tanh(_A @ x + 0.01)
            acc[i % 5] = acc.get(i % 5, 0.0) + float(x[i % 32])
        ms = (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()
    if not np.isfinite(sum(acc.values())):
        raise RuntimeError("reference kernel diverged")
    return ms


class SpeedProbe:
    """Kernel samples taken between units of work, with a local estimate
    of slowness around each unit (median of the nearest samples)."""

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[tuple[float, float]] = []  # (start, end) of each sample

    def sample(self) -> int:
        """Take one kernel sample; returns its index."""
        t0 = time.perf_counter()
        self.samples.append(kernel_ms())
        self.marks.append((t0, time.perf_counter()))
        return len(self.samples) - 1

    def slowness_at(self, i: int) -> float:
        lo, hi = max(0, i - WINDOW), min(len(self.samples), i + WINDOW + 1)
        return statistics.median(self.samples[lo:hi]) / REF_MS

    def slowness(self) -> float:
        return statistics.median(self.samples) / REF_MS

    def work_between(self) -> tuple[float, float]:
        """Raw and normalised seconds of the work between consecutive
        samples, kernel time left out. The stretch after sample ``i`` is
        divided by ``slowness_at(i)``, so host speed is weighted by how long
        the work ran at it."""
        raw = norm = 0.0
        for i in range(len(self.marks) - 1):
            work = self.marks[i + 1][0] - self.marks[i][1]
            raw += work
            norm += work / self.slowness_at(i)
        return raw, norm


class Sampler:
    """Runs the kernel every ``SAMPLER_PERIOD_S`` in a thread while the Spark
    driver waits on Spark."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLER_PERIOD_S):
            self.samples.append(kernel_ms())

    def __enter__(self):
        self.samples.append(kernel_ms())
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(kernel_ms())
        return False

    def slowness(self) -> float:
        return statistics.median(self.samples) / REF_MS
