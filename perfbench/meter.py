"""Timing that is steady on a shared host: wall time rescaled by a calibration.

The single-core speed of a small shared cloud host switches between a fast
and a slow state (up to 2x apart for Python code) many times a second, and
the share of time spent slow drifts in phases from seconds to minutes.  So
the raw wall time of a whole pass spreads far more from run to run than a
change to bmcouple would move it.  The meter cuts every timed call into
segments of about ``SEGMENT_S`` seconds and, at each cut, times a fixed numpy
kernel (this file's own code, never bmcouple's).  A stretch of timed work is
scaled by ``REFERENCE_S`` over the mean of the calibrations taken during it,
so a scaled time reads as the seconds the same work would take on a host
where one calibration takes ``REFERENCE_S``.  The mean, not the median, is
what tracks the share of slow time.  Calibration time is left out of every
timed call.

Cuts inside a call happen at checkpoint sites: entry points of bmcouple that
the call reaches often, which the workload names and the meter wraps.  A
checkpoint only cuts on the thread that began the call and while no other
thread is alive, so the calibration never runs beside the library's own
worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SEGMENT_S = 0.5  # shortest segment between two cuts inside a call
CAL_REPEATS = 5  # one calibration is the mean over this many kernel runs...
CAL_SPAN_S = 2.0  # ...and as many again for every further span this long it closes
CAL_ROWS = 2048
CAL_STEPS = 60
# Median calibration time, by thread count, on the 2-vCPU x86-64 host the
# benchmark was tuned on (Python 3.11, numpy 2); the scale of scaled times.
REFERENCE_S = {1: 0.012, 2: 0.020}


class Walk:
    """A fixed random walk on the unit sphere: the same mix of noise draws,
    small-array numpy calls and Python overhead as a simulation step.

    It keeps its buffers and generator, so after construction ``run``
    allocates nothing on the heap: calibrating does not move the library's
    arrays around and leaves peak RSS alone.
    """

    def __init__(self, rows: int, seed: int):
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.x, self.dw, self.cross = (np.empty((rows, 3)) for _ in range(3))
        self.tmp = np.empty(rows)

    def run(self) -> float:
        x, dw, cross, tmp = self.x, self.dw, self.cross, self.tmp
        x[:] = 0.0
        x[:, 2] = 1.0
        for _ in range(CAL_STEPS):
            self.rng.standard_normal(out=dw)
            dw *= 0.03
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                np.multiply(x[:, j], dw[:, k], out=cross[:, i])
                np.multiply(x[:, k], dw[:, j], out=tmp)
                cross[:, i] -= tmp
            x += cross
            np.einsum("ij,ij->i", x, x, out=tmp)
            np.sqrt(tmp, out=tmp)
            for i in range(3):  # column by column: a broadcast divide would buffer
                np.divide(x[:, i], tmp, out=x[:, i])
        return float(x[0, 0])


class Calibration:
    """Times the calibration kernel: one walk per thread, run as the library
    runs its chunks, on a pool made for the call when there are two or more."""

    def __init__(self, threads: int):
        self.threads = threads
        self.walks = [Walk(CAL_ROWS, seed) for seed in range(1, threads + 1)]

    def __call__(self, repeats: int = CAL_REPEATS) -> float:
        """Seconds one run of the kernel takes now, the mean over ``repeats`` runs."""
        start = time.perf_counter()
        if self.threads == 1:
            _repeat(self.walks[0], repeats)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(_repeat, self.walks, [repeats] * self.threads))
        return (time.perf_counter() - start) / repeats


def _repeat(walk: Walk, repeats: int) -> None:
    for _ in range(repeats):
        walk.run()


def scale(wall: float, calibrations, threads: int) -> float:
    """Wall seconds rescaled by the calibrations taken while they were spent."""
    return wall * REFERENCE_S[threads] / statistics.fmean(calibrations)


class Meter:
    """Raw wall time of one call at a time, calibrating at each cut.

    ``calibrations`` collects every calibration the meter has taken, in order.
    """

    def __init__(self, threads: int, calibrate=None):
        self.threads = threads
        self._calibrate = calibrate or Calibration(threads)
        self._open = False
        self.calibrations: list[float] = []

    def begin(self) -> None:
        self._owner = threading.get_ident()
        self._threads_alive = threading.active_count()
        self.calibrations.append(self._calibrate())
        self._raw = 0.0
        self._open = True
        self._start = time.perf_counter()

    def _cut(self) -> None:
        # A long segment gets a longer calibration: a segment that no
        # checkpoint could cut (to_csv on cli-csv) is measured against fewer
        # calibrations, so each of them has to be less noisy.
        segment = time.perf_counter() - self._start
        self._raw += segment
        self.calibrations.append(self._calibrate(CAL_REPEATS * (1 + int(segment / CAL_SPAN_S))))

    def checkpoint(self) -> None:
        """Cut here if the segment is long enough and nothing else is running."""
        if (
            self._open
            and time.perf_counter() - self._start >= SEGMENT_S
            and threading.get_ident() == self._owner
            and threading.active_count() == self._threads_alive
        ):
            self._cut()
            self._start = time.perf_counter()

    def end(self) -> float:
        """Close the call; returns its raw wall seconds."""
        self._cut()
        self._open = False
        return self._raw

    @contextlib.contextmanager
    def checkpoints_at(self, sites):
        """Make each ``(owner, attr)`` entry point a checkpoint for the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in sites]
        for owner, attr, fn in originals:
            setattr(owner, attr, self._hooked(fn))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _hooked(self, fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            self.checkpoint()
            return fn(*args, **kwargs)

        return hooked
