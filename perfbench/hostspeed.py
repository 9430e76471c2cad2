"""Program-call timing, with host-speed calibration for the end-to-end figures.

The benchmark runs on shared hosts whose speed drifts by 15% or more within
seconds and from one minute to the next, which moves every timing of a
20-second run by as much.  A sampling :class:`Clock` therefore runs a fixed
calibration unit of the benchmark's own (no chainequiv code) from a 20 ms
interval timer while a timed program call is running and subtracts the
units' time from the call's time.  :meth:`Clock.scaled` then divides each
operation's time by the mean unit time sampled during that operation (or
during its round, for operations too short to hold 20 units) over
``REFERENCE_UNIT_S``, so timings read as they would on a host where one unit
takes ``REFERENCE_UNIT_S``.  The units sample the host during the very seconds the
program runs, so both see the same drift; a change to the program leaves the
units as they are and moves the scaled figures by its full effect.
"""

import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

import reference

# About the time of one unit, interleaved with the program, on the 2.1 GHz
# Xeon (family 6, model 207) that the reference figures in README.md were
# taken on; scaled figures there read close to unscaled ones.
REFERENCE_UNIT_S = 1.0e-3
SAMPLE_INTERVAL_S = 0.02
MIN_UNITS = 20
BUFFER_FLOATS = 1 << 20   # 8 MB
SLICE_FLOATS = 1 << 16    # 512 KB


class Clock:
    """Times program calls; ``sampling()`` also calibrates host speed while they run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._unary = rng.uniform(-5.0, 5.0, (12, 8))
        self._pair = rng.uniform(-5.0, 5.0, (11, 8, 8))
        self._doc = json.dumps(rng.uniform(-5.0, 5.0, (100, 8)).tolist())
        self._array = rng.uniform(-5.0, 5.0, 4096)
        self._floats = rng.uniform(-5.0, 5.0, 100).tolist()
        # Four times the L2 cache of the reference host; each unit reads the
        # next slice, so the units also feel contention for the shared L3.
        self._buffer = rng.uniform(-5.0, 5.0, BUFFER_FLOATS)
        self._slice = 0
        self.unit_seconds = []
        self._timing = False
        self._spent = 0.0

    def _unit(self):
        reference.forward_backward(self._unary, self._pair)
        json.loads(self._doc)
        json.dumps(self._floats)
        np.log(np.exp(self._array).sum())
        start = self._slice * SLICE_FLOATS
        self._buffer[start:start + SLICE_FLOATS].sum()
        self._slice = (self._slice + 1) % (BUFFER_FLOATS // SLICE_FLOATS)

    def _on_alarm(self, signum, frame):
        # Units run only inside a timed call, so they sample the host while
        # the program runs, never while outputs are checked.
        if not self._timing:
            return
        start = time.perf_counter()
        self._unit()
        seconds = time.perf_counter() - start
        self.unit_seconds.append(seconds)
        self._spent += seconds

    @contextmanager
    def sampling(self):
        """Run calibration units from an interval timer during timed calls in the body."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args):
        """``(fn(*args), seconds)``, less the time calibration units took meanwhile."""
        spent = self._spent
        self._timing = True
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            end = time.perf_counter()
            self._timing = False
        return value, end - start - (self._spent - spent)

    def mark(self) -> int:
        """A position in the unit record, for :meth:`scaled`."""
        return len(self.unit_seconds)

    def scaled(self, seconds: float, spans) -> float:
        """``seconds`` as on the reference host.

        ``spans`` are ``(begin, end)`` mark pairs, narrowest first: the
        operation that took ``seconds``, then its round.  The first with at
        least ``MIN_UNITS`` units sampled in it gives the host's speed; if
        none has, the whole run does.
        """
        for begin, end in spans:
            units = self.unit_seconds[begin:end]
            if len(units) >= MIN_UNITS:
                break
        else:
            units = self.unit_seconds
        return seconds * REFERENCE_UNIT_S / statistics.fmean(units)

    def slowdown(self) -> float:
        """How much slower than the reference host the whole run's host was (1.0: as fast)."""
        return statistics.fmean(self.unit_seconds) / REFERENCE_UNIT_S
