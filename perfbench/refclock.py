"""Reference-speed clock: measured seconds scaled to a fixed core speed.

The cores of a shared host change speed by 20-40% on time scales from tens
of milliseconds to minutes, so raw times of the same code differ between
runs by more than any useful regression bound.  This clock times a fixed
reference unit of work (exact elimination of an 8x8 Fraction matrix with
the benchmark's own ``workloads.rank``: Python loops over Fractions like the
program's hot path, but no line of the program) every ``PERIOD_S`` seconds
while the work it calibrates runs, from a SIGALRM handler in the same
thread, and whenever the caller asks for one, as the runner does before
every job.  No thread or process is started.

An interval is reported twice: as measured, less the time spent in
reference units that fell inside it, and at reference speed, that time
multiplied by ``NOMINAL_S`` over the mean of the units taken inside it and
the nearest one on each side.  The second is the time the interval would
take on a core where the reference unit takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from workloads import rank

Mark = tuple  # (perf_counter, seconds spent in units so far, units taken so far)


class ReferenceClock:
    NOMINAL_S = 0.0015  # about the unit's median time on a 2 GHz Xeon core
    PERIOD_S = 0.05

    def __init__(self):
        rng = random.Random(12345)
        self.matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)]
                       for _ in range(8)]
        self.units = []  # seconds of each reference unit taken while ticking
        self.stolen = 0.0  # seconds spent in those units
        self.on_unit = None  # if set, called with the seconds of every unit taken
        self._unit()  # warm up

    def _unit(self):
        t0 = perf_counter()
        rank(self.matrix)
        return perf_counter() - t0

    def sample(self, signum=None, frame=None):
        """Take one reference unit; also the SIGALRM handler."""
        t0 = perf_counter()
        self.units.append(self._unit())
        spent = perf_counter() - t0
        self.stolen += spent
        if self.on_unit is not None:
            self.on_unit(spent)

    @contextmanager
    def ticking(self):
        """Take a unit on entry, every PERIOD_S inside, and on exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def mark(self) -> Mark:
        """A point in time, taken inside ``ticking``."""
        return perf_counter(), self.stolen, len(self.units)

    def interval(self, start: Mark, end: Mark):
        """(measured seconds, reference-speed seconds) from ``start`` to ``end``.

        Call it after the ``ticking`` block that held both marks has ended,
        so that a unit after ``end`` exists.
        """
        (t0, stolen0, i0), (t1, stolen1, i1) = start, end
        seconds = (t1 - t0) - (stolen1 - stolen0)
        speed = statistics.fmean(self.units[i0 - 1:i1 + 1])
        return seconds, seconds * self.NOMINAL_S / speed

    def median_unit(self):
        return statistics.median(self.units)
