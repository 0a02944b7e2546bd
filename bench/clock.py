"""A wall clock rescaled to a fixed machine speed.

On a shared host the speed of a vCPU drifts by tens of percent over
seconds, as neighbours come and go, which swamps the differences the
benchmark is meant to show.  :class:`SpeedClock` samples the speed every
``PERIOD`` seconds (from a SIGALRM handler, so long operations are
sampled too) by timing a fixed Fraction-arithmetic kernel, and
accumulates elapsed wall time multiplied by ``REF_S / kernel time``,
using the median of the last three samples.  Time spent in the kernel
itself is left out.  On a machine that runs the kernel in ``REF_S``
seconds the clock reads wall time; on a slowed machine it reads what the
wall time would have been at that speed.  The kernel runs once untimed
before each timed run, because a process that was waiting is cold when
the signal wakes it.

Work done by child processes is timed under :meth:`SpeedClock.manual`:
the timer is off, so this process stays idle while a child runs instead
of competing with it for a CPU, and the caller samples the speed with
:meth:`SpeedClock.tick` right before and right after each child.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.25
REF_S = 0.005   # kernel time that defines the reference speed

_rows = random.Random(5)
_MATRIX = [[Fraction(_rows.randint(-5, 5), _rows.randint(1, 3))
            for _ in range(12)] for _ in range(9)]


def kernel() -> None:
    """Row reduction of a fixed rational matrix plus a Fraction loop:
    the same kind of work as the library, and independent of it."""
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(12):
        p = next((i for i in range(r, 9) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(9):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    a, acc = Fraction(1), {}
    for i in range(1, 250):
        a = a * Fraction(i % 7 + 1, i % 5 + 1) + Fraction(1, i)
        a = Fraction(a.numerator % 100003, a.denominator % 100003 or 1)
        acc[i % 17] = acc.get(i % 17, 0) + a


class SpeedClock:
    """``now()`` is a monotonic reading in reference-speed seconds."""

    def __init__(self):
        self._acc = 0.0
        self._samples = [self._sample() for _ in range(3)]
        self._last = perf_counter()
        self._old = None

    @staticmethod
    def _sample() -> float:
        kernel()  # warm-up: the process may have been idle, waiting
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0

    def _rate(self) -> float:
        return REF_S / statistics.median(self._samples[-3:])

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def tick(self) -> None:
        """Take a speed sample; time up to it is scaled by the median of
        the last three samples, this one included."""
        t0 = perf_counter()
        self._samples.append(self._sample())
        del self._samples[:-3]
        self._acc += (t0 - self._last) * self._rate()
        self._last = perf_counter()

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    @contextlib.contextmanager
    def manual(self):
        """No periodic samples inside: the caller ticks."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            self.tick()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def now(self) -> float:
        mask = {signal.SIGALRM}
        signal.pthread_sigmask(signal.SIG_BLOCK, mask)
        try:
            return self._acc + (perf_counter() - self._last) * self._rate()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, mask)

