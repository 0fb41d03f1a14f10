"""Speed probe: a small exact-arithmetic computation of the benchmark's own,
timed many times a second, during the operations too, to track how fast
the machine runs at each moment.

On a shared host the speed of a core changes with the load of other
tenants, by a quarter within seconds and within minutes, and the
program's times change with it. The probe changes the same way: both are
pure-Python big-integer and ``Fraction`` arithmetic. A wall-clock timer
signal interrupts whatever runs every ``INTERVAL_S`` and times one
``probe()`` in the signal handler, on the main thread: no other thread or
process is started. ``run.py`` takes the probe's time out of each
operation's latency and scales the latency by ``NOMINAL_S`` over the mean
probe time during the operation, so it reads as the time at the speed the
probe had where ``NOMINAL_S`` was measured. The probe calls nothing in the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

# Median time of one ``probe()`` call on the machine the README's figures
# come from: 2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.
NOMINAL_S = 0.0033

INTERVAL_S = 0.05  # wall time between two probes
MIN_SAMPLES = 10  # an operation shorter than this many intervals takes the nearest probes

INT_N = 32  # Bareiss on integers: the determinant's kernel
FRACTION_N = 8  # elimination over Fractions: per-entry object overhead


def _matrix(n: int) -> list:
    rng = random.Random("reference")
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


MATRIX = _matrix(INT_N)
BLOCK = [row[:FRACTION_N] for row in MATRIX[:FRACTION_N]]


def bareiss_det(rows: list) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_det(rows: list) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(e) for e in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def probe() -> tuple:
    """One unit of probe work: both determinants, which ``check()``
    compares on the same block."""
    return bareiss_det(MATRIX), fraction_det(BLOCK)


def check() -> None:
    """The two methods must agree on the Fraction block, which checks the
    probe itself; run once before a measurement."""
    if fraction_det(BLOCK) != bareiss_det(BLOCK):
        raise RuntimeError("probe determinants disagree")


class SpeedProbe:
    """Times ``probe()`` every ``interval`` seconds of wall time from a
    SIGALRM handler. ``samples`` holds (start, seconds) on the
    ``time.perf_counter`` clock; ``stolen`` is the wall time all handler
    calls took, which callers subtract from the intervals they time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None
        self._starts: list = []

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        entered = time.perf_counter()
        probe()
        done = time.perf_counter()
        self.samples.append((entered, done - entered))
        self.stolen += time.perf_counter() - entered
        self._busy = False

    def start(self) -> None:
        """Check the probe, take the first sample now and arm the timer."""
        check()
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scale(self, t0: float, t1: float, nominal: float = NOMINAL_S) -> float:
        """``nominal`` over the mean probe time in [t0, t1]. With fewer than
        MIN_SAMPLES probes there, the MIN_SAMPLES probes centred on the
        interval are used."""
        if len(self._starts) != len(self.samples):
            self._starts = [t for t, _s in self.samples]
        starts = self._starts
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min((lo + hi) // 2 - MIN_SAMPLES // 2, len(starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return nominal / statistics.fmean(s for _t, s in self.samples[lo:hi])
