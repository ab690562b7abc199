"""Wall time converted to a fixed reference host speed.

The benchmark runs on a few cores of a shared host whose speed swings by
up to about 2x over seconds to minutes, for every kind of work alike
(CPU time tracks wall time, so the slowdown is not time taken away by
the scheduler).  Raw wall times taken minutes apart then differ by more
than any change worth measuring.

While a ``HostClock`` is running, a SIGALRM timer interrupts the program
every ``PERIOD`` seconds and runs a fixed calibration loop: rational
4x4 matrix products and small dict churn, pure Python with the cyclic
collector off, so its cost depends on the host and the interpreter, not
on the program's heap.  Its duration gives the host speed at that
moment: ``REFERENCE_S`` divided by it, in reference seconds per wall
second.  ``seconds(a, b)`` integrates that speed over a stretch of wall
time, leaving out the time the calibration itself took, and so gives
the stretch's length on a host that runs the loop in ``REFERENCE_S``.
"""
from __future__ import annotations

import gc
import math
import signal
from time import perf_counter

PERIOD = 0.1  # seconds between calibrations while the clock runs
# One calibration on an unloaded 2-core Intel Xeon virtual machine
# (Python 3.11), the speed at which reference seconds equal wall seconds.
REFERENCE_S = 0.0018


class _Rational:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other):
        return _Rational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Rational(self.num * other.num, self.den * other.den)


def _calibration_loop() -> int:
    m = [[_Rational(3 * i + j + 1, j + 2) for j in range(4)] for i in range(4)]
    size = 0
    for _ in range(2):
        a = m
        for _ in range(6):
            a = [[a[i][0] * m[0][j] + a[i][1] * m[1][j] + a[i][2] * m[2][j]
                  + a[i][3] * m[3][j] for j in range(4)] for i in range(4)]
        size += a[0][0].den.bit_length()
    for _ in range(16):
        table = {}
        for i in range(500):
            table[(i, i % 7)] = str(i)
        size += len(table)
    return size


class HostClock:
    """Samples host speed while running; converts wall stretches to reference seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, speed)
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _calibration_loop()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((start, end, REFERENCE_S / (end - start)))

    def start(self) -> None:
        """Take a sample now and one every PERIOD seconds until ``stop``."""
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop the timer and take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds in the wall stretch [a, b], calibration time left out.

        Between two samples the speed is the mean of theirs; before the
        first and after the last it is that sample's.
        """
        samples = self.samples
        pieces = [(-math.inf, samples[0][0], samples[0][2])]
        pieces += [(p[1], q[0], (p[2] + q[2]) / 2) for p, q in zip(samples, samples[1:])]
        pieces.append((samples[-1][1], math.inf, samples[-1][2]))
        total = 0.0
        for low, high, speed in pieces:
            overlap = min(b, high) - max(a, low)
            if overlap > 0:
                total += overlap * speed
        return total

    def median_speed(self) -> float:
        speeds = sorted(s for _, _, s in self.samples)
        return speeds[len(speeds) // 2]
