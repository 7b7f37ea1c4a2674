"""Machine-speed probe, used to calibrate the in-process end-to-end times.

The machine this benchmark was built on is a shared 2-vCPU VM.  There the
same mgres operation runs 40-100% slower for minutes at a time while other
tenants are busy, which swamps the run-to-run differences the benchmark
exists to detect.  A fixed pure-Python kernel that uses no mgres code is
timed between operations; its median over a run, against ``REFERENCE_S``,
is the run's slowdown factor, and the end-to-end times are divided by it
(rates multiplied).  A change to mgres cannot move the probe, so a slower
program still reads slower.  The uncalibrated figures are printed next to
the calibrated ones.

Measured over ten seeds per workload during such a spell, the spread
(interquartile range over median) of ``large_op_s`` fell from 0.21 to 0.11
(taylor-q), 0.13 to 0.05 (taylor-gfp) and 0.48 to 0.13 (minimize-generic).
It does not carry over to cli-files: there the probe read a 1.9x slowdown
while the subprocess times barely moved, so that workload stays
uncalibrated.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Median probe time on an unloaded vCPU of the reference machine (Intel Xeon
# VM at 2.1 GHz, Python 3.11).  It only fixes the scale of calibrated times.
REFERENCE_S = 0.021
INTERVAL_S = 0.5


class _Residue:
    """A boxed prime-field element, like the package's own."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __mul__(self, other):
        return _Residue(self.p, self.v * other.v)

    def __sub__(self, other):
        return _Residue(self.p, self.v - other.v)


def kernel() -> int:
    """Elimination over GF(p) with boxed elements, fraction-free integer
    elimination and Fraction sums: the kinds of work mgres spends its time on."""
    rng = random.Random(0)
    n = 40
    m = [[_Residue(32003, rng.randint(0, 32002)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    a = [[rng.randint(-5, 5) for _ in range(20)] for _ in range(20)]
    prev = 1
    for c in range(19):
        p = a[c][c] or 1
        for r in range(c + 1, 20):
            f = a[r][c]
            a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], a[c])]
        prev = p
    s = Fraction(0)
    for _ in range(600):
        s += Fraction(rng.randint(-5, 5), rng.randint(1, 9))
    return m[-1][-1].v + a[-1][-1] + s.numerator


class Probe:
    """Times the kernel at most once per INTERVAL_S of wall time."""

    def __init__(self):
        self.times: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        kernel()
        self._last = time.perf_counter()
        self.times.append(self._last - now)

    def slowdown(self) -> float:
        """Median probe time over the reference; above 1 on a slow machine."""
        return statistics.median(self.times) / REFERENCE_S
