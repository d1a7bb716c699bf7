"""A fixed amount of pure-Python integer work, timed between library calls
to follow the speed of the machine.

The kernel imports nothing from galekit, so a change to the library never
changes its time; it mixes what the library's hot paths do (small-int and
big-int arithmetic, extended gcds, list and tuple building, short function
calls) so that it slows down and speeds up with the machine as they do.
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 5  # kernel runs per calibration; their median is the sample
# The kernel's time that normalized times are scaled to: a round figure near
# its median on the reference machine (2 vCPUs, Python 3.11), where its
# median over a run ranged from 1.4 to 2.1 ms as the shared host's speed
# drifted.
REFERENCE_S = 0.002


def _matrix(seed: int, rows: int, cols: int) -> list:
    x, out = seed, []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = (1103515245 * x + 12345) % 2147483648
            row.append(x % 2001 - 1000)
        out.append(row)
    return out


MATRICES = [_matrix(s, 5, 7) for s in range(1, 7)]


def _xgcd(a: int, b: int) -> tuple:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _echelon(rows: list) -> tuple:
    """Row echelon form by unimodular row operations (an integer HNF
    without the final reduction), returned as a tuple of tuples."""
    m = [list(r) for r in rows]
    r0 = 0
    for j in range(len(m[0])):
        for i in range(r0 + 1, len(m)):
            a, b = m[r0][j], m[i][j]
            if b == 0:
                continue
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            top = [x * u + y * v for u, v in zip(m[r0], m[i])]
            m[i] = [p * v - q * u for u, v in zip(m[r0], m[i])]
            m[r0] = top
        if m[r0][j]:
            r0 += 1
            if r0 == len(m):
                break
    return tuple(tuple(r) for r in m)


def kernel() -> int:
    total = 0
    for rows in MATRICES:
        for shift in range(4):
            h = _echelon([row[shift:] + row[:shift] for row in rows])
            total += sum(abs(x) % 7 for r in h for x in r)
    return total


def sample() -> float:
    """Seconds of one kernel run: the median of REPEATS timed runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def normalized(seconds: float, before: float, after: float) -> float:
    """A time at the reference speed: scaled by the kernel's reference time
    over its time around the measured span (the geometric mean of the
    samples just before and just after it)."""
    return seconds * REFERENCE_S / math.sqrt(before * after)
