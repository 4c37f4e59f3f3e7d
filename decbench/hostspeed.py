"""Host speed from a fixed pure-Python kernel, to scale measured times.

The shared host runs a process 10-80% slower for spells of seconds to
minutes, longer than a run.  A run therefore also times this kernel -- dense
Gaussian elimination in floats and in ``Fraction``, the interpreted
arithmetic gptwb does -- before every round, and multiplies every time it
reports by ``NOMINAL_S / median(kernel time)``.  Reported times are "times
on a host where the kernel takes NOMINAL_S": a slow spell moves the kernel
and the decisions together, a change to gptwb moves only the decisions.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.003

_rng = random.Random(5)
_FLOAT = [[_rng.uniform(-1, 1) for _ in range(14)] for _ in range(12)]
_EXACT = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(7)]
          for _ in range(6)]


def _eliminate(matrix) -> None:
    rows = [list(r) for r in matrix]
    m, r = len(rows), 0
    for c in range(len(rows[0])):
        if r >= m:
            break
        p = max(range(r, m), key=lambda i: abs(rows[i][c]))
        if rows[p][c] == 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1


def _kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(8):
        _eliminate(_FLOAT)
    for _ in range(2):
        _eliminate(_EXACT)
    return time.perf_counter() - t0


def sample() -> float:
    """Seconds for one kernel run, the least of three."""
    return min(_kernel() for _ in range(3))


def scale(samples) -> float:
    """Factor that turns measured seconds into nominal-host seconds."""
    return NOMINAL_S / statistics.median(samples)
