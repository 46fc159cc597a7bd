"""Host speed reference for the timed runs.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give a single Python thread moves by tens of percent over
seconds and minutes.  A run therefore times, between its trials, a fixed
kernel that uses only the standard library -- ``Fraction`` elimination on a
constant matrix and small-dict updates, the same kind of interpreter work
as the trials -- and reports its times scaled by

    speed = REFERENCE_S / (median kernel time of the run)

so that a run on a slowed host and one on a quiet host give the same
figures for the same program.  The host changes speed within a run too,
so each trial's time is scaled by ``local_speed``, from the last few
samples before it.  The kernel never touches monocat, so no change to the
library can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time of a run on the quiet 2-vCPU VM the bounds were set on
# (Python 3.11); a speed of 1.0 means that host.
REFERENCE_S = 0.0020
INTERVAL_S = 0.25    # least time between two samples
REPEATS = 3          # back-to-back kernel calls per sample; it keeps the best
LOCAL = 3            # samples behind the speed a trial is scaled by

_N = 7
_MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
                      for j in range(_N)) for i in range(_N))


def kernel() -> tuple:
    """Gauss-Jordan elimination of a constant 7x7 Fraction matrix, then
    3000 updates of a small dict keyed by int pairs."""
    rows = [list(r) for r in _MATRIX]
    for c in range(_N):
        piv = next((r for r in range(c, _N) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(_N):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return tuple(rows[k][k] for k in range(_N)), len(counts)


class Calibration:
    """Kernel samples taken between trials, at most one per INTERVAL_S."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def speed(self) -> float:
        """REFERENCE_S over the median sample: below 1 on a slower host."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples)

    def local_speed(self) -> float:
        """The same over the last LOCAL samples only."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples[-LOCAL:])
