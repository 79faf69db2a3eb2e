"""Machine-speed reference for the benchmark's timings.

A shared virtual machine (2-core Intel Xeon at 2.1 GHz) changed speed by 20
to 50 % from one minute to the next, for every process alike.  A run
therefore also times ``reference_work``, a fixed piece of exact sparse
elimination that never calls the library, and scales its timings to the
speed at which ``reference_work`` takes REFERENCE_S.  A change to the
library cannot change the reference; a change to this file changes every
scaled timing and is a change of the benchmark.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Median reference_work time on that machine while it was quiet, under
# Python 3.11.7.
REFERENCE_S = 0.008


def reference_work() -> int:
    """Incremental reduced echelon form of 39 sparse rational vectors, in
    the style of linalg.ReducedEchelon; about 8 ms."""
    rows: dict[int, dict[int, Fraction]] = {}
    for i in range(1, 40):
        vec = {j: Fraction(i * j % 7 + 1, j % 5 + 1) for j in range(i % 11, i % 11 + 8)}
        for lead in [k for k in vec if k in rows]:
            factor = vec.get(lead)
            if not factor:
                continue
            for k, x in rows[lead].items():
                acc = vec.get(k, Fraction(0)) - factor * x
                if acc:
                    vec[k] = acc
                else:
                    vec.pop(k, None)
        if vec:
            lead = min(vec)
            pivot = vec[lead]
            rows[lead] = {k: x / pivot for k, x in vec.items()}
    return len(rows)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times reference_work between ops, at most once per INTERVAL_S, and
    scales a latency by the speed measured around the time it ran."""

    INTERVAL_S = 0.1
    # Samples on each side of a latency that set its scale: about 1 s.
    NEIGHBOURS = 10

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.times.append(now)
            self.samples.append(time_reference())
            self._next = time.perf_counter() + self.INTERVAL_S

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale_at(self, when: float) -> float:
        """REFERENCE_S / median of the reference times sampled nearest to
        ``when``."""
        i = bisect.bisect_left(self.times, when)
        nearby = self.samples[max(0, i - self.NEIGHBOURS):i + self.NEIGHBOURS]
        return REFERENCE_S / statistics.median(nearby)
