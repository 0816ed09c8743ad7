"""Scaling of measured times to a reference host speed.

The host is shared, and its speed drifts by up to a factor of two within a
run and between runs.  Every timed step is therefore bracketed by a fixed
pure-Python probe, and its wall time is scaled by PROBE_REF_S over the mean
of the probe times before and after it: the time the step would take on a
host where the probe takes PROBE_REF_S.  The probe does what the program
does most, filtering sets of state pairs by successor lookups.  It is
benchmark code and does not change with the program.
"""

from __future__ import annotations

import random
import time

PROBE_REF_S = 0.010
_RNG = random.Random(0)
_SUCC = [tuple(_RNG.randrange(200) for _ in range(3)) for _ in range(200)]


def probe():
    """Wall time of one fixed run of the probe."""
    succ = _SUCC
    t0 = time.perf_counter()
    rel = {(a, b) for a in range(0, 200, 3) for b in range(0, 200, 4)}
    for _ in range(3):
        rel = {(a, b) for (a, b) in rel
               if any((x, y) in rel or x == y for x in succ[a] for y in succ[b])}
    return time.perf_counter() - t0


class Pace:
    """The last probe time; ``scale`` turns a step's wall time into
    reference-host time, probing once after the step."""

    def __init__(self):
        self.last = probe()

    def scale(self, wall):
        before, self.last = self.last, probe()
        return wall * 2 * PROBE_REF_S / (before + self.last)
