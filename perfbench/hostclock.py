"""Wall time at a fixed reference host speed.

The benchmark's hosts are small shared VMs whose CPU speed wanders by
tens of percent within a minute: a fixed pure-Python loop takes anywhere
from 0.86 s to 1.74 s over one minute on a 2-vCPU host.  Raw wall times
of a run then say more about the neighbours than about the code.

:class:`HostClock` runs :func:`calibrate` — a fixed interpreter-bound
loop that no package code touches — just before and just after each
timed interval, and scales the interval by ``REFERENCE_S`` over the mean
of the two: the result is the interval's length on a host that runs the
loop in ``REFERENCE_S``.  A change to the package moves the interval but
not the calibration, so it still shows in full.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop (about 20 ms on a 2-vCPU host).
LOOPS = 100_000

#: Seconds the calibration loop takes on the reference host (its median
#: on a 2-vCPU VM); reported times are at that speed.
REFERENCE_S = 0.020


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: integer arithmetic, dict
    stores and name lookups, as the simulators' hot loops do."""
    started = time.perf_counter()
    total, table = 0, {}
    for index in range(LOOPS):
        total = (total + index * index) ^ (total >> 3)
        table[index & 1023] = total
    return time.perf_counter() - started


class HostClock:
    """Scales measured intervals to the reference speed."""

    def __init__(self) -> None:
        self.before = calibrate()

    def restart(self) -> None:
        """Calibrate now: the next interval starts here."""
        self.before = calibrate()

    def lap(self, seconds: float) -> float:
        """``seconds``, just measured since the last calibration, at the
        reference speed; the calibration taken now opens the next lap."""
        after = calibrate()
        scaled = seconds * 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return scaled

    def since_start(self, seconds: float) -> float:
        """``seconds`` that ended at the first calibration (set-up), at
        the reference speed."""
        return seconds * REFERENCE_S / self.before
