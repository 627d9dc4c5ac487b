"""Host calibration: a fixed kernel timed next to every measured segment.

The benchmark host's speed drifts by up to 2x over seconds (the guest
sees it as slower wall *and* CPU time, so it is not scheduling).  A
segment's busy time divided by the kernel time measured around it
(the mean of the kernel right before and right after the segment)
cancels most of that drift.  The kernel uses no repo code, so no
program change can move it: ``host.cal_ms`` is a guard, not a result.

Calibrated figures are reported at :data:`CAL_REF_MS`, a pinned
reference kernel time, so they read as ordinary seconds and elements/s
on a host whose kernel takes exactly that long.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time (ms) of the reference host; calibrated values are scaled
#: to it.  Pinned once: changing it rescales every calibrated metric.
CAL_REF_MS = 2.5

_PINNED = np.random.default_rng(20090329)
_KEYS = _PINNED.integers(0, 4096, 6_000).tolist()
_CODES = _PINNED.integers(0, 1 << 20, 8_000)


def kernel_ms(repeats: int = 3) -> float:
    """Best of ``repeats`` runs of the fixed kernel, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        counts: dict = {}
        get = counts.get
        for key in _KEYS:
            counts[key] = get(key, 0) + 1
        np.unique(_CODES)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


class Calibrator:
    """Times the kernel on demand and rescales busy times to the reference."""

    def __init__(self) -> None:
        self.samples: list = []

    def measure(self) -> float:
        """Time the kernel now; call only while no program work is in flight."""
        value = kernel_ms()
        self.samples.append(value)
        return value

    @staticmethod
    def bracket(before: list, after: float) -> list:
        """Kernel time per segment: the mean of the kernel timed before it
        and the one timed after it (the next segment's, or ``after``)."""
        following = list(before[1:]) + [after]
        return [(a + b) / 2 for a, b in zip(before, following)]

    @staticmethod
    def scale(seconds: float, cal_ms: float) -> float:
        """``seconds`` of busy time expressed at the reference speed."""
        return seconds * CAL_REF_MS / cal_ms

    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0
