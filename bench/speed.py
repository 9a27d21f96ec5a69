"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU's speed drifts: a fixed op's median time moved by
about +-17% between 5-second windows on a 2-core x86-64 VM, with process
CPU time moving exactly as much as wall time, so the drift is the core
running slower, not the process being descheduled.  A fixed numpy kernel
timed between ops drifts the same way (its ratio to the op moved by 3%).
Timings are therefore reported in calibrated seconds:

    calibrated = measured * NOMINAL_S / (kernel time around the measurement)

that is, seconds on a machine that runs the kernel in NOMINAL_S; the kernel
time is the mean of the 16 samples taken closest in time to the measurement.  The raw
wall-clock figures and the factor are printed and stored next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's typical duration on the 2-core VM described above; any fixed
# value works, it only sets the scale of calibrated seconds.
NOMINAL_S = 0.003
EVERY_S = 0.2  # one sample per this much time between samples ...
PER_GAP = 8  # ... but at most this many in one gap between ops
NEAREST = 16  # samples averaged for one measurement


class SpeedProbe:
    """Times a fixed mix of what the library does: complex matmul, norms and
    powers, and 64-bit integer mixing like the counter RNG."""

    def __init__(self):
        rng = np.random.default_rng(20181209)
        self._a = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
        self._signs = np.where(rng.random((16, 2048)) < 0.5, -1.0, 1.0)
        self._words = rng.integers(0, 2**63, size=(2048, 16), dtype=np.uint64)
        self.samples: list[tuple[float, float]] = []  # (ended at, seconds)
        for _ in range(2):  # the first runs are slow (page faults, cold caches)
            self._kernel()
        self.sample()

    def _kernel(self) -> float:
        g = np.abs(self._a @ self._signs)
        total = float((g**3).sum())
        acc = self._words.copy()
        for _ in range(8):
            acc *= np.uint64(0x9E3779B97F4A7C15)
            acc ^= acc >> np.uint64(31)
        return total + float(acc[0, 0])

    def sample(self) -> float:
        """Median of three kernel runs; recorded with the time it ended."""
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t)
        self._last = time.perf_counter()
        self.samples.append((self._last, statistics.median(runs)))
        return self.samples[-1][1]

    def bracket(self) -> None:
        """PER_GAP samples in a row, before or after a long measurement."""
        for _ in range(PER_GAP):
            self.sample()

    def maybe_sample(self) -> None:
        """Between ops: one sample per EVERY_S elapsed since the last, up to
        PER_GAP, so that a long op is bracketed by several samples."""
        gap = time.perf_counter() - self._last
        for _ in range(min(PER_GAP, int(gap / EVERY_S))):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured over [start, end] by this to get
        calibrated seconds, from the NEAREST samples in time."""
        def distance(sample):
            return max(start - sample[0], 0.0, sample[0] - end)

        near = sorted(self.samples, key=distance)[:NEAREST]
        return NOMINAL_S / statistics.fmean(v for _, v in near)
