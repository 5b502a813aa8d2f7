"""Correct timings for the machine's changing speed.

On a shared machine the speed of this process can switch between levels
for seconds at a time (a neighbour on the same core, a frequency change):
the same streaming step then takes 1.7 times as long, and a run's median
follows the share of time it spent at each level. A reference computation
of small numpy operations and Python bookkeeping, like the program's own
work, slows down by nearly the same factor.

``SpeedProbe`` runs that computation from a timer signal every
``INTERVAL`` seconds of the run, in the one thread there is, and records
how long it took. Its ``now`` clock leaves the probe's own time out, so an
operation the signal interrupted is not charged for it. ``scaled`` then
rescales each operation's duration to the speed at which the probe takes
``REFERENCE_S``: by the three probes taken nearest to a short operation,
or by the mean of the probes taken during a long one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.1
REFERENCE_S = 1.0e-3      # probe time at the fast level of a shared 2-core x86 machine
_ITERATIONS = 40

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((6, 6))
_A = _A @ _A.T
_V = _rng.standard_normal(6)


def reference_work() -> float:
    """Small matrix updates, an eigendecomposition and dict traffic."""
    acc = 0.0
    seen = {}
    for k in range(_ITERATIONS):
        x = np.array([float(k), 1.0, 2.0, 3.0, 4.0, 5.0])
        y = _A @ x
        P = _A - np.outer(y, y) / (1.0 + x @ y)
        w, _ = np.linalg.eigh((P + P.T) / 2.0)
        acc += float(w[0]) + float(_V @ x)
        seen[str(k % 7)] = acc
    return acc


class SpeedProbe:
    """Timer-driven speed samples and a clock that excludes them."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.spent = 0.0
        self.times: list[float] = []       # on the ``now`` clock
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.times.append(start - self.spent)
        self.durations.append(elapsed)
        self.spent += elapsed

    def now(self) -> float:
        """Seconds on a clock that stands still while the probe runs."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def __enter__(self) -> "SpeedProbe":
        reference_work()                  # load LAPACK before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, starts, ends) -> np.ndarray:
        """Durations of the operations ``[starts, ends)`` at reference speed."""
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        times = np.asarray(self.times, dtype=float)
        durations = np.asarray(self.durations, dtype=float)
        if times.size == 0:
            raise RuntimeError("the speed probe took no samples")
        lo = np.searchsorted(times, starts)
        hi = np.searchsorted(times, ends)
        cumulative = np.concatenate([[0.0], np.cumsum(durations)])
        inside = hi - lo
        mean_inside = (cumulative[hi] - cumulative[lo]) / np.maximum(inside, 1)
        mid = (starts + ends) / 2.0
        right = np.clip(np.searchsorted(times, mid), 0, times.size - 1)
        left = np.clip(right - 1, 0, times.size - 1)
        nearest = np.where(np.abs(times[left] - mid) <= np.abs(times[right] - mid),
                           left, right)
        # the median of three neighbouring probes ignores one disturbed probe
        around = np.clip(nearest[:, None] + np.array([-1, 0, 1]), 0, times.size - 1)
        local = np.median(durations[around], axis=1)
        factor = np.where(inside >= 3, mean_inside, local)
        return (ends - starts) * REFERENCE_S / factor
