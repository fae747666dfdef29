"""A host-speed reference timed alongside every run.

This host's speed drifts far more than any change the benchmark must
resolve: a fixed Python+NumPy loop's one-second rate ranged from 870 to
1650 per second within one minute, and the same seed's offline-paper
throughput spread 16% between runs.  Each run therefore times a fixed
reference loop — Python arithmetic, dict building and small NumPy slices,
the mix the solvers run — during its timed phase, and scales its
end-to-end times to a host on which one reference sample takes
``NOMINAL_S``.  Over repeated runs the reference tracked the solvers
closely (correlation 0.95–0.98 of run totals) and the scaled throughput
spread 4–6% where the raw one spread 13–19%.

The reference is benchmark code: no change to the program can move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds one sample (``UNITS`` loop units) takes on the reference host.
NOMINAL_S = 0.0032
UNITS = 4


class HostClock:
    """Samples the reference loop and reports the run's host-speed factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.random((50, 200))
        self._col = rng.random(200)
        self._pick = rng.integers(0, 200, 64)
        self.samples: list[float] = []
        #: seconds spent sampling, to subtract from the operations it paused
        self.spent = 0.0

    def _unit(self) -> float:
        s = 0.0
        for i in range(100):
            x = self._rows[i % 50] * self._col
            s += float(np.minimum(x, 0.5)[self._pick].sum())
            s += len({k: 2 * k for k in range(20)})
        return s

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        for _ in range(UNITS):
            self._unit()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self, period_s: float = 0.2) -> None:
        """Sample every ``period_s`` on the main thread (SIGALRM), so the
        samples spread evenly over long operations."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Mean sample over ``NOMINAL_S``: above 1 when the host ran slow."""
        return float(np.mean(self.samples)) / NOMINAL_S
