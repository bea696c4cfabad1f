"""Host-speed probe: a fixed piece of work, timed between benchmark operations.

On a shared virtual machine the speed of the host drifts by up to a factor of
two, in phases that last from seconds to minutes (see README.md).  CPU time
drifts with wall time, so no clock of the process can tell the phases apart.
The probe can: it is the same work every time, it does not touch pfikit, and
it runs between operations whenever PROBE_GAP_S has passed since the last
sample (BURST times after a long operation).  Once ``install``-ed on a
function that long operations call often, it also samples inside them, and
that sampling time is taken out of the operation's time: a phase can change
within a one-second curve.  A gated time is the measured
wall time scaled by NOMINAL_PROBE_S over the median probe time around it, so
it reads as wall time on a host whose probe takes NOMINAL_PROBE_S.  A change
to pfikit moves that time exactly as it moves wall time, because the probe
does not run pfikit code.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.008  # probe time on this host in its fast phase
PROBE_GAP_S = 0.25
LONG_GAP_S = 1.0  # after an operation this long, take BURST samples
BURST = 3
WINDOW_S = 1.0


def _term(x: float) -> float:
    return math.sqrt(x) * math.exp(-1e-6 * x) + math.log1p(x)


def probe_work() -> float:
    """Python calls on floats, math and dict stores, then small numpy products."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(1, 20000):
        total += _term(float(i))
        table[i & 63] = total
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(1000):
        total += float(np.dot(a, a))
    return total


class HostProbe:
    """Probe samples over one run, and the speed factor they give any interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.inside = 0.0  # seconds spent sampling inside the current operation
        self._patched = None

    def install(self, module, attr: str) -> None:
        """Sample also inside long operations, at each call of ``module.attr``."""
        original = getattr(module, attr)

        def sampled(*args, **kwargs):
            if time.perf_counter() - self.starts[-1] >= PROBE_GAP_S:
                start = time.perf_counter()
                self.sample()
                self.inside += time.perf_counter() - start
            return original(*args, **kwargs)

        setattr(module, attr, sampled)
        self._patched = (module, attr, original)

    def remove(self) -> None:
        if self._patched:
            module, attr, original = self._patched
            setattr(module, attr, original)
            self._patched = None

    def sample(self) -> None:
        start = time.perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def sample_if_due(self) -> None:
        gap = time.perf_counter() - self.starts[-1] if self.starts else LONG_GAP_S
        if gap >= PROBE_GAP_S:
            for _ in range(BURST if gap >= LONG_GAP_S else 1):
                self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_PROBE_S over the median probe time within WINDOW_S of [start, end].

        The window always holds the last sample before ``start`` and the first
        after ``end``.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.starts, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.starts, end) + 1, len(self.starts)))
        return NOMINAL_PROBE_S / statistics.median(self.durations[lo:hi])
