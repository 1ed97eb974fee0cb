"""Wall time corrected for the co-tenants of a shared host.

On a shared virtual machine the core this process runs on slows down, by up
to about 1.7x, while another tenant keeps its sibling busy, and that changes
within milliseconds.  Plain wall time then measures the neighbours as much as
the program: over ten invocations on a 2-core VM, the median run time of the
bundled experiment spread 0.12 to 0.32 (IQR / median) in wall time.

``Clock`` interrupts the process every INTERVAL_S (``SIGALRM``) and times a
fixed probe of about 10 us in the same thread.  Each stretch of program time
between two probes is scaled by REFERENCE_S / (duration of the probe that
ends it): the time the stretch would have taken at the speed at which the
probe takes REFERENCE_S.  Time spent in the probes is left out.  The same
run times spread 0.02 in this scaled time.  ``elapsed(a, b)`` gives the
scaled time between two ``time.perf_counter()`` readings taken while the
clock ran.

This module imports only the standard library, so that a fresh interpreter
can start a ``Clock("python")`` before it imports anything it measures.
"""

from __future__ import annotations

import bisect
import signal
import time

perf = time.perf_counter

INTERVAL_S = 0.001
# About the probes' durations on an idle core of a 2.1 GHz x86_64 VM: the
# speed that scaled times refer to.
REFERENCE_S = {"numpy": 10e-6, "python": 10e-6}


def _python_probe():
    s = 0.0
    d = {}
    for i in range(40):
        s += (i * 0.5) ** 2 % 3.0
        d[i & 7] = s
    return s


def _numpy_probe():
    import numpy as np

    a = np.arange(9.0).reshape(3, 3) / 7.0
    v = np.ones(3)

    def probe():
        s = 0.0
        for i in range(8):
            s += float((a @ v)[i % 3])
        return s

    return probe


class Clock:
    """Context manager; ``probe`` is ``"numpy"`` (small-array work, as cdmkit
    does) or ``"python"`` (plain interpreter work, for a fresh interpreter).
    The first stretch starts at ``origin`` (default: on entry)."""

    def __init__(self, probe: str = "numpy", origin: float | None = None):
        self._probe = _numpy_probe() if probe == "numpy" else _python_probe
        self._reference = REFERENCE_S[probe]
        self.origin = origin
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._rates: list[float] = []
        self._cumulative: list[float] = []
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        end = perf()
        t0 = perf()
        self._probe()
        t1 = perf()
        self._starts.append(self._last)
        self._ends.append(end)
        self._rates.append(self._reference / (t1 - t0))
        self._last = perf()
        self._busy = False

    def __enter__(self):
        self._last = self.origin = perf() if self.origin is None else self.origin
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # closes the last stretch
        total = 0.0
        for start, end, rate in zip(self._starts, self._ends, self._rates):
            self._cumulative.append(total)
            total += (end - start) * rate
        return False

    def at(self, t: float) -> float:
        """Scaled program time from ``origin`` to the reading ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0 or t > self._ends[-1]:
            raise ValueError(f"reading {t} is outside the clock's run")
        stretch = min(max(t - self._starts[i], 0.0), self._ends[i] - self._starts[i])
        return self._cumulative[i] + stretch * self._rates[i]

    def elapsed(self, a: float, b: float) -> float:
        return self.at(b) - self.at(a)

    def probe_seconds(self) -> list[float]:
        """Every probe duration measured, in order."""
        return [self._reference / rate for rate in self._rates]
