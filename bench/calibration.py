"""Host-speed calibration of the benchmark's timings.

A shared cloud host can change speed by up to 2x over minutes. On 2 vCPUs of
an Intel Xeon host the same README walkthrough took 8.2-14.3 s from one
iteration to the next in one otherwise idle process, with wall time equal to
CPU time. No number of iterations inside a 30 s run averages that out, so
the quartile spread of raw times across runs stayed at 15-30%.

A Calibrator measures the host's speed while the timed work runs. A SIGALRM
timer interrupts the main thread every PERIOD_S seconds and runs a fixed
probe (half pure-Python dict work, half small numpy matrix-vector products,
like the solver's inner loop); no extra thread or process is started. The
probe's own time is taken out of every timing through `clock()`, and a
section's time is rescaled to the speed at which one probe takes
REF_PROBE_S. Those "reference seconds" track the host's speed closely: over
51 walkthrough iterations raw time correlated with the mean probe time at
0.97, and the quartile spread of the three-iteration median fell from 15% to
2% of its median. The probe runs no radiosel code, so a change to the
program moves the calibrated time just as it moves the raw time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.2              # timer period; a probe takes about 5 ms (2-3% of the time)
REF_PROBE_S = 0.005         # a reference second is one in which a probe takes 5 ms

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((131, 12))     # the walkthrough's median care-set size
_W0 = _RNG.standard_normal(12)


def probe() -> None:
    """Fixed reference work that does not depend on the program."""
    d: dict = {}
    for i in range(15000):
        d[i % 97] = d.get(i % 53, 0) + i
    w = _W0.copy()
    for _ in range(300):
        w -= 1e-4 * (_X.T @ (1.0 / (1.0 + np.exp(_X @ w))))


class Section:
    """One calibrated interval: its time net of probes and the probes run in it."""

    seconds = 0.0
    probe_s = 0.0
    probes = 0

    @property
    def scale(self) -> float:
        return pooled_scale([self])


def pooled_scale(sections) -> float:
    """Factor from host seconds to reference seconds, from the sections' probes."""
    return REF_PROBE_S * sum(s.probes for s in sections) / sum(s.probe_s for s in sections)


class Calibrator:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.probe_s = 0.0          # total time spent in probes
        self.probes = 0
        self._armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def clock(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.probe_s

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.probe_s += time.perf_counter() - t0
        self.probes += 1

    def _tick(self, signum, frame) -> None:
        # A tick that was already pending when the section ended is dropped.
        if not self._armed:
            return
        self._probe()
        # one-shot timer, re-armed after the probe, so probes never nest
        signal.setitimer(signal.ITIMER_REAL, self.period)

    @contextmanager
    def section(self):
        """Time the body in host seconds net of probes; probe once at each end
        and every `period` seconds inside."""
        sec = Section()
        p0, n0 = self.probe_s, self.probes
        self._probe()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period)
        t0 = self.clock()
        try:
            yield sec
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            sec.seconds = self.clock() - t0
            self._probe()
            sec.probe_s, sec.probes = self.probe_s - p0, self.probes - n0
