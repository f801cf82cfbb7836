"""Host-speed probe and the reference clock every timed metric uses.

The host's own speed drifts over periods of seconds (a fixed pure-Python
loop can take twice as long from one second to the next), and process
time tracks wall time, so neither clock alone gives steady figures.
:class:`RefClock` therefore runs a fixed probe loop between slices of
work and advances *reference time* at ``wall time x nominal / probe``:
a second of reference time is the same amount of interpreter work
whatever the host's speed at that moment.  The clock stands still while
the probe runs, so probing adds nothing to measured phases or to
open-loop latencies.
"""

import statistics
import time

#: Median probe time (ms) on a 2-vCPU Intel Xeon VM with CPython 3.11,
#: where the benchmark was tuned; the ratio of a reading to it is the
#: host's slowdown at that moment.
NOMINAL_PROBE_MS = 0.95

_PROBE_ITERATIONS = 8000
_PROBE_REPEATS = 5
_WINDOW = 7
#: Reference seconds between calibrations inside a phase.
CALIBRATE_EVERY_S = 0.25


def _spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def probe_ms() -> float:
    """One probe reading: the median of a few runs of a fixed loop."""
    times = []
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter()
        _spin(_PROBE_ITERATIONS)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


class RefClock:
    """Reference-time clock rescaled by the latest probe readings."""

    def __init__(self):
        self.readings = []
        self.scale = 1.0
        self._ref0 = 0.0
        self._wall0 = time.perf_counter()
        self._next_calibration = 0.0
        self.calibrate()

    def now(self) -> float:
        """Reference seconds since the clock was made."""
        return self._ref0 + (time.perf_counter() - self._wall0) * self.scale

    def calibrate(self) -> None:
        """Probe the host and rescale; reference time is frozen meanwhile."""
        ref = self.now()
        self.readings.append(probe_ms())
        recent = self.readings[-_WINDOW:]
        self.scale = NOMINAL_PROBE_MS / statistics.median(recent)
        self._ref0 = ref
        self._wall0 = time.perf_counter()
        self._next_calibration = ref + CALIBRATE_EVERY_S

    def tick(self) -> None:
        """Calibrate when the last calibration is old enough; call between
        slices of work."""
        if self.now() >= self._next_calibration:
            self.calibrate()

    def median_probe_ms(self) -> float:
        return statistics.median(self.readings)
