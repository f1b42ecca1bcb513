"""Machine-speed calibration for the measured times.

The reference machine is a shared 2-vCPU sandbox whose effective speed
switches between levels about 1.4x apart for seconds at a time, so raw
times of identical work spread by 20-30% between runs.  A ``Speedometer``
runs a fixed calibration loop (pure-Python slicing, comparisons, dict
updates and a regex scan, the same kind of work scrublang does) every
``INTERVAL_S`` of wall time while a unit of work runs.  A *speed factor* is
calibration time over ``REFERENCE_NS``: a unit's wall time is divided by the
mean factor during the unit, a single call's latency by the mean of the
probes in the second before and after it.  The benchmark reports these times (seconds
at the reference speed) and keeps the raw ones in its info line.

Probes never land inside a timed per-event call: while ``busy`` is set the
timer only marks a probe as due, and the feeder runs it between calls.
Probe time inside a unit is subtracted from the unit's wall time.
"""

from __future__ import annotations

import re
import signal
import time

INTERVAL_S = 0.1
# probes on each side of a call that set its local factor: one calibration
# loop is noisy, the speed levels last seconds
LOCAL_WINDOW = 5
# typical calibration loop time on the reference machine under load
REFERENCE_NS = 800_000

_WORDS = [f"w{i % 37:02d}x{i % 11}" for i in range(200)]
_TEXT = " ".join(_WORDS)
_RE = re.compile(r"\bw1\dx\d\b")


def calibration_ns() -> int:
    """Wall time of one fixed calibration loop."""
    start = time.perf_counter_ns()
    counts: dict[str, int] = {}
    n = len(_TEXT)
    for i in range(1000):
        w = _WORDS[i % 200]
        j = (i * 7) % (n - 6)
        if _TEXT[j : j + 5] == w[:5]:
            counts[w] = counts.get(w, 0) + 1
        counts[w[:3]] = counts.get(w[:3], 0) + 1
    _RE.findall(_TEXT)
    return time.perf_counter_ns() - start


class Speedometer:
    """Samples the calibration loop on a wall-clock timer (SIGALRM)."""

    def __init__(self) -> None:
        self.samples: list[int] = []  # calibration loop ns, in time order
        self.busy = False
        self._due = False

    def _probe(self) -> None:
        self.samples.append(calibration_ns())

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:
            self._due = True
        else:
            self._probe()

    def catch_up(self) -> None:
        """Run a probe that came due during a timed call."""
        if self._due:
            self._due = False
            self._probe()

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> int:
        """A position in the sample list, to delimit a unit of work."""
        return len(self.samples)

    def unit(self, start: int, end: int, wall_s: float) -> tuple[float, float]:
        """(speed factor, wall time minus probe time) of a unit of work that
        ran between marks ``start`` and ``end``; a unit too short to hold a
        probe takes the latest factor seen, or 1 before any."""
        probes = self.samples[start:end]
        if probes:
            return sum(probes) / len(probes) / REFERENCE_NS, wall_s - sum(probes) / 1e9
        return (self.samples[end - 1] / REFERENCE_NS if end else 1.0), wall_s

    def local_factors(self, marks: list[int]) -> list[float]:
        """Speed factor at each mark: the mean of the ``LOCAL_WINDOW`` probes
        on either side of it, so a call is scaled by the speed it ran at."""
        out = []
        for k in marks:
            near = self.samples[max(k - LOCAL_WINDOW, 0) : k + LOCAL_WINDOW]
            out.append(sum(near) / len(near) / REFERENCE_NS if near else 1.0)
        return out
