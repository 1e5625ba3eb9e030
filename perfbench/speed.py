"""Machine-speed probe: timings scaled to a fixed reference speed.

The machines this benchmark runs on are shared.  When neighbours are
busy, the same job runs up to 1.7x slower, in phases of a second or
more, and process time slows with it, so medians of raw wall time
spread by 25-40% from run to run.  The probe times a fixed Python
snippet (Fraction sums of big integers, big-integer products) before and
after a measured block and, from a SIGPROF handler, every
PROBE_INTERVAL_S of CPU time inside it.  The block's time, less the
time spent probing, is multiplied by REFERENCE_PROBE_S over the median
probe: the time the block would take on a machine where the snippet
takes REFERENCE_PROBE_S.  A change to the program moves the block's
time and not the probe, so the scaled time still tracks the program.
"""
from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the snippet's time on an idle 2-core x86-64 VM, Python 3.11
REFERENCE_PROBE_S = 225e-6
PROBE_INTERVAL_S = 0.01
EDGE_PROBES = 20


# integers of 127 to 152 digits, the size the exact moment checks handle
_BIG = [7**k for k in range(150, 180)]


def _snippet():
    """Work shaped like the package's hot paths: Fraction sums of big
    integers and big-integer products and remainders."""
    total = Fraction(0)
    for k in range(12):
        total += Fraction(_BIG[k], _BIG[k + 3] + 1) * Fraction(3**k + 1, 5**k)
    x = 1
    for b in _BIG:
        x = x * b % (_BIG[0] + 12345)
    return total, x, sum(b * b for b in _BIG)


def _probe() -> float:
    start = perf_counter()
    _snippet()
    return perf_counter() - start


class SpeedProbe:
    """Reusable context manager; after each exit, `spent` is the time its
    probes took inside the block and `scale` converts the block's time to
    reference speed.  With inside=False it probes only before and after
    the block, so spans recorded inside it hold no probe time."""

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0
        self.scale = 1.0

    def _on_prof(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(_probe())
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.samples = [_probe() for _ in range(EDGE_PROBES)]
        self.spent = 0.0
        if self.inside:
            signal.signal(signal.SIGPROF, self._on_prof)
            signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.samples += [_probe() for _ in range(EDGE_PROBES)]
        self.scale = REFERENCE_PROBE_S / statistics.median(self.samples)
