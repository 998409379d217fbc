"""Wall time adjusted for the machine's speed at the moment it was spent.

The host this benchmark was written on runs a process at one of two speeds,
about 1.8-2x apart, and switches between them on scales from under a second
to several minutes (other tenants share the cores; no steal time shows, and
CPU time moves with wall time). Taking the fastest of many observations
cannot hide a slow stretch that covers a whole run.

A :class:`SpeedProbe` times a fixed piece of pure-Python work (the probe) on
a ``SIGALRM`` interval timer while operations run. An operation's adjusted
time is its wall time scaled by ``REFERENCE_PROBE_S`` over the mean duration
of the probes that ran during it (for an operation too short to hold one,
the probes just before and just after it). A probe counts as at most
``PROBE_CAP`` reference durations: the slow speed is about 2x, and the rare
probe that takes far longer (about 1 in 100 here) was interrupted, which says
nothing about the speed of the work around it. The probe is the benchmark's own
code and calls nothing of the program, so a change to the program moves the
adjusted time as it moves wall time, while a change of host speed moves the
probe too and cancels out.

This module imports only small modules (``bisect``, ``math``, ``signal``,
``time``, ``array``), none of the heavier standard-library modules the
package imports, so that set-up timed under a probe still times those.
"""

import bisect
import signal
import time
from array import array
from math import gcd

# The probe's duration here when the host runs at full speed (2.1 GHz Xeon,
# Python 3.11.7): adjusted times read as wall time at that speed.
REFERENCE_PROBE_S = 175e-6
PROBE_INTERVAL_S = 0.02
PROBE_CAP = 3.0


class _Ratio:
    """A bare rational: the probe allocates small objects, calls methods and
    takes gcds, as the program's scalar arithmetic does."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    def __add__(self, other):
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)


def probe_work() -> None:
    """The fixed work a probe times: about 175 us of rational and dict operations.

    Of four probes tried on ``cli_gaussian`` (this one, ``int``/``dict``
    operations, ``fractions.Fraction`` arithmetic, a strided walk over a 2 MB
    list), this one's adjusted pass times agreed best across five processes.
    """
    acc = {}
    third = _Ratio(1, 3)
    for i in range(140):
        k = i % 13
        acc[k] = acc.get(k, _Ratio(0, 1)) + third * _Ratio(i % 7 + 1, 5)


class SpeedProbe:
    """Probes on an interval timer between ``start`` and ``stop``; main thread only."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self.starts = array("d")
        self.durations = array("d")
        self._previous_handler = None

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        self.probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        """Stop the timer and put the previous handler back; a last probe closes the record."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.probe()

    def adjusted(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at the reference speed."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        if j == i:  # no probe inside: the ones on either side
            i, j = max(0, i - 1), min(len(self.starts), j + 1)
        cap = PROBE_CAP * REFERENCE_PROBE_S
        mean = sum(min(d, cap) for d in self.durations[i:j]) / (j - i)
        return (t1 - t0) * REFERENCE_PROBE_S / mean
