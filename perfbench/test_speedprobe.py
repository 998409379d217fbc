"""Speed-adjusted timing: the scaling rule and the timer's life cycle.

Run with ``python3 -m pytest perfbench``.
"""

import signal
import time

import pytest

import speedprobe
from speedprobe import REFERENCE_PROBE_S, SpeedProbe


def probe_at(starts, durations):
    probe = SpeedProbe()
    probe.starts.extend(starts)
    probe.durations.extend(durations)
    return probe


def test_time_is_scaled_by_the_probes_inside_the_interval():
    ref = REFERENCE_PROBE_S
    probe = probe_at([0.0, 1.0, 2.0, 3.0, 4.0], [ref, 2 * ref, 2 * ref, 2.5 * ref, ref])
    # Probes at 1.0 and 2.0 ran at half speed: two wall seconds are one adjusted.
    assert probe.adjusted(0.5, 2.5) == pytest.approx(1.0)
    assert probe.adjusted(0.5, 3.5) == pytest.approx(3.0 * 3 / 6.5)


def test_an_interrupted_probe_counts_as_the_cap():
    ref = REFERENCE_PROBE_S
    probe = probe_at([0.0, 1.0, 2.0], [ref, 100 * ref, ref])
    assert probe.adjusted(0.0, 2.0) == pytest.approx(2.0 * 3 / (2 + speedprobe.PROBE_CAP))


def test_a_short_interval_takes_the_probes_on_either_side():
    ref = REFERENCE_PROBE_S
    probe = probe_at([0.0, 1.0, 2.0], [ref, 3 * ref, ref])
    assert probe.adjusted(1.25, 1.75) == pytest.approx(0.5 / 2)
    assert probe.adjusted(2.5, 3.0) == pytest.approx(0.5)  # after the last probe: the last one alone


def test_start_and_stop_probe_and_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(0.005)
    probe.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) >= 4  # the first, the last, and timer probes between
    assert list(probe.starts) == sorted(probe.starts)
    assert all(d > 0 for d in probe.durations)
