"""Scaling of wall intervals to the reference speed.

Run from the repository root:  python3 -m pytest bench/test_speed.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def _meter(ends, spent, kernel_s):
    meter = speed.Speedometer()
    meter.ends, meter.spent, meter.kernel_s = list(ends), list(spent), list(kernel_s)
    return meter


def test_reference_speed_gives_wall_time_less_the_handler():
    ref = speed.REF_KERNEL_S
    meter = _meter([0.0, 1.0, 2.0, 3.0], [0.0, 0.01, 0.01, 0.01], [ref] * 4)
    assert meter.seconds(0.5, 2.5) == pytest.approx(2.0 - 2 * 0.01)
    assert meter.seconds(3.5, 4.0) == pytest.approx(0.5)  # after the last sample


def test_slow_pieces_count_less():
    ref = speed.REF_KERNEL_S
    meter = _meter([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [ref, 2 * ref, 2 * ref])
    # (0, 1) is bracketed by ref and 2 ref, (1, 2) by 2 ref on both sides.
    assert meter.seconds(0.0, 2.0) == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_live_meter_samples_and_stops():
    meter = speed.Speedometer()
    meter.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.PERIOD_S:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        meter.stop()
    meter.stop()
    assert len(meter.kernel_s) >= 3
    assert 0.0 < meter.seconds(t0, t1)
    assert 0.0 < meter.overhead() < 0.5
