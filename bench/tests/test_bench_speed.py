"""The speed probe rescales wall time by its readings and leaves the
readings themselves out."""

import signal
from time import perf_counter

import pytest

import speed

R = speed.REFERENCE_S


def probe_with(readings):
    probe = speed.SpeedProbe()
    for start, seconds in readings:
        probe.starts.append(start)
        probe.times.append(seconds)
    return probe


def test_time_at_reference_speed_is_unchanged():
    probe = probe_with([(0.0, R), (1.0, R), (2.0, R), (3.0, R)])
    assert probe.scaled(0.5, 2.5) == pytest.approx(2.0 - 2 * R)


def test_a_machine_twice_as_slow_halves_the_time():
    probe = probe_with([(0.0, 2 * R), (1.0, 2 * R), (2.0, 2 * R)])
    assert probe.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * R) / 2)


def test_each_stretch_takes_the_mean_of_the_readings_around_it():
    # before the reading at 1.0 the machine reads R, from it on 3R
    probe = probe_with([(0.0, R), (1.0, 3 * R), (2.0, 3 * R)])
    expected = 0.5 / 2 + (1.5 - (1.0 + 3 * R)) / 3
    assert probe.scaled(0.5, 1.5) == pytest.approx(expected)


def test_an_interval_after_the_last_reading_uses_that_reading():
    probe = probe_with([(0.0, 4 * R)])
    assert probe.scaled(1.0, 2.0) == pytest.approx(0.25)


def test_without_readings_nothing_is_scaled():
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().scaled(0.0, 1.0)


def test_the_probe_reads_while_python_runs_and_stops_its_timer():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.times) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert 0.0 < probe.scaled(start, start + 0.2)
