"""The host-speed reference: the sampler's timer and handler, and the scale."""

import signal
from time import perf_counter

import pytest

import reference


def _spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    calls = []
    with reference.Sampler(lambda: calls.append(1) or 0.002, period=0.02) as sampler:
        _spin(0.2)
    assert len(sampler.times) == len(calls) >= 3
    assert sampler.total == pytest.approx(0.002 * len(calls))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    _spin(0.05)
    assert len(calls) == len(sampler.times)


def test_sampler_stops_when_the_work_raises():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ValueError):
        with reference.Sampler(reference.Probe(), period=0.01):
            raise ValueError("doctored")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_scale_is_reference_over_mean_probe_time():
    mean = reference.REFERENCE_S * 2
    assert reference.scale([mean * 0.5, mean * 1.5]) == pytest.approx(0.5)
    assert reference.Probe()() > 0
