"""Rescaling a call's start and work times by the kernel runs around its pass."""

import pytest

import hostspeed
from hostspeed import REFERENCE_START_S, REFERENCE_WORK_S, Calibrated


def fake_kernel(runs):
    """A kernel whose runs take the given (start, work) multiples of the references in turn."""
    runs = iter(runs)
    return lambda: tuple(f * ref for f, ref in zip(next(runs), (REFERENCE_START_S, REFERENCE_WORK_S)))


def test_calls_share_the_place_of_their_pass():
    clock = Calibrated(fake_kernel([(5, 5), (1, 1), (1, 1), (1, 1)]))  # the first run only warms up
    assert clock.run(lambda: "a") == ("a", 0)
    assert clock.run(lambda: "b") == ("b", 0)
    clock.mark()
    assert clock.run(lambda: "c") == ("c", 1)
    clock.mark()
    assert clock.kernels == [(REFERENCE_START_S, REFERENCE_WORK_S)] * 3


def test_each_part_is_scaled_by_the_kernel_runs_next_to_the_call(monkeypatch):
    clock = Calibrated(fake_kernel([(1, 1), (1, 1)]))
    starts, works = (9, 1, 3, 9), (9, 2, 2, 9)
    clock.kernels = [(s * REFERENCE_START_S, w * REFERENCE_WORK_S) for s, w in zip(starts, works)]
    # The call at place 1 ran between kernel runs 1 and 2.
    monkeypatch.setattr(hostspeed, "WINDOW", 1)
    assert clock.scaled(4.0, 0.0, 1) == pytest.approx(4.0 / 2.0)
    assert clock.scaled(0.0, 3.0, 1) == pytest.approx(3.0 / 2.0)
    assert clock.scaled(4.0, 3.0, 1) == pytest.approx(2.0 + 1.5)
    # At the ends the window is cut short.
    assert clock.scaled(9.0, 9.0, 3) == pytest.approx(1.0 + 1.0)
    monkeypatch.setattr(hostspeed, "WINDOW", 2)
    assert clock.scaled(6.0, 5.5, 1) == pytest.approx(1.0 + 1.0)
