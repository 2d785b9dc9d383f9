"""Tests for repro.utils.timer."""

import math
import time

import pytest

from repro.obs import clock
from repro.utils.timer import Stopwatch, TimeBudget


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        assert first >= 0.009
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first

    def test_double_start_raises(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0
        assert not sw.running

    def test_elapsed_while_running(self):
        sw = Stopwatch().start()
        time.sleep(0.005)
        assert sw.elapsed > 0.0
        assert sw.running
        sw.stop()

    def test_reads_the_clock_seam(self):
        with clock.fixed() as advance:
            sw = Stopwatch().start()
            advance(2.5)
            assert sw.elapsed == 2.5
            advance(0.5)
            assert sw.stop() == 3.0


class TestTimeBudget:
    def test_unlimited_never_expires(self):
        budget = TimeBudget(None)
        assert not budget.expired
        assert budget.remaining == math.inf

    def test_zero_budget_expires_immediately(self):
        assert TimeBudget(0.0).expired

    def test_expiry(self):
        budget = TimeBudget(0.01)
        assert not budget.expired
        time.sleep(0.015)
        assert budget.expired
        assert budget.remaining == 0.0

    def test_fixed_clock_drives_expiry(self):
        with clock.fixed() as advance:
            budget = TimeBudget(10.0)
            advance(9.0)
            assert not budget.expired
            assert budget.remaining == 1.0
            advance(1.0)
            assert budget.expired
            assert budget.remaining == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            TimeBudget(-1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            TimeBudget(float("nan"))
