"""A fixed-tick clock for the bench gate tests.

Whether a cell clears the time gate's noise floor used to depend on how
fast the machine ran it; under this clock every timed repetition (and
every calibration repeat) lasts exactly one tick, well above the floor.
"""

import pytest

import repro.bench.harness as harness
from repro.bench import DEFAULT_MIN_TIME_S


class FakeClock:
    TICK_S = 5 * DEFAULT_MIN_TIME_S

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.TICK_S
        return self.now


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(harness, "_CLOCK", clock)
    return clock
