"""The machine-speed calibration kernel (no ``repro`` import).

The 2-core container flips between speed plateaus that last seconds to
tens of seconds (README.md, "Machine noise"), so two runs of the same
code can differ by 20 % in raw time.  This kernel does the kind of work
the engine does -- tuple building, set and dict churn -- in about
20 ms, and runs before and after every timed region; a time is reported
as ``raw * CAL_REF_MS / calibration_ms`` of its own region, which
divides the machine's speed out.
"""

from __future__ import annotations

import time

__all__ = ["CAL_REF_MS", "calibration_ms", "corrected"]

#: The kernel's time on the machine the baseline was cut on.  Fixed:
#: changing it rescales every time-based metric.
CAL_REF_MS = 7.0


def _kernel() -> int:
    seen: set = set()
    index: dict = {}
    for round_no in range(200):
        produced = set()
        for a in range(round_no, round_no + 96):
            fact = (a % 211, (a * 7 + round_no) % 1009)
            index.setdefault(fact[0], []).append(fact)
            produced.add(fact)
        seen |= produced - seen
    return len(seen) + len(index)


def calibration_ms() -> float:
    """Best of three kernel runs, in milliseconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def corrected(raw: float, cal_ms: float) -> float:
    """``raw`` (a duration) as it would read at ``CAL_REF_MS`` speed."""
    return raw * CAL_REF_MS / cal_ms
