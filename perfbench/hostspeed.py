"""The host's current speed, from a fixed pure-Python reference loop.

The shared host this benchmark was defined on changes speed by up to 1.8x
within a minute (other tenants, steal time), and process CPU time moves with
wall time, so raw pass medians of one build spread by up to 31 % between runs.
The time of a fixed loop run right before and after a measurement tracks that
drift (correlation about 0.7 with the pass times it brackets); dividing by it
and multiplying by NOMINAL_S gives the measurement in seconds at the host's
nominal speed.  The loop uses no symdyn code, so a change to the program moves
the measured time and not the reference.
"""

from __future__ import annotations

import time

ITERATIONS = 1_500_000
NOMINAL_S = 0.3  # about the loop's time on the defining 2-core host when quiet


def reference_s() -> float:
    """Seconds the fixed dict loop takes now."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(ITERATIONS):
        key = i % 5003
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two reference runs, scaled to nominal speed."""
    return seconds * NOMINAL_S / ((ref_before + ref_after) / 2)
