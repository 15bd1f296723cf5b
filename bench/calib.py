"""Calibration loop for reference seconds.

The host's speed drifts (a fixed loop varies by a factor of up to 1.7
within seconds), so every timed sample is bracketed by this loop and
rescaled to the speed at which the loop takes NOMINAL_LOOP_S.  The loop
uses the interpreter operations the library spends its time in: integer
bit operations, list indexing and dict stores.  This module must import
nothing from ``rootposets``: a change to the library cannot move it.
"""

from time import perf_counter

LOOP_ITERATIONS = 60_000
NOMINAL_LOOP_S = 0.025


def _loop(n):
    acc = 0
    table = [i * 7 for i in range(64)]
    seen = {}
    for i in range(n):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 5
        acc += table[i & 63]
        seen[i & 255] = acc & 0xFF
    return acc + len(seen)


def loop_seconds():
    """Wall time of one calibration loop."""
    t0 = perf_counter()
    _loop(LOOP_ITERATIONS)
    return perf_counter() - t0
