"""A speedometer for a machine whose processor speed steps while it runs.

On a shared VM the same pure-Python work can take twice as long from one
second to the next (see README.md, "Machine and noise").  The benchmark
therefore times a fixed reference loop, which lives here and not in the
package, alongside the work it measures, and reports each gated time in
reference seconds: the wall time of a stretch of work, scaled by
REFERENCE_S over the loop's time at that moment.  A stretch that took
twice as long because the machine ran at half speed reads the same; a
change to the package that does less work reads less.

A Speedometer runs the loop at the start and the end of a block and every
PERIOD_S of the process's CPU time inside it (SIGPROF), and keeps the
[start, end] of every run.  ref_seconds() turns any interval of the block
into reference seconds, leaving out the loop's own runs.
"""

from __future__ import annotations

import signal
from time import perf_counter

# About the reference loop's time on the reference machine (2-core Xeon VM
# reporting 2000 MHz, Python 3.11.7) at its fastest, so that a reference
# second reads as a wall second there at full speed.
REFERENCE_S = 0.00033
PERIOD_S = 0.02


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic and a small dict."""
    acc = 0
    table = {}
    for i in range(1500):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
        acc += table.get((i >> 3) & 255, 0) & 7
    return acc


def sample() -> list[float]:
    """One run of the reference loop, as [start, end]."""
    start = perf_counter()
    reference_loop()
    return [start, perf_counter()]


def loop_times(runs: int = 3) -> list[float]:
    """The times of a few back-to-back runs of the reference loop."""
    return [end - start for start, end in (sample() for _ in range(runs))]


class Speedometer:
    """Samples the reference loop in and around a block; see the module doc."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def __enter__(self) -> "Speedometer":
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.samples.append(sample())

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())


def ref_seconds(samples: list[list[float]], start: float, end: float) -> float:
    """Reference seconds spent in [start, end] outside the loop's runs.

    Each stretch between two consecutive runs is scaled by REFERENCE_S over
    the mean time of those two runs.  Time outside the first and last run
    is not covered and counts as nothing.
    """
    total = 0.0
    for (a0, a1), (b0, b1) in zip(samples, samples[1:]):
        lo, hi = max(a1, start), min(b0, end)
        if hi > lo:
            total += (hi - lo) * 2 * REFERENCE_S / ((a1 - a0) + (b1 - b0))
    return total
