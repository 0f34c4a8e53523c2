"""Scale measured times to a fixed machine speed.

The machines this benchmark runs on share their cores with other tenants.
There, a fixed piece of Python work runs at two speeds about 2x apart, and
the speed switches within a second or stays put for minutes.  Passes and
minima cannot average that away when a whole run sits in one phase.  So the
harness measures the speed while it times:

- a probe is a fixed piece of pure-Python bitmask work, one row of an
  associativity scan of a hyperoperation, the kind of loop the audits run.
  It takes about 0.11 ms at full speed;
- ``BOUNDARY_PROBES`` probes run right before and right after each timed
  span, and a ``SIGPROF`` timer runs one more every ``SAMPLE_EVERY_S`` of CPU
  time during it, so long spans are sampled evenly;
- the span's time, less the time its probes took, is multiplied by the mean
  speed of its probes.  A probe's speed is ``PROBE_S`` over its time.

``PROBE_S`` is a probe's time at full speed on an Intel Xeon with 2 shared
cores and Python 3.11, so scaled times read as seconds on that machine at
full speed.  The probe is the benchmark's own code: no change to the library
moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_S = 0.000110
BOUNDARY_PROBES = 4
SAMPLE_EVERY_S = 0.002

_N = 10
_TABLE = [[(1 << (x + y) % _N) | (1 << (x - y) % _N) | (1 << (y - x) % _N)
           for y in range(_N)] for x in range(_N)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def probe_s() -> float:
    """Seconds one probe takes now: is (x+y)+z = x+(y+z) for x = 0 and
    every y, z?"""
    table, x = _TABLE, 0
    start = time.perf_counter()
    for y in range(_N):
        for z in range(_N):
            left = 0
            for u in _bits(table[x][y]):
                left |= table[u][z]
            right = 0
            for v in _bits(table[y][z]):
                right |= table[x][v]
            if not left & right:
                raise AssertionError("speed probe changed")
    return time.perf_counter() - start


class Speedometer:
    """Install once; then wrap each timed span in start() and scale()."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0
        self.spent_total = 0.0
        self._busy = False

    def install(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:  # an item's time limit may interrupt a probe
            start = time.perf_counter()
            self.speeds.append(PROBE_S / probe_s())
            spent = time.perf_counter() - start
            self.spent += spent
            self.spent_total += spent
        finally:
            self._busy = False

    def clock(self) -> float:
        """perf_counter() less the time every probe so far has taken."""
        return time.perf_counter() - self.spent_total

    def start(self) -> None:
        """Probe the speed, then start sampling; call right before a span."""
        self.speeds = []
        for _ in range(BOUNDARY_PROBES):
            self._sample()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def scale(self, elapsed: float) -> tuple[float, float]:
        """Stop sampling and probe again; call right after a span that took
        ``elapsed`` seconds.  Returns (scaled seconds, seconds less probes)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        busy = elapsed - self.spent
        for _ in range(BOUNDARY_PROBES):
            self._sample()
        return busy * statistics.fmean(self.speeds), busy
