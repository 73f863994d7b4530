"""Host speed probe: a fixed piece of work timed around and inside passes.

The benchmark host is a share of a machine whose speed swings by up to
1.7x in phases of ten to thirty seconds (other tenants).  A time divided
by the probe time measured around it cancels those swings, so the gated
times (``setup_s``, ``pass_s``, ``ops_per_s``) of a CPU-bound workload are
wall times scaled to a reference host on which the probe takes
``REFERENCE_PROBE_S``.  The probe mixes interpreter, zlib and numpy work,
as a pass does; it depends on nothing in the program, so a change to the
program moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

#: probe time on the reference host (a quiet phase of a 2-vCPU x86-64 VM)
REFERENCE_PROBE_S = 0.008
REPEATS = 5
#: least time between two probes taken inside one pass
IN_PASS_INTERVAL_S = 1.0

_BYTES = bytes(range(256)) * 400
_ARRAY = np.random.default_rng(0).random(20_000)


def _work() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    total += len(zlib.compress(_BYTES, 6))
    total += int(np.argsort(_ARRAY)[0])
    return total


def probe_s() -> float:
    """Seconds the fixed probe work takes now (median of ``REPEATS``)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe``, scaled to the
    reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe


class InPassProbes:
    """Probes taken inside a long pass, from a callback the pass makes
    anyway, at most one per ``IN_PASS_INTERVAL_S``.  ``spent_s`` is the
    time they took, which the pass leaves out of its wall time."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if now - self._last < IN_PASS_INTERVAL_S:
            return
        self.values.append(probe_s())
        self._last = time.perf_counter()
        self.spent_s += self._last - now
