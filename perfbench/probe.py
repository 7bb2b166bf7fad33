"""Machine-speed probe: a fixed, repo-independent unit of CPU work.

The benchmark host is shared, and its speed changes from one second to
the next. Each timed chunk of a workload is bracketed by two probes and
rescaled by ``NOMINAL_PROBE_MS / mean(probes)``, so that a neighbour
slowing the machine down slows the probe by a similar factor and cancels
out of the reported figure.

One probe is a pure-Python loop followed by a numpy gather and scatter
over a few MB of arrays: the two kinds of work the workloads spend their
time in (interpreter overhead and fancy indexing). It imports nothing from
the repository, so no change to the program under test can move it. A
probe runs three times and keeps the minimum, so a repetition that starts
with cold caches does not count.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on an unloaded 2-core x86-64 host; the scale every
#: probe-adjusted time is expressed in.
NOMINAL_PROBE_MS = 3.2

#: Elements per probe array (1 MB each; with the index array and the
#: gathered copy the probe touches 4 MB).
PROBE_ELEMENTS = 1 << 17
PROBE_LOOP = 15_000
PROBE_REPEATS = 3


class MachineProbe:
    """Holds the probe's arrays so every probe touches the same memory."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20120101)
        self._src = rng.random(PROBE_ELEMENTS)
        self._idx = rng.integers(0, PROBE_ELEMENTS, PROBE_ELEMENTS)
        self._dst = np.zeros(PROBE_ELEMENTS)

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        gathered = self._src[self._idx]
        self._dst[self._idx] = gathered
        acc += int(self._dst[0] > 2.0)
        return time.perf_counter() - t0

    def measure_ms(self) -> float:
        """Minimum of ``PROBE_REPEATS`` probe runs, in milliseconds."""
        return 1e3 * min(self._once() for _ in range(PROBE_REPEATS))


def adjust(raw_s: float, probe_before_ms: float, probe_after_ms: float) -> float:
    """Express a raw duration in nominal-machine seconds."""
    return raw_s * NOMINAL_PROBE_MS / (0.5 * (probe_before_ms + probe_after_ms))
