"""Host-speed calibration for every timed interval of the benchmark.

On the 2-vCPU guests this benchmark was built on, host throughput
drifts by 20-40 % over seconds to minutes while a process's CPU time
tracks its wall time: the vCPU keeps running, just slower (a busy SMT
sibling, memory traffic of a neighbour or a lower clock), so neither
CPU time nor more rounds remove it.  Every timed interval is therefore
reported in *reference seconds*: its CPU time divided by the host's
*slowness*, the time of fixed calibration loops that run no ``repro``
code over their time on a quiet reference host.  A change to the
program moves the interval and never the calibration, so a real
speed-up shows in full.

Interpreted and native code do not slow down alike, so there are two
loops, and a workload weighs them by the share of its time spent in
native code (``native_share``):

* the *interpreted* loop: dict and string work plus numpy gathers and
  sorts on cache-resident data, the mix of the Python-heavy
  workloads;
* the *native* loop: numpy binary searches, histograms, shifts and
  gathers over arrays of 32 K to 512 K elements (some of them larger
  than L2), the mix of the lockstep kernel and its row/tag
  preparation.

With the loops weighed by a workload's own mix, the median calibrated
round varied 2-4 % across idle, CPU-hog and memory-hog periods on the
same host, against 22-43 % uncalibrated; with the other loop's weight
it varied 12-17 %.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

#: Typical CPU seconds of one pass of each loop on a quiet reference
#: host (2-vCPU Intel Xeon KVM guest, Python 3.11, numpy 2.4).  Fixed
#: constants: reference seconds stay comparable across runs and hosts.
INTERPRETED_S = 0.0135
NATIVE_S = 0.033


class Calibration:
    """Times the calibration loops; create one per process.

    ``native_share`` (0 to 1) is the weight of the native loop in the
    slowness; the rest goes to the interpreted loop.
    """

    def __init__(self, native_share: float = 0.0) -> None:
        self.native_share = native_share
        #: CPU seconds spent in the loops so far (callers subtract it
        #: from intervals the loops ran inside).
        self.spent_s = 0.0
        rng = np.random.default_rng(0)
        self._data = rng.integers(0, 1 << 40, 1 << 14)
        self._index = rng.integers(0, len(self._data), len(self._data))
        if native_share > 0.0:
            # About 7 MB, held only by processes that use the loop.
            self._table = np.sort(rng.integers(0, 1 << 40, 1 << 15))
            self._probes = rng.integers(0, 1 << 40, 1 << 16)
            self._bins = rng.integers(0, 4096, 1 << 16)
            self._big = rng.integers(0, 1 << 40, 1 << 19)
            self._big_index = rng.integers(0, len(self._big), 1 << 16)
            self._stream = rng.integers(0, 1 << 40, 1 << 18)

    def interpreted(self) -> float:
        """CPU seconds of one pass of the interpreted loop."""
        start = time.process_time()
        table: dict[int, int] = {}
        for value in range(40_000):
            key = value & 511
            table[key] = table.get(key, 0) + len(str(value))
        for _ in range(60):
            picked = self._data[self._index]
            picked.sort()
        return time.process_time() - start

    def native(self) -> float:
        """CPU seconds of one pass of the native loop (needs a
        ``native_share`` above 0)."""
        start = time.process_time()
        np.searchsorted(self._table, self._probes)
        np.bincount(self._bins, minlength=4096)
        (self._table[self._index] >> 4) & 1023
        for _ in range(2):
            gathered = self._big[self._big_index]
            (self._stream >> 4) & 1023
            self._stream >> 14
            np.searchsorted(self._table, gathered)
        return time.process_time() - start

    def sample(self) -> float:
        """Host slowness from one pass of the weighted loops (1.0 on
        the reference host)."""
        start = time.process_time()
        share = self.native_share
        slowness = 0.0
        if share < 1.0:
            slowness += (1.0 - share) * self.interpreted() / INTERPRETED_S
        if share > 0.0:
            slowness += share * self.native() / NATIVE_S
        self.spent_s += time.process_time() - start
        return slowness

    def measure(self, samples: int = 3) -> float:
        """Median slowness of ``samples`` passes."""
        return statistics.median(self.sample() for _ in range(samples))

    async def sample_periodically(self, samples: list[float], interval: float = 0.5) -> None:
        """Append a slowness sample every ``interval`` seconds until
        cancelled.

        Runs as a task beside an asyncio workload whose rounds last
        seconds, so the host speed is measured during the round rather
        than only around it; the caller subtracts the samples' own
        time (``spent_s``) from the round.
        """
        while True:
            await asyncio.sleep(interval)
            samples.append(self.sample())


def reference_seconds(seconds: float, slowness: float) -> float:
    """Host ``seconds`` in reference seconds at host ``slowness``."""
    return seconds / slowness
