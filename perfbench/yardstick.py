"""The yardstick: a fixed piece of work that reads the host's current speed.

The benchmark runs on a shared host whose speed drifts by up to 2x over tens
of seconds to minutes, as other tenants load the same physical cores. The
drift moves every workload the same way, so a bare wall time mostly reports
when a run happened. The yardstick uses no uqe code and is built like the
workloads: a Python loop with a dict lookup and one scalar numpy draw per
step (like the scan), then bucketing a small array (like a histogram build).
Timed right after every call, it gives the host's speed at that moment, and
a time multiplied by REF_MS over the yardstick's time reads as it would on
the reference host when unloaded.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# the yardstick's time on the reference host (a 2-core Intel Xeon VM at
# 2.1 GHz, Python 3.11, numpy 2.4) in its fast spells
REF_MS = 0.23
SMOOTH = 5  # calls whose yardstick timings are pooled for each call


class Yardstick:
    def __init__(self) -> None:
        self._gen = np.random.Generator(np.random.Philox(0))
        self._table = {i: i % 3 for i in range(0, 64, 2)}
        self._small = np.random.default_rng(1).lognormal(0.0, 1.0, 2000)

    def _work(self) -> float:
        running = 0.0
        for i in range(150):
            running += self._table.get(i % 64, 0)
            if running + self._gen.exponential() < 0.0:  # never true: keeps the draw live
                break
        for _ in range(4):
            buckets = np.floor(np.log(self._small) / 0.01).astype(np.int64)
            np.unique(buckets, return_counts=True)
        return running

    def time_ns(self) -> int:
        """Time of one run, after an untimed run that refills the caches the
        preceding call evicted (else a change to uqe's memory use would move
        the yardstick)."""
        self._work()
        t0 = perf_counter_ns()
        self._work()
        return perf_counter_ns() - t0


def to_reference(times_ns, yard_ns) -> np.ndarray:
    """Each time in ns as on the reference host: times_ns[i] scaled by REF_MS
    over the yardstick, taken as the median of the SMOOTH timings around i so
    that one timing hit by an interrupt does not rescale a call."""
    y = np.asarray(yard_ns, dtype=float)
    half = SMOOTH // 2
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(y, half, mode="edge"), SMOOTH)
    return np.asarray(times_ns, dtype=float) * (REF_MS * 1e6) / np.median(windows, axis=1)
