"""Timing of operations, corrected for the host's changing CPU speed.

Operations and the probe below are timed with CLOCK, the CPU time of the
calling thread: every timed operation is single-threaded, CPU-bound work,
and CPU time leaves out the stretches in which another tenant holds the
core. That is not enough on a shared host, where the same pure-Python work
also runs up to twice as slow for seconds at a time while it holds the core
(other tenants contend for its caches), so raw latency medians of two runs
of identical code can differ by more than any useful regression bound. The
benchmark therefore runs a fixed probe of
interpreter and memory work, owned by the benchmark and independent of cmt,
every PROBE_EVERY_S seconds, and scales each timing taken between two
probes by

    REFERENCE_PROBE_S / (mean of the two probe times around the timing)

so every timing is reported at the speed at which the probe takes
REFERENCE_PROBE_S, about the probe's time on this 2-core host when no other
tenant slows it. What is reported is the measured ratio of a timing to the
probe, so a change to cmt moves it and a change of host speed does not.
Measured over six kv-churn runs in separate processes, this scaling brought
the run-to-run relative standard deviation of insert p50 from 15 % (scaling
by each run's own fastest probe) to 3 %. Over five kv-churn seeds, CPU time
in place of wall-clock time brought the quartile spread of insert p50 from
0.12 to 0.05 of its median, and of query p50 from 0.08 to 0.02.
"""

from __future__ import annotations

import random
import time

CLOCK = time.thread_time
PROBE_EVERY_S = 0.025
REFERENCE_PROBE_S = 0.00025

_RNG = random.Random(20180718)
_FAR = [_RNG.random() for _ in range(400_000)]  # ~13 MB, well beyond the L2 cache
_FAR_IDX = [_RNG.randrange(len(_FAR)) for _ in range(1500)]
_W = {i: 0.5 + i for i in range(0, 96, 2)}
_IDX = tuple(range(96))
_VAL = tuple(0.25 * i + 1.0 for i in range(96))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _probe_work() -> float:
    """About 0.5 ms of dict lookups, float arithmetic, sorting, allocation and
    scattered reads from a large list, the kinds of work cmt's operations do."""
    w, idx, val = _W, _IDX, _VAL
    total = 0.0
    far = _FAR
    for i in _FAR_IDX:
        total += far[i]
    for r in range(4):
        for i, v in zip(idx, val):
            wi = w.get(i)
            if wi is not None:
                total += wi * v
        pairs = sorted(((v * (r + 1)) % 7.0, i) for i, v in zip(idx, val))
        objs = [_Pair(a, b) for a, b in pairs[:48]]
        total += pairs[0][0] + len({o.b: o.a for o in objs})
    return total


class SpeedProbe:
    def __init__(self):
        self.probes: list[float] = []
        self._last = 0.0
        self.probe()

    def probe(self) -> int:
        """Time the probe (best of three) and return the new window index."""
        best = float("inf")
        for _ in range(3):
            t0 = CLOCK()
            _probe_work()
            best = min(best, CLOCK() - t0)
        self.probes.append(best)
        self._last = time.perf_counter()
        return len(self.probes) - 1

    def window(self) -> int:
        """Index of the current window, probing first if the last probe is stale."""
        if time.perf_counter() - self._last > PROBE_EVERY_S:
            self.probe()
        return len(self.probes) - 1

    def factors(self) -> list[float]:
        """Per-window factor turning a raw timing into one at the reference speed."""
        self.probe()  # closes the last window
        p = self.probes
        return [2.0 * REFERENCE_PROBE_S / (p[w] + p[w + 1]) for w in range(len(p) - 1)]
