"""Machine-speed gauge for a shared, noisy host.

On the 2-core shared VM this benchmark was built on, the speed of pure
Python code drifts by up to 1.75x over tens of seconds while CPU time stays
equal to wall time: the process never waits, it just runs slower while
neighbours are busy. A whole run can land in a slow or a fast stretch, so
no statistic over one run's samples removes the drift.

The gauge times a fixed probe that shares none of shisat's code but uses
the operations the engine spends its time on (building frozensets,
sorting by a key, dict lookups, slot attribute reads). Each sample is
scaled by REFERENCE_PROBE_S over the median duration of the probes nearest
to it in time, so a sample reads as milliseconds at the probe's reference
speed. Over 76 consecutive suite passes this cut the spread of pass times
from 33% to 10% of their median. A slower shisat still reads slower: the
probe does not run its code.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_PROBE_S = 0.0015  # probe duration at the VM's usual speed
PROBE_EVERY_S = 0.1
NEIGHBOURS = 3  # probes taken on each side of a sample
WARM_UP = 10  # untimed probes first: the interpreter specialises code after a few runs


class _Item:
    __slots__ = ("uid", "kind")

    def __init__(self, uid, kind):
        self.uid = uid
        self.kind = kind


_ITEMS = [_Item(i, i % 5) for i in range(64)]


def _probe_work() -> int:
    table: dict = {}
    hits = 0
    for _ in range(2):
        for r in range(60):
            label = frozenset(_ITEMS[(r * 7 + j) % 64] for j in range(12))
            for item in sorted(label, key=lambda f: f.uid):
                key = (item.kind, r % 9)
                table[key] = table.get(key, 0) + 1
                if item.kind == 2 and label | {_ITEMS[r % 64]}:
                    hits += 1
    return hits


class SpeedGauge:
    def __init__(self, clock=perf_counter, work=_probe_work):
        self.clock = clock
        self.work = work
        self.times: list = []  # midpoint of each probe
        self.durations: list = []

    def probe(self) -> None:
        if not self.times:
            for _ in range(WARM_UP):
                self.work()
        start = self.clock()
        self.work()
        end = self.clock()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def maybe_probe(self) -> None:
        if not self.times or self.clock() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, at: float) -> float:
        """Reference speed over the speed the probes nearest `at` saw."""
        i = bisect.bisect_left(self.times, at)
        near = self.durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return REFERENCE_PROBE_S / statistics.median(near)

    def overall_factor(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.durations)
