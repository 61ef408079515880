"""Host-speed calibration and the reference-speed clock.

The shared 2-core host the benchmark was sized on changes speed by up
to 2x from one second to the next: a busy loop's rate moves with it,
while the process's CPU time stays equal to its wall time, so the
slow-down is not steal time the kernel could subtract.  Wall-clock
figures of identical code then spread by 90% and more between runs.

Every figure the benchmark times is therefore read off a
:class:`HostClock`.  Between the program's steps (requests, waves,
set-up) the clock runs a fixed unit of pure-Python work whenever
``GRAIN_S`` has passed since the last one, and it advances by real
elapsed time times ``REFERENCE_UNIT_S / unit_s``, with ``unit_s`` the
median of the last few units.  A host slow-down stretches the program
and the units alike and cancels out; a program change does not touch
the units and shows in full.  Time spent in units is cut out of the
clock, so it is in no figure, latency included.

The unit imports nothing from the program under test.  It mixes what
the program's hot paths do in CPython: attribute and dict access on
small objects, frozenset algebra (labels), short method calls, bytes
slicing and joining, list sorting and short-lived allocations.  It runs
with the cyclic collector off, so it never pays for a collection of the
program's heap.
"""

from __future__ import annotations

import gc
import statistics

from .common import perf

#: Seconds one unit takes at the reference speed: about its median on
#: the 2-core Intel Xeon host the bounds were set on, in a slow stretch
#: (fast stretches run it in about 1.9 ms).  One reference second is
#: therefore about one wall-clock second when that host is slow.
REFERENCE_UNIT_S = 0.0035
#: Measured time between units.
GRAIN_S = 0.015
#: Units whose median sets the current speed.
WINDOW = 3

_TAGS = [frozenset({i, (i * 5) % 23, (i * 11) % 29}) for i in range(32)]


class _Cell:
    __slots__ = ("key", "label", "hits", "log")

    def __init__(self, key: str, label: frozenset) -> None:
        self.key = key
        self.label = label
        self.hits = 0
        self.log: list = []

    def admit(self, label: frozenset) -> bool:
        if label <= self.label:
            self.hits += 1
            return True
        self.label = self.label | label
        return False

    def record(self, value: int) -> None:
        log = self.log
        log.append(value)
        if len(log) > 12:
            log.sort()
            del log[6:]


def unit() -> int:
    """One calibration unit: fixed work, about 2-3.5 ms on the host above."""
    table: dict = {}
    payload = bytes(range(256)) * 4
    chunks = []
    acc = 0
    for i in range(1200):
        key = f"/srv/u{i % 13}/f{i % 37}"
        label = _TAGS[i % 32] | _TAGS[(i * 7) % 32]
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, label)
        if cell.admit(label):
            acc += 1
        cell.record((i * 2654435761) & 0xFFFF)
        if i % 3 == 0:
            chunks.append(payload[i % 512:i % 512 + 64])
        if len(chunks) > 16:
            acc += len(b"".join(chunks)) + len(sorted(cell.label))
            chunks = []
    return acc + sum(c.hits for c in table.values())


class HostClock:
    """A clock in reference seconds (see the module docstring).

    ``now()`` is monotonic; ``tick()`` is called between the program's
    steps and runs a calibration unit when one is due."""

    def __init__(self) -> None:
        self.units: list[float] = []
        self._factor = 1.0
        self._base_raw = perf()
        self._base = 0.0
        self.calibrate()

    def now(self) -> float:
        return self._base + (perf() - self._base_raw) * self._factor

    def calibrate(self) -> None:
        """Run one unit now; its time is cut out of the clock."""
        base = self.now()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf()
            unit()
            end = perf()
        finally:
            if enabled:
                gc.enable()
        self.units.append(end - start)
        self._factor = REFERENCE_UNIT_S / statistics.median(self.units[-WINDOW:])
        self._base = base
        self._base_raw = end

    def tick(self) -> None:
        if perf() - self._base_raw >= GRAIN_S:
            self.calibrate()

    def bracket(self, fn):
        """Run ``fn()``, which cannot tick, between WINDOW fresh units on
        each side; returns (its result, its reference seconds at the
        median speed of those units)."""
        for _ in range(WINDOW):
            self.calibrate()
        start = perf()
        result = fn()
        raw = perf() - start
        for _ in range(WINDOW):
            self.calibrate()
        factor = REFERENCE_UNIT_S / statistics.median(self.units[-2 * WINDOW:])
        return result, raw * factor

    def summary(self) -> dict:
        units = self.units
        return {
            "reference_unit_s": REFERENCE_UNIT_S,
            "units": len(units),
            "unit_s_median": statistics.median(units),
            "unit_s_quartiles": statistics.quantiles(units, n=4),
        }


class WallClock:
    """Plain wall-clock seconds with the HostClock interface, for the
    traced run, whose per-layer timings stay raw."""

    now = staticmethod(perf)

    def tick(self) -> None:
        pass
