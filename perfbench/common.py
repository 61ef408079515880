"""Shared helpers: sample statistics, memory, host fingerprint, sessions.

A *session* is one set-up of a workload followed by one cold pass over a
fixed, seed-derived slice of its inputs.  Every run makes several
sessions (``setup_s`` and ``cold_s`` are their medians) and measures the
warm phase on the last one.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time

perf = time.perf_counter


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux).
    With ``children``, the largest waited-for child process instead."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
    }


class Tally:
    """Attempted/failed operation counts, with the first few failure
    descriptions kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, why: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.examples) < 5:
            self.examples.append(why)

    def check(self, condition: bool, why: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(why)
        return condition
