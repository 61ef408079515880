"""Measurement and reporting helpers shared by the benchmark modules.

The paper's methodology (Section 6): run each experiment multiple times,
take the median (compilation decisions are nondeterministic there; timer
jitter is the issue here), and normalize everything to the unmodified
system.  These helpers reproduce that: :func:`median_seconds` for timing,
:func:`overhead_pct` for normalization, and small fixed-width table
renderers so each benchmark prints rows shaped like the paper's tables.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

DEFAULT_TRIALS = 5


def median_seconds(
    fn: Callable[[], object],
    trials: int = DEFAULT_TRIALS,
    warmup: int = 1,
) -> float:
    """Median wall-clock seconds of ``fn`` over ``trials`` runs.

    A warm-up run (the paper's first iteration "includes compilation")
    precedes measurement, and the collector is quiesced around each timed
    run so allocation-heavy workloads aren't charged for GC debt created
    by a previous one.
    """
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(trials):
        gc.collect()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def overhead_pct(baseline: float, measured: float) -> float:
    """Percentage overhead of ``measured`` relative to ``baseline``."""
    if baseline <= 0:
        raise ValueError("baseline time must be positive")
    return (measured / baseline - 1.0) * 100.0


@dataclass
class Row:
    """One line of a paper-shaped comparison table."""

    name: str
    baseline: float
    measured: float
    paper_pct: float | None = None

    @property
    def pct(self) -> float:
        return overhead_pct(self.baseline, self.measured)


def render_table(
    title: str,
    rows: Sequence[Row],
    baseline_label: str = "vanilla",
    measured_label: str = "laminar",
    unit: str = "s",
) -> str:
    """Fixed-width table: name, baseline, measured, % overhead, and the
    paper's number when supplied — the rows a reader compares against the
    publication."""
    lines = [title, "=" * len(title)]
    header = (
        f"{'benchmark':<18} {baseline_label + ' (' + unit + ')':>14} "
        f"{measured_label + ' (' + unit + ')':>14} {'overhead':>9} {'paper':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        paper = f"{row.paper_pct:5.1f}%" if row.paper_pct is not None else "    --"
        lines.append(
            f"{row.name:<18} {row.baseline:>14.6f} {row.measured:>14.6f} "
            f"{row.pct:>8.1f}% {paper:>7}"
        )
    return "\n".join(lines)


def fastpath_snapshot() -> dict[str, int]:
    """Counter state of every :mod:`repro.core.fastpath` cache layer, for
    embedding in ``BENCH_*.json`` payloads — every published measurement
    records how much of it the caches absorbed."""
    from ..core import fastpath

    return fastpath.counters.snapshot()


def geometric_mean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("no values")
    return statistics.geometric_mean(vals)


def render_breakdown(
    title: str, components: dict[str, float], total: float
) -> str:
    """Render a Fig. 9-style stacked breakdown as percentages of total."""
    lines = [title, "=" * len(title)]
    for name, value in components.items():
        share = 100.0 * value / total if total > 0 else 0.0
        bar = "#" * max(0, int(share / 2))
        lines.append(f"{name:<22} {value:>10.6f}s {share:>6.1f}%  {bar}")
    lines.append(f"{'total':<22} {total:>10.6f}s")
    return "\n".join(lines)
