"""Fast-path caches and counters for the label-check hot path.

The paper's performance story (Section 5.1) rests on labels being
immutable objects that are "freely shared between objects, security
regions, and threads", which makes barrier checks cheap comparisons.
Every fast path built on that fact is plain code, with no switch:

* hash-consed :class:`~repro.core.labels.Label` construction (one
  canonical instance per tag-set, up to ``labels._INTERN_BOUND``) plus
  memoized ``union``/``difference``;
* the bounded flow-verdict cache of :mod:`repro.core.rules`, keyed on
  the four component labels, which every VM barrier and the OS
  security module consult.  It never needs invalidation: labels are
  immutable, so a (source, dest) pair's verdict can never change;
* the interpreter's per-method handler tables (:mod:`repro.jit.interpreter`);
* each kernel's verdict cache of successful LSM walk and
  file-permission checks (:mod:`repro.osim.verdict_cache`).

Every fast path is pure performance: verdicts, audit entries, and
violation counts are identical with caches warm or cold (asserted by
``tests/test_property_fastpath.py``, whose reference arm flushes every
cache before each operation and runs a security module the kernel's
verdict cache never serves).

This module owns the process-wide caches' common flush
(:func:`clear_caches`) and the counters the benchmarks read.  Counters
deliberately distinguish *requested* checks (which the
:class:`~repro.runtime.barriers.BarrierStats` counters keep tracking
unconditionally) from *executed* set algebra — the work the caches
elide (``counters.set_ops``).

The tier-2 template JIT (:mod:`repro.jit.tier2`) is enabled
per-program via ``Compiler(tier="jit")``, but its code cache registers a
:func:`register_cache` hook: every :func:`clear_caches` bumps the tier-2
code epoch, discarding compiled bodies whose baked-in interned label
identities may no longer be canonical.  Its ``tier2_*`` counters live
here so the benchmark snapshots carry them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable


@dataclass
class FastPathCounters:
    """Hit/miss and work counters for every cache layer.

    ``rule_evaluations`` counts entries into the Section 3.2 subset
    rules (``secrecy_allows``/``integrity_allows``); ``subset_tests``
    counts actual frozenset comparisons (identity/emptiness fast paths
    excluded); ``materializations`` counts label tuples actually built
    by ``union``/``difference``/``intersection``.
    """

    rule_evaluations: int = 0
    subset_tests: int = 0
    materializations: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    walk_hits: int = 0
    walk_misses: int = 0
    #: Tier-2 engine traffic (:mod:`repro.jit.tier2`): template
    #: compilations, entries into compiled bodies (call + OSR), entry-guard
    #: misses (deopts), per-context clone compilations, and whole-cache
    #: invalidations from shape/epoch changes.  Surfaced here so every
    #: ``BENCH_*.json`` snapshot carries the per-tier hit/deopt story.
    tier2_compiles: int = 0
    tier2_entries: int = 0
    tier2_osr_entries: int = 0
    tier2_deopts: int = 0
    tier2_clones: int = 0
    tier2_invalidations: int = 0
    #: Kernel verdict cache (:mod:`repro.osim.verdict_cache`): every
    #: replayed walk or file-permission verdict, and every entry dropped
    #: because a checked inode's label identity changed.  ``walk_hits`` /
    #: ``walk_misses`` above count its walk lookups alone.
    hookchain_hits: int = 0
    hookchain_deopts: int = 0
    #: Wire data plane (:mod:`repro.osim.lamwire`): frames encoded and
    #: their total payload bytes (both wire codecs count, so ablations
    #: compare directly), per-connection label-dictionary traffic (a hit
    #: ships a 16-bit id instead of the full label pair and skips
    #: re-interning on the far side; a miss re-sends the definition —
    #: including epoch-forced re-sends after tag-allocator changes), and
    #: waves the adaptive coalescer batched to more than one request.
    bytes_on_wire: int = 0
    frames: int = 0
    label_dict_hits: int = 0
    label_dict_misses: int = 0
    coalesced_waves: int = 0

    @property
    def set_ops(self) -> int:
        """Executed set-algebra operations: the work caching avoids."""
        return self.rule_evaluations + self.subset_tests + self.materializations

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["set_ops"] = self.set_ops
        return out


#: Process-wide counters.  Reset with ``counters.reset()``.
counters = FastPathCounters()

#: Cache-clear callbacks registered by the modules that own caches
#: (labels.py, rules.py).  Registration avoids circular imports.
_cache_clearers: list[Callable[[], None]] = []


def register_cache(clear: Callable[[], None]) -> None:
    """Register a zero-argument callback that empties one cache."""
    _cache_clearers.append(clear)


def clear_caches() -> None:
    """Empty every registered cache (intern table, memos, verdict AVC)."""
    for clear in _cache_clearers:
        clear()
