"""The benchmark's own checks.  Run from the repository root::

    python3 perfbench/selftest.py

1. **Exact counts repeat.**  For one seed, two cold passes of every
   workload give identical ``kernel.simulated_iters``, ``kernel.syscalls``,
   ``lsm.hook_calls``, ``audit.entries``, ``jit.executed`` and
   ``wire.bytes_per_req``.
2. **A second seed is correct.**  Every workload runs on seed 2 (seed 1
   is the reference seed) with no failed operation.
3. **Planted regression (must fail).**  A busy loop sized to about 20%
   of os-fileserver's time is wrapped around every
   ``LaminarSecurityModule`` instance's ``file_permission`` from
   outside.  It is a fixed number of loop iterations, not a fixed
   wait, so a change of host speed stretches it like the program.
   Comparing medians against an unwrapped baseline with the bounds in
   BENCHMARK.json must flag ``req_per_s`` on os-fileserver while every
   vm-mix metric stays within its bound: the bounds can see a
   regression, and the workloads isolate the layer.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.calib import HostClock, WallClock  # noqa: E402

EXACT = (
    "kernel.simulated_iters",
    "kernel.syscalls",
    "lsm.hook_calls",
    "audit.entries",
    "jit.executed",
    "wire.bytes_per_req",
)
REFERENCE_SEED = 1
SECOND_SEED = 2
#: Warm seconds per measurement and measurements per arm.
SECONDS = 4.0
TRIALS = 3
PLANTED_SHARE = 0.2


def exact_counts(name: str, seed: int) -> dict:
    wl = run.make_workload(name, seed)
    state = wl.setup()
    try:
        _, counts = wl.cold(state, WallClock())
        counts.update(wl.finish(state))
        state = None
    finally:
        if state is not None:
            wl.teardown(state)
    return {k: counts[k] for k in EXACT if k in counts}


def check_repeatable() -> bool:
    ok = True
    for name in run.WORKLOADS:
        first = exact_counts(name, REFERENCE_SEED)
        second = exact_counts(name, REFERENCE_SEED)
        same = first == second and bool(first)
        ok &= same
        print(f"repeatable  {name:14} {'ok' if same else 'DIFFERS'} {first}"
              + ("" if same else f" vs {second}"))
    return ok


def check_second_seed() -> bool:
    ok = True
    for name in run.WORKLOADS:
        wl = run.make_workload(name, SECOND_SEED)
        run.measure(wl, SECONDS)
        good = wl.tally.failed == 0 and wl.tally.attempted > 0
        ok &= good
        print(f"second seed {name:14} failed {wl.tally.failed} of "
              f"{wl.tally.attempted} {'ok' if good else 'FAILED'}")
    return ok


def loop_seconds(iterations: int = 1_000_000, repeats: int = 5) -> float:
    """Reference seconds per iteration of the planted busy loop."""
    clock = HostClock()
    times = []
    for _ in range(repeats):
        clock.calibrate()
        start = clock.now()
        for _ in range(iterations):
            pass
        times.append(clock.now() - start)
    return statistics.median(times) / iterations


class PlantedDelay:
    """Wrap ``file_permission`` of every LaminarSecurityModule created
    while installed with a busy loop of ``delay`` iterations.  The shim
    is per instance, so the kernel's cacheability checks (which look at
    the class attribute) and therefore its fast paths are unchanged."""

    def __init__(self, delay: int) -> None:
        self.delay = delay
        self.calls = 0
        self._saved = None

    def __enter__(self):
        from repro.osim.lsm import LaminarSecurityModule

        planted = self
        init = LaminarSecurityModule.__init__
        self._saved = init

        def patched_init(module, *args, **kwargs):
            init(module, *args, **kwargs)
            real = module.file_permission

            def file_permission(task, file, mask):
                planted.calls += 1
                for _ in range(planted.delay):
                    pass
                return real(task, file, mask)

            module.file_permission = file_permission

        LaminarSecurityModule.__init__ = patched_init
        return self

    def __exit__(self, *exc) -> None:
        from repro.osim.lsm import LaminarSecurityModule

        LaminarSecurityModule.__init__ = self._saved


def _measure(name: str, delay: int | None) -> dict:
    wl = run.make_workload(name, REFERENCE_SEED)
    if delay is None:
        metrics, _ = run.measure(wl, SECONDS)
    else:
        with PlantedDelay(delay):
            metrics, _ = run.measure(wl, SECONDS)
    if wl.tally.failed:
        raise AssertionError(f"{name}: {wl.tally.examples}")
    return {k: v for k, (v, _) in metrics.items()}


def check_planted_regression() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    # Size the delay from the real file_permission calls per reference
    # second of os-fileserver's warm phase, counted with a zero delay.
    # The planted cost is PLANTED_SHARE of the time *with* the delay, so
    # it adds share / (1 - share) of the original time.
    with PlantedDelay(0) as counter:
        wl = run.make_workload("os-fileserver", REFERENCE_SEED)
        warm = wl.warm
        spent = {"calls": 0, "seconds": 0.0}

        def counted_warm(state, seconds, clock, *args, **kwargs):
            calls, start = counter.calls, clock.now()
            result = warm(state, seconds, clock, *args, **kwargs)
            spent["seconds"] += clock.now() - start
            spent["calls"] += counter.calls - calls
            return result

        wl.warm = counted_warm
        run.measure(wl, SECONDS)
        per_iteration = loop_seconds()
    seconds = (PLANTED_SHARE / (1 - PLANTED_SHARE) * spent["seconds"]
               / max(1, spent["calls"]))
    delay = max(1, round(seconds / per_iteration))
    print(f"planted     {spent['calls']} file_permission calls in "
          f"{spent['seconds']:.1f} s of warm phase; delay {delay} iterations "
          f"({seconds * 1e6:.1f} us) per call")

    verdicts = {}
    for name in ("os-fileserver", "vm-mix"):
        base: list[dict] = []
        slow: list[dict] = []
        for _ in range(TRIALS):  # interleave the arms against drift
            base.append(_measure(name, None))
            slow.append(_measure(name, delay))
        flagged = []
        for metric, (bound, better) in bounds.items():
            if metric == "setup_s":
                continue
            b = statistics.median(r[metric] for r in base)
            s = statistics.median(r[metric] for r in slow)
            worse = (s - b) / b if better == "lower" else (b - s) / b
            if worse > bound:
                flagged.append(metric)
            print(f"planted     {name:14} {metric:12} base {b:12.4f} "
                  f"planted {s:12.4f} worse by {worse:+.3f} (bound {bound})")
        verdicts[name] = flagged
    ok = "req_per_s" in verdicts["os-fileserver"] and not verdicts["vm-mix"]
    print(f"planted     flagged {verdicts} -> {'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    run.fix_hash_seed(__file__, sys.argv[1:])
    run.pin_one_cpu()
    results = {
        "repeatable": check_repeatable(),
        "second_seed": check_second_seed(),
        "planted_regression": check_planted_regression(),
    }
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
