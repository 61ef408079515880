"""vm-mix: IR programs through compile, both execution tiers and barriers.

The program set is every Fig. 8 loop plus ``txnmix`` (STATIC barriers)
and the ``gradesheet``/``battleship`` region slices (DYNAMIC barriers,
compiled with ``inline=False`` so the cross-context call sites that
force tier-2 deopt-and-clone survive).  Sizes are a quarter to a fifth
of the paper-bench defaults so one warm run takes milliseconds and a
run collects enough of them for a p99.  Every program runs on both
tiers users pick: the default handler-table interpreter and
``tier="jit"``.

A request is one run of one (program, tier) pair on a fresh VM, the
work of ``lamc run`` after compilation.  The warm phase issues requests
in rounds; each round visits every pair once in a seed-shuffled order,
so the mix is the same for every seed and only the order varies.
"""

from __future__ import annotations

import random

from .common import Tally

#: name -> (source generator kwargs, config name, compile kwargs)
PROGRAMS = {
    "listsum": ({"n": 400, "reps": 10}, "STATIC", {}),
    "sortbench": ({"n": 100}, "STATIC", {}),
    "treebuild": ({"n": 160}, "STATIC", {}),
    "hashchurn": ({"n": 500}, "STATIC", {}),
    "matmul": ({"n": 11}, "STATIC", {}),
    "objgraph": ({"n": 300, "steps": 4000}, "STATIC", {}),
    "arith": ({"n": 6000}, "STATIC", {}),
    "txnmix": ({"n": 500}, "STATIC", {}),
    "gradesheet": ({"n": 200, "reps": 3}, "DYNAMIC", {"inline": False}),
    "battleship": ({"n": 120, "rounds": 3}, "DYNAMIC", {"inline": False}),
}
TIERS = ("interp", "jit")
#: Share of the warm phase discarded before latencies count.
WARMUP_SHARE = 0.1


def _fresh_vm(program):
    from repro.core import CapabilitySet
    from repro.osim import Kernel, LaminarSecurityModule
    from repro.runtime import LaminarVM

    vm = LaminarVM(Kernel(LaminarSecurityModule()))
    if program.tags:
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
    return vm


def run_program(program):
    """One request: run ``main`` on a fresh VM.  Returns the observables
    compared against the reference and the interpreter."""
    from repro.jit import Interpreter

    vm = _fresh_vm(program)
    interp = Interpreter(program, vm)
    result = interp.run("main")
    return (result, tuple(interp.output)), interp, vm


class VmMix:
    name = "vm-mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()

    # -- sessions -----------------------------------------------------------

    def setup(self):
        """Generate the sources and the reference observables: each
        program compiled in the BASELINE (no-barrier) configuration and
        run once."""
        from repro.bench import workloads
        from repro.jit import Compiler, JITConfig

        sources = {
            name: getattr(workloads, name)(**size)
            for name, (size, _, _) in PROGRAMS.items()
        }
        reference = {}
        for name, source in sources.items():
            kwargs = PROGRAMS[name][2]
            program, _ = Compiler(JITConfig.BASELINE, **kwargs).compile(source)
            reference[name] = run_program(program)[0]
        rng = random.Random(self.seed)
        pairs = [(name, tier) for name in PROGRAMS for tier in TIERS]
        rng.shuffle(pairs)
        return {"sources": sources, "reference": reference, "pairs": pairs,
                "rng": rng, "programs": {}}

    def cold(self, state, clock) -> tuple[float, dict]:
        """Fresh compile plus first run of every (program, tier) pair from
        cleared fast-path caches.  Returns (seconds on ``clock``, exact
        counts)."""
        from repro.core import fastpath
        from repro.jit import Compiler, JITConfig

        fastpath.clear_caches()
        fastpath.counters.reset()
        counts = dict.fromkeys(
            ("jit.executed", "jit.machine_ops", "jit.barriers_final",
             "jit.tier2.compiles", "jit.tier2.entries", "jit.tier2.deopts",
             "jit.tier2.osr_entries", "runtime.barrier_checks",
             "runtime.dynamic_dispatches", "runtime.region_entries"), 0)
        elapsed = 0.0
        for name, tier in state["pairs"]:
            _, config, kwargs = PROGRAMS[name]
            clock.tick()
            start = clock.now()
            program, report = Compiler(
                JITConfig[config], tier=tier, **kwargs
            ).compile(state["sources"][name])
            observed, interp, vm = run_program(program)
            elapsed += clock.now() - start
            self._check(state, name, tier, observed)
            state["programs"][(name, tier)] = program
            counts["jit.executed"] += interp.executed
            counts["jit.machine_ops"] += report.machine_ops
            counts["jit.barriers_final"] += report.barriers_final
            engine = interp._tier2
            if engine is not None:
                counts["jit.tier2.compiles"] += engine.compiles
                counts["jit.tier2.entries"] += engine.entries
                counts["jit.tier2.deopts"] += engine.deopts
                counts["jit.tier2.osr_entries"] += engine.osr_entries
            stats = vm.barriers.stats
            counts["runtime.barrier_checks"] += stats.total
            counts["runtime.dynamic_dispatches"] += stats.dynamic_dispatches
            counts["runtime.region_entries"] += vm.stats.region_entries
        counts["core"] = fastpath.counters.snapshot()
        return elapsed, counts

    def _check(self, state, name, tier, observed) -> bool:
        return self.tally.check(
            observed == state["reference"][name],
            f"{name}/{tier}: {observed!r} != reference "
            f"{state['reference'][name]!r}",
        )

    def warm(self, state, seconds: float, clock, warmup: bool = True) -> dict:
        """Closed loop, one client: rounds of requests until ``seconds``
        pass on ``clock``.  Latencies count after the warm-up share."""
        pairs = list(state["pairs"])
        rng = state["rng"]
        programs = state["programs"]
        latencies: list[float] = []
        executed = 0
        start = clock.now()
        measure_from = start + (seconds * WARMUP_SHARE if warmup else 0.0)
        deadline = start + seconds
        requests = 0
        window = None
        while True:
            for name, tier in pairs:
                clock.tick()
                t0 = clock.now()
                if t0 >= deadline:
                    break
                observed, interp, _ = run_program(programs[(name, tier)])
                t1 = clock.now()
                self._check(state, name, tier, observed)
                requests += 1
                if t0 >= measure_from:
                    if window is None:
                        window = t0
                    latencies.append(t1 - t0)
                    executed += interp.executed
            else:
                rng.shuffle(pairs)
                continue
            break
        end = clock.now()
        return {
            "latencies": latencies,
            "window_s": end - (window if window is not None else end),
            "instructions": executed,
            "requests": len(latencies) if warmup else requests,
            "elapsed_s": end - start,
        }

    def finish(self, state) -> dict:
        """End a session (its checks ran as it went)."""
        self.teardown(state)
        return {}

    def teardown(self, state) -> None:
        state["programs"].clear()
