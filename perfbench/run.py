"""One end-to-end benchmark for the VM, OS and cluster paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vm-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
untraced; ``--trace 1`` makes a separate traced run and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the seed, the host fingerprint and sample counts.  A
full report (and, for traced runs, the kept spans) goes to
``.perfbench_out/``.  The exit code is 0 only if every output checked
equals its reference; see perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Measured set-ups per run; ``setup_s`` and ``cold_s`` are medians
#: over them.
SESSIONS = 9
#: Reference seconds of warm phase in the unmeasured first session,
#: which takes the process's one-time costs (imports, first calls).
WARMUP_SESSION_S = 0.3


def fix_hash_seed(script: str, argv: list) -> None:
    """Re-execute ``script`` with ``PYTHONHASHSEED=0`` unless it already
    runs so: fixed str/bytes hashing makes dict and set layouts, and the
    speed that depends on them, repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(script).resolve()), *argv], env)


def pin_one_cpu() -> int:
    """Bind this process, and so every worker it forks, to one CPU and
    return it.  The calibration units of perfbench/calib.py measure the
    CPU they run on, and on the shared host the benchmark was sized on
    the two vCPUs change speed independently: spread over both, the
    forked workers ran at a speed no unit saw, and cluster-fork's
    throughput spread by 21% between runs of identical code."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _import_program() -> bool:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    return True


def make_workload(name: str, seed: int):
    from perfbench.cluster_wl import ClusterWorkload
    from perfbench.os_fileserver import OsFileserver
    from perfbench.vm_mix import VmMix

    factories = {
        "vm-mix": lambda: VmMix(seed),
        "os-fileserver": lambda: OsFileserver(seed),
        "cluster-zipf": lambda: ClusterWorkload(seed, "same-process"),
        "cluster-fork": lambda: ClusterWorkload(seed, "multiprocess"),
    }
    return factories[name]()


WORKLOADS = ("vm-mix", "os-fileserver", "cluster-zipf", "cluster-fork")


# ---------------------------------------------------------------- untraced


def measure(wl, seconds: float) -> tuple[dict, dict]:
    """Untraced run of one warm-up session and SESSIONS measured ones.
    Each sets up a fresh world (timed: ``setup_s``), makes a cold pass
    (timed: ``cold_s``), runs one slice of the warm phase and checks its
    outputs.  Fresh sessions bound what the program retains (a cluster
    keeps every response), so no slice pays for the history of the
    previous ones.  Every time is read off a HostClock, in reference
    seconds.  Returns (metrics, info)."""
    from perfbench.calib import HostClock
    from perfbench.common import median, peak_rss_mb, percentile

    clock = HostClock()
    setups: list[float] = []
    colds: list[float] = []
    latencies: list[float] = []
    requests = 0
    instructions = 0.0
    window = 0.0
    for session in range(1 + SESSIONS):
        gc.collect()
        state, setup_s = clock.bracket(wl.setup)
        # Inputs and the booted world are set-up state: keep them out
        # of the collector's scans during the timed phases.
        gc.freeze()
        try:
            cold_s, _ = wl.cold(state, clock)
            warm = wl.warm(
                state, seconds / SESSIONS if session else WARMUP_SESSION_S, clock
            )
            wl.finish(state)
            state = None
        finally:
            if state is not None:
                wl.teardown(state)
            gc.unfreeze()
        if not session:
            continue
        setups.append(setup_s)
        colds.append(cold_s)
        latencies.extend(warm["latencies"])
        requests += warm["requests"]
        instructions += warm["instructions"]
        window += warm["window_s"]
    rss = peak_rss_mb()
    if wl.name == "cluster-fork":
        rss += peak_rss_mb(children=True)
    metrics = {
        "setup_s": (median(setups), "s"),
        "cold_s": (median(colds), "s"),
        "req_per_s": (requests / window, "1/s"),
        "instr_per_s": (instructions / window, "1/s"),
        "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = {
        "setup_samples": setups,
        "cold_samples": colds,
        "latency_samples": len(latencies),
        "p90_ms": percentile(latencies, 90) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "throughput_requests": requests,
        "throughput_window_s": window,
        "clock": clock.summary(),
    }
    return metrics, info


# ------------------------------------------------------------------ traced


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _counter_delta(after: dict, before: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def traced(wl, seconds: float) -> tuple[dict, dict]:
    """Traced run: exact counts from a cold pass, an untraced baseline
    phase, then the same phase with every layer wrapped."""
    from perfbench import layers
    from perfbench.calib import WallClock
    from perfbench.common import percentile, perf
    from perfbench.trace import Patcher, Tracer
    from repro.core import fastpath

    half = seconds / 2.0
    clock = WallClock()
    is_cluster = wl.name.startswith("cluster-")

    # Session A: exact counts over a fixed cold pass.
    state = wl.setup()
    try:
        _, counts = wl.cold(state, clock)
        counts.update(wl.finish(state))
        state = None
    finally:
        if state is not None:
            wl.teardown(state)

    # Session B: the untraced baseline of the traced phase.
    # vm-mix's warm phase runs the programs its cold pass compiles; the
    # other workloads start their phase right after set-up, in B and C.
    state = wl.setup()
    try:
        if wl.name == "vm-mix":
            wl.cold(state, clock)
        if is_cluster:
            base = wl.closed_only(state, half, clock)
            opened = wl.open_loop(state, half)
            loadgen = {
                "backlog_max": max(state["waves"], default=0),
                "wave_mean": sum(state["waves"]) / max(1, len(state["waves"])),
                "late_ms": 1e3 * sorted(state["late"])[len(state["late"]) // 2]
                if state["late"] else 0.0,
                "open_requests": opened["requests"],
            }
            tail = opened["latencies"]
        else:
            base = wl.warm(state, half, clock, warmup=False)
            loadgen = None
            tail = base["latencies"]
        wl.finish(state)
        state = None
    finally:
        if state is not None:
            wl.teardown(state)

    # Session C: session B's steps, traced.  vm-mix's cold pass is traced
    # for the compile-step metrics, then the aggregates restart.
    tracer = Tracer()
    patcher = Patcher()
    dump_dir = str(OUT_DIR / "workers")
    for stale in glob.glob(os.path.join(dump_dir, "worker-*.json")):
        os.unlink(stale)
    state = None
    compile_agg: dict = {}
    try:
        if wl.name == "vm-mix":
            layers.install_vm(patcher, tracer)
            state = wl.setup()
            tracer.reset()
            wl.cold(state, clock)
            compile_agg = {k: list(v) for k, v in tracer.agg.items()}
        elif wl.name == "os-fileserver":
            state = wl.setup()
            layers.install_os(patcher, tracer)
            layers.instrument_kernel(patcher, tracer, state["kernel"])
        else:
            layers.install_cluster(patcher, tracer, dump_dir)
            state = wl.setup()
        tracer.reset()
        fp_before = fastpath.counters.snapshot()
        verdicts = tracer.file_permission_verdicts()
        tracer.watch_gc()
        start = perf()
        if is_cluster:
            phase = wl.closed_only(state, half, clock)
        else:
            phase = wl.warm(state, half, clock, warmup=False)
        elapsed = perf() - start
        tracer.unwatch_gc()
        tracer.counts["kernel.file_permission_verdicts"] += (
            tracer.file_permission_verdicts() - verdicts
        )
        fp = _counter_delta(fastpath.counters.snapshot(), fp_before)
        top = tracer.top
        patcher.restore()
        finish = wl.finish(state)
        state = None
    finally:
        tracer.unwatch_gc()
        patcher.restore()
        if state is not None:
            wl.teardown(state)
    if wl.name == "cluster-fork":
        for path in glob.glob(os.path.join(dump_dir, "worker-*.json")):
            with open(path, encoding="utf-8") as handle:
                tracer.merge(json.load(handle))
        for key, value in finish["totals"]["fastpath"].items():
            fp[key] = fp.get(key, 0) + value
    tracer.write(str(OUT_DIR / f"trace-{wl.name}-{wl.seed}.json"))

    requests = max(1, phase["requests"])
    base_per_request = base["elapsed_s"] / max(1, base["requests"])
    traced_per_request = elapsed / requests
    core = counts.get("core", {})
    agg_self = tracer.self_s
    metric: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metric[name] = (float(value), unit)

    def per_req(*names: str) -> float:
        return agg_self(*names) / requests

    def compile_self(*names: str) -> float:
        return sum(compile_agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    put("failed_frac", _ratio(wl.tally.failed, wl.tally.attempted), "frac")
    # jit: one cold pass (fresh compile + first run of every pair).
    put("jit.parse_s", compile_self("jit.parse"), "s")
    put("jit.inline_s", compile_self("jit.inline"), "s")
    put("jit.barrier_insert_s", compile_self("jit.barrier_insert"), "s")
    put("jit.barrier_elim_s", compile_self("jit.barrier_elim"), "s")
    put("jit.compile_other_s", compile_self("jit.compile"), "s")
    put("jit.compile_s", compile_agg.get("jit.compile", (0, 0.0, 0.0))[1], "s")
    put("jit.tier2.codegen_s", compile_self("jit.tier2.codegen"), "s")
    for name in ("jit.machine_ops", "jit.barriers_final", "jit.executed",
                 "jit.tier2.compiles", "jit.tier2.entries", "jit.tier2.deopts",
                 "jit.tier2.osr_entries", "runtime.barrier_checks",
                 "runtime.dynamic_dispatches", "runtime.region_entries"):
        put(name, counts.get(name, 0), "count")
    put("jit.exec_s", per_req("jit.exec"), "s/req")
    put("runtime.region_s", per_req("runtime.region"), "s/req")
    # core: counters over the cold pass (counts) and traced phase (ratios).
    put("core.intern_hit_ratio",
        _ratio(fp.get("intern_hits", 0),
               fp.get("intern_hits", 0) + fp.get("intern_misses", 0)), "ratio")
    put("core.verdict_hit_ratio",
        _ratio(fp.get("verdict_hits", 0),
               fp.get("verdict_hits", 0) + fp.get("verdict_misses", 0)), "ratio")
    put("core.set_ops", core.get("set_ops", 0), "count")
    put("core.rule_evaluations", core.get("rule_evaluations", 0), "count")
    # kernel, LSM, hook chains, filesystem.
    put("kernel.syscall_s", per_req("kernel.syscall"), "s/req")
    put("kernel.syscalls", counts.get("kernel.syscalls", 0), "count")
    put("kernel.walk_hit_ratio",
        _ratio(fp.get("walk_hits", 0),
               fp.get("walk_hits", 0) + fp.get("walk_misses", 0)), "ratio")
    hook_names = [f"lsm.hook.{h}" for h in layers.LSM_HOOKS]
    # File-permission verdicts outside baked fd chains: the submit memo
    # replays the rest of those that never reached the hook.
    evaluated = tracer.calls("lsm.hook.file_permission")
    memo_lookups = tracer.counts.get(
        "kernel.file_permission_verdicts", 0
    ) - tracer.counts.get("hookchain.fd_hits", 0)
    put("kernel.memo_hit_ratio", _ratio(memo_lookups - evaluated, memo_lookups),
        "ratio")
    put("kernel.simulated_iters", counts.get("kernel.simulated_iters", 0), "count")
    put("lsm.hook_s", per_req(*hook_names), "s/req")
    put("lsm.hook_calls", counts.get("lsm.hook_calls", 0), "count")
    put("lsm.denials", counts.get("lsm.denials", 0), "count")
    put("hookchain.hit_ratio",
        _ratio(fp.get("hookchain_hits", 0), tracer.counts.get("hookchain.lookups", 0)),
        "ratio")
    put("hookchain.deopts", core.get("hookchain_deopts", 0), "count")
    put("fs.s", per_req("fs"), "s/req")
    put("fs.openmode_s", per_req("fs.openmode"), "s/req")
    put("sched.self_s", per_req("sched"), "s/req")
    put("sched.steps", counts.get("sched.steps", 0), "count")
    put("sched.parks", tracer.counts.get("sched.parks", 0) / requests, "1/req")
    put("pipes.s", per_req("pipes"), "s/req")
    put("audit.s", per_req("audit"), "s/req")
    put("audit.entries", counts.get("audit.entries", 0), "count")
    # cluster: router, wire, shard server, executor, load generator.
    put("router.route_s", per_req("router.route"), "s/req")
    put("router.routing_errors", tracer.counts.get("router.routing_errors", 0),
        "count")
    put("wire.encode_s", per_req("wire.encode"), "s/req")
    put("wire.decode_s", per_req("wire.decode"), "s/req")
    put("wire.bytes_per_req", counts.get("wire.bytes_per_req", 0), "B/req")
    put("wire.frames", counts.get("wire.frames", 0), "count")
    value_hits = tracer.counts.get("wire.value_dict.hits", 0) + tracer.counts.get(
        "wire.batch_memo.hits", 0
    )
    put("wire.value_dict_hit_ratio",
        _ratio(value_hits, value_hits + tracer.counts.get("wire.value_dict.misses", 0)),
        "ratio")
    put("wire.label_dict_hit_ratio",
        _ratio(fp.get("label_dict_hits", 0),
               fp.get("label_dict_hits", 0) + fp.get("label_dict_misses", 0)),
        "ratio")
    put("shard.execute_s", per_req("shard.execute", "shard.handle"), "s/req")
    put("shard.replication_s", per_req("shard.replication"), "s/req")
    put("cluster.transport_wait_s", per_req("cluster.submit_wave"), "s/req")
    put("cluster.dispatch_s", per_req("cluster.run_trace", "cluster.replicate"), "s/req")
    put("loadgen.backlog_max", loadgen["backlog_max"] if loadgen else 0, "count")
    put("loadgen.wave_mean", loadgen["wave_mean"] if loadgen else 0, "req")
    put("loadgen.late_ms", loadgen["late_ms"] if loadgen else 0, "ms")
    put("tail.p90_ms", percentile(tail, 90) * 1e3, "ms")
    put("tail.p99_ms", percentile(tail, 99) * 1e3, "ms")
    put("py.gc_s", tracer.gc_s / requests, "s/req")
    put("py.gc_collections", tracer.gc_collections / requests, "1/req")
    put("trace.unattributed_frac", max(0.0, 1.0 - top / elapsed) if elapsed else 0.0,
        "frac")
    put("trace.overhead_frac",
        traced_per_request / base_per_request - 1.0 if base_per_request else 0.0,
        "frac")
    info = {
        "traced_requests": phase["requests"],
        "baseline_requests": base["requests"],
        "exact_counts": {k: v for k, v in counts.items() if k not in ("core", "totals")},
    }
    return metric, info


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    fix_hash_seed(__file__, sys.argv[1:] if argv is None else argv)
    cpu = pin_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_program():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.common import host_fingerprint

    wl = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            metrics, info = traced(wl, args.seconds)
        else:
            metrics, info = measure(wl, args.seconds)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} raised; no result", file=sys.stderr)
        return 1
    tally = wl.tally
    correct = tally.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "cpu": cpu,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "failures": tally.examples,
        **info,
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report_path.write_text(json.dumps({**report, **result}, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    if not correct:
        print(f"perfbench: {tally.failed} of {tally.attempted} operations "
              f"differ from the reference: {tally.examples}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
