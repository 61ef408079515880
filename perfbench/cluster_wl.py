"""cluster-zipf and cluster-fork: routed requests over four kernel shards.

The trace is ``build_trace`` over a 10^6-user ``UserWorld`` (16
gateways, 32 hot keys): Zipf keys, ``write_fraction`` 0.1 and
``tainted_fraction`` 0.3, routed over four shards with the mixed
``edge,shuffle,central`` topology and the binary wire.  cluster-zipf
runs every shard in this process; cluster-fork runs them in two forked
workers (``nproc`` = 2; bound with the parent to one CPU, see
``run.pin_one_cpu``), the only workload that crosses a process
boundary.  Kernels defer their simulated work (``defer_work=True``,
``work_ns=0``): it is counted, never burned or slept off.

Every REPLICATE_EVERY requests the coordinator allocates a fresh tag,
ships it with ``sync_tags`` and grants every gateway capabilities for
it with ``sync_caps``.  Capabilities never decide a read or write, so
every request's outcome is unchanged and ``replay_single`` stays the
reference; the syncs still invalidate submit memos and push label
pairs through lamwire's label dictionary.

A warm slice is a closed loop: 16 requests per wave, the next wave
issued when the previous completes.  It gives ``req_per_s`` and the
latency of each wave, issue to completion.  The traced run adds an
open-loop phase at one fixed Poisson rate for the load-generator and
tail metrics (the load generator puts every request already due into
one ``run_trace`` wave, so a backlog becomes larger waves, and each
latency counts from the request's due time).
"""

from __future__ import annotations

import bisect
import gc
import time

from .common import Tally, perf

GATEWAYS = 16
KEYS = 32
SHARDS = 4
TOPOLOGY = "edge,shuffle,central"
USERS = 10**6
WRITE_FRACTION = 0.1
TAINTED_FRACTION = 0.3
CLOSED_WAVE = 16
REPLICATE_EVERY = 1024
COLD_REQUESTS = 2048
#: Generated trace length; the load generator wraps around when it runs out.
TRACE = 20_000
WARMUP_SHARE = 0.1
#: The open-loop generator spins through the last SPIN_S before a due time.
SPIN_S = 0.0002
#: Open-loop rate of the traced run (requests/s): about 10% of the
#: closed-loop capacity measured at the commit that introduced this
#: benchmark, on a 2-core Intel Xeon host under CPython 3.11.  Higher
#: rates turn the host's slow windows into backlogs (see
#: perfbench/README.md).
RATES = {"same-process": 2000.0, "multiprocess": 2000.0}


class ClusterWorkload:
    def __init__(self, seed: int, executor: str) -> None:
        self.seed = seed
        self.executor = executor
        self.name = "cluster-zipf" if executor == "same-process" else "cluster-fork"
        self.rate = RATES[executor]
        self.tally = Tally()

    # -- sessions -----------------------------------------------------------

    def setup(self):
        """Trace generation, coordinator state, shard boot (and, for
        cluster-fork, the worker fork)."""
        from repro.bench.loadgen import UserWorld, build_trace, open_loop_arrivals
        from repro.osim import Cluster, ShardSpec, boot_shard

        world = UserWorld(gateways=GATEWAYS, keys=KEYS)
        trace = build_trace(
            world,
            TRACE,
            users=USERS,
            seed=self.seed,
            write_fraction=WRITE_FRACTION,
            tainted_fraction=TAINTED_FRACTION,
        )
        arrivals = open_loop_arrivals(TRACE, self.rate, seed=self.seed)
        # The coordinator's view of the tag namespace: a shard image's
        # allocator, so its epochs line up with every shard's.
        coordinator = boot_shard(world, ShardSpec(0, "edge")).kernel.tags
        # Freeze before a fork: a forked worker's collector would
        # otherwise scan, and so copy on write, the whole inherited heap
        # at some unpredictable point of its first requests.
        gc.freeze()
        cluster = Cluster(
            world,
            shards=SHARDS,
            topology=TOPOLOGY,
            executor=self.executor,
            workers=2 if self.executor == "multiprocess" else None,
            defer_work=True,
            work_ns=0.0,
            seed=self.seed,
            wire="binary",
        )
        return {
            "world": world,
            "trace": trace,
            "arrivals": arrivals,
            "coordinator": coordinator,
            "cluster": cluster,
            "executed": [],
            "since_sync": 0,
            "syncs": 0,
            "waves": [],
            "late": [],
        }

    def _next(self, state, count: int) -> list:
        trace = state["trace"]
        start = len(state["executed"])
        return [trace[(start + i) % len(trace)] for i in range(count)]

    def _dispatch(self, state, requests: list) -> None:
        from repro.osim.cluster import RoutingError

        try:
            state["cluster"].run_trace(requests)
        except RoutingError as exc:
            self.tally.fail(f"routing error: {exc}", len(requests))
            raise
        state["executed"].extend(requests)
        state["since_sync"] += len(requests)
        if state["since_sync"] >= REPLICATE_EVERY:
            state["since_sync"] = 0
            self._replicate(state)

    def _replicate(self, state) -> None:
        from repro.core import CapabilitySet, LabelPair

        cluster = state["cluster"]
        state["syncs"] += 1
        tag = state["coordinator"].alloc(f"fresh{state['syncs']}")
        acks = cluster.sync_tags(state["coordinator"])
        self.tally.check(all(a.applied for a in acks), "TagSync not applied")
        caps = CapabilitySet.dual(tag)
        acks = cluster.sync_caps(
            (f"gw{g}", LabelPair.EMPTY, caps) for g in range(GATEWAYS)
        )
        self.tally.check(all(a.applied for a in acks), "CapSync not applied")

    def _closed(self, state, seconds: float, clock, warmup: bool) -> dict:
        start = clock.now()
        deadline = start + seconds
        measure_from = start + (seconds * WARMUP_SHARE if warmup else 0.0)
        done = 0
        window = None
        end = start
        waves: list[float] = []
        while end < deadline:
            wave = self._next(state, CLOSED_WAVE)
            clock.tick()
            t0 = clock.now()
            self._dispatch(state, wave)
            end = clock.now()
            if t0 >= measure_from:
                if window is None:
                    window = t0
                done += len(wave)
                waves.append(end - t0)
        return {
            "requests": done,
            "wave_latencies": waves,
            "window_s": end - (window if window is not None else end),
        }

    def open_loop(self, state, seconds: float) -> dict:
        """The traced run's open loop, in wall-clock seconds; the cyclic
        collector pauses for the phase (see perfbench/README.md) and
        collects right after it."""
        gc.disable()
        try:
            return self._drive_open_loop(state, seconds)
        finally:
            gc.enable()
            gc.collect()

    def _drive_open_loop(self, state, seconds: float) -> dict:
        arrivals = state["arrivals"]
        base = len(state["executed"])
        latencies: list[float] = []
        start = perf()
        index = 0
        limit = len(arrivals)
        while index < limit:
            now = perf() - start
            if now >= seconds:
                break
            due = arrivals[index]
            if due > now:
                # Sleep to just before the due time, then spin: a wake-up
                # from sleep lands tens of microseconds late, which
                # would count as latency.
                if due - now > SPIN_S:
                    time.sleep(min(due - now - SPIN_S, seconds - now))
                continue
            upto = bisect.bisect_right(arrivals, now, index, limit)
            state["late"].append(now - due)
            state["waves"].append(upto - index)
            trace = state["trace"]
            wave = [
                trace[(base + k) % len(trace)] for k in range(index, upto)
            ]
            self._dispatch(state, wave)
            finished = perf() - start
            latencies.extend(finished - arrivals[k] for k in range(index, upto))
            index = upto
        return {"latencies": latencies, "requests": index}

    def cold(self, state, clock) -> tuple[float, dict]:
        """COLD_REQUESTS in closed-loop waves on freshly booted shards,
        from cleared fast-path caches.  Returns (seconds on ``clock``,
        counts); the counts are completed by :meth:`finish`."""
        from repro.core import fastpath

        fastpath.clear_caches()
        fastpath.counters.reset()
        elapsed = 0.0
        for _ in range(COLD_REQUESTS // CLOSED_WAVE):
            wave = self._next(state, CLOSED_WAVE)
            clock.tick()
            start = clock.now()
            self._dispatch(state, wave)
            elapsed += clock.now() - start
        return elapsed, {}

    def warm(self, state, seconds: float, clock, warmup: bool = True) -> dict:
        closed = self._closed(state, seconds, clock, warmup)
        return {
            "latencies": closed["wave_latencies"],
            "window_s": closed["window_s"],
            "requests": closed["requests"],
            "instructions": closed["requests"] * self._syscalls_per_request(state),
        }

    def closed_only(self, state, seconds: float, clock) -> dict:
        """The traced run's phase: closed loop only, no warm-up."""
        start = clock.now()
        closed = self._closed(state, seconds, clock, warmup=False)
        return {"requests": closed["requests"], "elapsed_s": clock.now() - start}

    @staticmethod
    def _syscalls_per_request(state) -> float:
        """Kernel syscalls per request of the executed trace: one submit
        plus one per batch entry."""
        executed = state["executed"]
        return sum(1 + len(r.sqes) for r in executed) / max(1, len(executed))

    def finish(self, state) -> dict:
        """Check every executed request against ``replay_single``, shut
        the cluster down and return exact counts for the session."""
        from repro.core import fastpath
        from repro.osim import ShardSpec, boot_shard, render_audit, replay_single

        cluster = state["cluster"]
        executed = state["executed"]
        wire_bytes = fastpath.counters.bytes_on_wire
        frames = fastpath.counters.frames
        try:
            single, reference = replay_single(state["world"], executed)
            responses = sorted(cluster.responses, key=lambda r: r.seq)
            self.tally.check(
                len(responses) == len(reference),
                f"{len(responses)} completions for {len(reference)} requests",
            )
            for got, want in zip(responses, reference):
                self.tally.check(
                    got.cqes == want.cqes,
                    f"request {got.seq}: {got.cqes!r} != {want.cqes!r}",
                )
            audit = cluster.merged_audit()
            self.tally.check(
                audit == render_audit(single.kernel.audit),
                "merged audit differs from the single-kernel replay",
            )
            traffic = cluster.merged_traffic()
            ref_traffic = single.kernel.net.transmitted
            self.tally.check(
                list(traffic) == list(ref_traffic)
                and traffic.total_messages == ref_traffic.total_messages,
                "merged traffic differs from the single-kernel replay",
            )
        finally:
            totals = cluster.aggregate()  # shuts the executor down
            gc.unfreeze()  # undo the pre-fork freeze of setup()
        if self.executor == "multiprocess":
            for report in cluster.shutdown():
                wire_bytes += report.fastpath_counters.get("bytes_on_wire", 0)
                frames += report.fastpath_counters.get("frames", 0)
        boot = boot_shard(state["world"], ShardSpec(0, "edge")).kernel
        return {
            "kernel.syscalls": sum(totals["syscalls"].values())
            - SHARDS * sum(boot.syscall_counts.values()),
            "lsm.hook_calls": sum(totals["hooks"].values())
            - SHARDS * sum(boot.security.hook_calls.values()),
            "lsm.denials": sum(totals["denials"].values()),
            "kernel.simulated_iters": totals["deferred_work"],
            "audit.entries": len(audit),
            "wire.bytes_per_req": wire_bytes / max(1, len(executed)),
            "wire.frames": frames,
            "requests": len(executed),
            "totals": totals,
        }

    def teardown(self, state) -> None:
        cluster = state.get("cluster")
        if cluster is not None:
            cluster.shutdown()
        state.clear()
        gc.unfreeze()  # undo the pre-fork freeze of setup()
