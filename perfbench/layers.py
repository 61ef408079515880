"""The layer boundaries the traced run wraps, one installer per layer.

Span names are ``<layer>.<what>``; per-layer metrics sum self time over
the span names of one layer.  Class-level wrappers are installed for
the traced phase only and removed afterwards.  LSM hooks, the
filesystem and the hook-chain engine are wrapped per kernel instance:
the kernel decides whether a hook may be cached by checking the hook's
*class* attribute, so an instance-level shim leaves every fast path
exactly as it was.
"""

from __future__ import annotations

import json
import os

from .trace import Patcher, Tracer

#: LSM hooks whose calls are traced (the ones the workloads reach).
LSM_HOOKS = (
    "inode_permission",
    "file_permission",
    "inode_create",
    "inode_unlink",
    "inode_getattr",
    "pipe_write_allowed",
    "pipe_read_allowed",
    "socket_sendmsg",
    "socket_recvmsg",
)


def install_vm(p: Patcher, t: Tracer) -> None:
    """Compiler steps, tier-2 code generation, execution, regions."""
    from repro.jit import compiler, interpreter, tier2
    from repro.osim.kernel import Kernel
    from repro.runtime.regions import SecurityRegion
    from repro.runtime.vm import LaminarVM

    steps = {
        "parse_program": "jit.parse",
        "inline_program": "jit.inline",
        "propagate_copies": "jit.inline",
        "insert_barriers": "jit.barrier_insert",
        "insert_barriers_method": "jit.barrier_insert",
        "eliminate_redundant_barriers": "jit.barrier_elim",
        "eliminate_interprocedural_barriers": "jit.barrier_elim",
        "eliminate_certified_barriers": "jit.barrier_elim",
    }
    # The compiler calls these through its own module globals.
    for attr, span in steps.items():
        p.set(compiler, attr, t.timed(span, getattr(compiler, attr)))
    p.wrap_method(compiler.Compiler, "compile", lambda f: t.timed("jit.compile", f))
    p.wrap_method(tier2._Codegen, "generate", lambda f: t.timed("jit.tier2.codegen", f))
    p.wrap_method(interpreter.Interpreter, "run", lambda f: t.timed("jit.exec", f))
    # A request boots a fresh kernel and VM; keep that out of the residual.
    p.wrap_method(Kernel, "__init__", lambda f: t.timed("kernel.boot", f))
    p.wrap_method(LaminarVM, "__init__", lambda f: t.timed("runtime.boot", f))
    for attr in ("__enter__", "__exit__"):
        p.wrap_method(SecurityRegion, attr, lambda f: t.timed("runtime.region", f))


def install_os(p: Patcher, t: Tracer) -> None:
    """Syscall entry points, open-mode flags, pipes, audit, scheduler."""
    from repro.core.audit import AuditLog
    from repro.osim.filesystem import File, OpenMode
    from repro.osim.kernel import Kernel
    from repro.osim.pipes import Pipe
    from repro.osim.sched import Scheduler

    for attr in list(Kernel.__dict__):
        if attr.startswith("sys_"):
            p.wrap_method(Kernel, attr, lambda f: t.timed("kernel.syscall", f))
    p.wrap_method(OpenMode, "parse", lambda f: t.timed("fs.openmode", f))
    for attr in ("readable", "writable"):
        p.wrap_method(File, attr, lambda f: t.timed("fs.openmode", f))
    for attr in ("read", "write", "close"):
        p.wrap_method(Pipe, attr, lambda f: t.timed("pipes", f))
    p.wrap_method(AuditLog, "record", lambda f: t.timed("audit", f))
    p.wrap_method(Scheduler, "run", lambda f: t.timed("sched", f))
    p.wrap_method(Scheduler, "_park", lambda f: t.counted("sched.parks", f))


def instrument_kernel(p: Patcher, t: Tracer, kernel) -> None:
    """Per-instance shims on one kernel's LSM, filesystem and hook chains."""
    t.kernels.append(kernel)
    security = kernel.security
    for hook in LSM_HOOKS:
        p.wrap_instance(
            security, hook, lambda f, h=hook: t.timed(f"lsm.hook.{h}", f)
        )
    fs = kernel.fs
    for attr in ("resolve", "resolve_parent", "read", "write"):
        p.wrap_instance(fs, attr, lambda f: t.timed("fs", f))
    p.set(fs, "walk_components", t.timed_iter("fs", fs.walk_components))
    p.wrap_instance(
        kernel.hookchain,
        "replay_fd",
        lambda f: t.counted("hookchain.lookups", f, "hookchain.fd_hits"),
    )
    p.wrap_instance(
        kernel.hookchain, "lookup_path", lambda f: t.counted("hookchain.lookups", f)
    )


class CountingDict(dict):
    """A dict whose ``get`` counts hits and misses (the wire codec's
    dictionary lookups go through ``get``)."""

    def __init__(self, data, counts, name: str) -> None:
        super().__init__(data)
        self._counts = counts
        self._hit = name + ".hits"
        self._miss = name + ".misses"

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self._counts[self._hit if value is not None else self._miss] += 1
        return value


def install_cluster(p: Patcher, t: Tracer, worker_dump_dir: str) -> None:
    """Router, executors, wire codec, shard server; every kernel a shard
    boots (also inside forked workers) gets :func:`instrument_kernel`.
    Workers write their aggregates to ``worker_dump_dir`` on exit."""
    from repro.osim import cluster
    from repro.osim.lamwire import BinaryWireCodec
    from repro.osim.rpc import ShardRequest, ShardServer

    install_os(p, t)

    def route(fn):
        timed = t.timed("router.route", fn)

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except cluster.RoutingError:
                t.counts["router.routing_errors"] += 1
                raise

        return wrapper

    p.wrap_method(cluster.LabelAwareRouter, "route", route)
    p.wrap_method(cluster.Cluster, "run_trace", lambda f: t.timed("cluster.run_trace", f))
    for attr in ("sync_tags", "sync_caps"):
        p.wrap_method(cluster.Cluster, attr, lambda f: t.timed("cluster.replicate", f))
    for executor in (cluster.SameProcessExecutor, cluster.MultiprocessExecutor):
        p.wrap_method(executor, "submit_wave", lambda f: t.timed("cluster.submit_wave", f))
    p.wrap_method(BinaryWireCodec, "encode", lambda f: t.timed("wire.encode", f))
    p.wrap_method(BinaryWireCodec, "decode", lambda f: t.timed("wire.decode", f))
    p.wrap_method(ShardServer, "execute", lambda f: t.timed("shard.execute", f))

    def handle(fn):
        request = t.timed("shard.handle", fn)
        replication = t.timed("shard.replication", fn)

        def wrapper(self, message):
            if isinstance(message, ShardRequest):
                return request(self, message)
            return replication(self, message)

        return wrapper

    p.wrap_method(ShardServer, "handle", handle)

    def codec_init(fn):
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            self._evals = CountingDict(self._evals, t.counts, "wire.value_dict")
            self._etid = CountingDict(self._etid, t.counts, "wire.batch_memo")

        return wrapper

    p.wrap_method(BinaryWireCodec, "__init__", codec_init)

    real_boot = cluster.boot_shard

    def boot_shard(*args, **kwargs):
        server = real_boot(*args, **kwargs)
        instrument_kernel(p, t, server.kernel)
        return server

    p.set(cluster, "boot_shard", boot_shard)

    real_serve = cluster.worker_serve

    def worker_serve(conn, worker_id, servers, *args, **kwargs):
        # Runs in a forked worker: count only what this worker serves.
        t.reset()
        verdicts = t.file_permission_verdicts()
        try:
            real_serve(conn, worker_id, servers, *args, **kwargs)
        finally:
            t.counts["kernel.file_permission_verdicts"] += (
                t.file_permission_verdicts() - verdicts
            )
            os.makedirs(worker_dump_dir, exist_ok=True)
            path = os.path.join(worker_dump_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(t.export(), handle)

    p.set(cluster, "worker_serve", worker_serve)
