"""Inter-shard RPC: the wire protocol of the sharded multi-kernel cluster.

A cluster deployment (:mod:`repro.osim.cluster`) is N :class:`Kernel`
shards, each booted inside its own worker process, fronted by a
label-aware router.  This module is everything that crosses a process
boundary:

* **Two wire codecs** — the legacy length-prefixed pickle frames
  (:func:`encode_frame` / :func:`decode_frame`), where labels, label
  pairs, and capability sets serialize through their constructor-based
  ``__reduce__`` and *re-intern* on the receiving side, and the binary
  lamwire data plane (:mod:`repro.osim.lamwire`), which eliminates both
  the label bytes and the re-interning via per-connection dictionaries.
  :func:`worker_serve` speaks either, selected by the cluster's
  ``wire=`` mode; pickle stays as the differential-testing fallback.
  The same-process executor routes its messages through the selected
  codec too, so serialization behavior is exercised deterministically in
  tests.
* **The RPC framing is the batch path** — a :class:`ShardRequest` carries
  a tuple of :class:`~repro.osim.kernel.Sqe` and a shard answers with the
  :class:`~repro.osim.kernel.Cqe` list from one ``sys_submit`` call.
  There is no second syscall surface to audit: everything a remote
  client can ask a shard to do is exactly what a local batch could.
* **Replication messages** — :class:`TagSync` (the shared interned-tag
  namespace) and :class:`CapSync` (capability stores / principal
  security fields), both epoch-stamped: a shard rejects any sync frame
  not newer than what it already applied, so re-delivery and reordering
  are harmless, and every applied ``CapSync`` bumps the kernel's
  ``fd_epoch`` and empties its verdict cache, so stale allows can never
  be replayed across replication lag.
* **Deterministic observables** — each :class:`ShardResponse` carries
  the audit-entry and traffic-log *deltas* its request produced, stamped
  with the router-assigned global sequence number.  The cluster merges
  them into an order that is a pure function of the request trace
  (byte-identical to a single-kernel replay), never of worker timing.
"""

from __future__ import annotations

import pickle
import random
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core import fastpath
from .kernel import Cqe, Kernel, Sqe
from .task import EINVAL, SyscallError

if TYPE_CHECKING:
    from .task import Task

#: Frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: Ceiling on a single frame's payload (a corrupt header must not make a
#: receiver try to allocate gigabytes).
MAX_FRAME_PAYLOAD = 1 << 28


def worker_seed(base: int, worker_id: int) -> int:
    """The deterministic per-worker seeding rule (DESIGN.md §15).

    Every forked worker — cluster shard host or parallel-scheduler
    worker — derives its RNG seed as ``crc32("{base}:{worker_id}")``:
    stable across processes and Python hash randomization, distinct per
    worker, and a pure function of the run's base seed and the worker's
    id.  Workers reseed the global ``random`` module with it at entry
    (:func:`seed_worker_rng`), so two runs with the same base seed are
    bit-reproducible regardless of fork timing or host scheduling."""
    return zlib.crc32(f"{base}:{worker_id}".encode())


def seed_worker_rng(base: int, worker_id: int) -> int:
    """Reseed this process's RNGs for worker ``worker_id``; returns the
    derived seed (reported in :class:`WorkerReport` for reproducibility
    audits)."""
    seed = worker_seed(base, worker_id)
    random.seed(seed)
    return seed


def encode_frame(message: object) -> bytes:
    """Serialize one message into a length-prefixed wire frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(f"frame payload of {len(payload)} bytes exceeds cap")
    return HEADER.pack(len(payload)) + payload


def decode_frame(buf: bytes) -> tuple[object, bytes]:
    """Decode one frame from ``buf``; returns ``(message, remainder)`` so
    callers can consume a concatenated stream frame by frame."""
    if len(buf) < HEADER.size:
        raise ValueError("short frame: missing header")
    (length,) = HEADER.unpack_from(buf)
    if length > MAX_FRAME_PAYLOAD:
        raise ValueError(f"frame claims {length} payload bytes, over cap")
    end = HEADER.size + length
    if len(buf) < end:
        raise ValueError(f"truncated frame: want {length} payload bytes")
    return pickle.loads(buf[HEADER.size : end]), buf[end:]


# --------------------------------------------------------------- messages


@dataclass(frozen=True)
class ShardRequest:
    """One routed request: run ``sqes`` as a ``sys_submit`` batch under
    the named principal.  ``seq`` is the router's global sequence number
    — the logical clock every observable merge keys on."""

    seq: int
    principal: str
    sqes: tuple


@dataclass(frozen=True)
class ShardResponse:
    """Completion of one :class:`ShardRequest`.

    ``audit`` holds the request's audit delta as (kind value, subsystem,
    principal, detail) tuples — sequence numbers are assigned at merge
    time.  ``traffic`` holds the request's transmitted-payload delta as
    (stamp-triple, payload) pairs.  ``deferred`` is the simulated-work
    balance the request accrued (``Kernel.defer_work`` mode)."""

    seq: int
    shard_id: int
    cqes: tuple
    audit: tuple = ()
    traffic: tuple = ()
    deferred: int = 0


@dataclass(frozen=True)
class TagSync:
    """Replicate the interned-tag namespace: a
    :meth:`~repro.core.tags.TagAllocator.snapshot` with its epoch."""

    epoch: int
    next_value: int
    entries: tuple


@dataclass(frozen=True)
class CapSync:
    """Replicate principal security fields (labels + capability stores).
    ``principals`` is a tuple of (name, LabelPair, CapabilitySet)."""

    epoch: int
    principals: tuple


@dataclass(frozen=True)
class SyncAck:
    """A shard's answer to a sync frame: whether it applied (``False``
    means the frame was stale under epoch-stamped invalidation)."""

    shard_id: int
    applied: bool
    epoch: int


@dataclass(frozen=True)
class Shutdown:
    """Ask a worker to report and exit."""


@dataclass(frozen=True)
class ShardReport:
    """Final per-shard observables, returned on shutdown."""

    shard_id: int
    syscall_counts: dict
    hook_calls: dict
    denials: dict
    audit_len: int
    replication_epoch: int
    fd_epoch: int


@dataclass(frozen=True)
class WorkerReport:
    """Final per-worker state: the process-wide fastpath counters plus a
    :class:`ShardReport` for every shard the worker hosted."""

    worker_id: int
    fastpath_counters: dict = field(default_factory=dict)
    shards: tuple = ()
    #: The derived per-worker RNG seed (:func:`worker_seed`); 0 when the
    #: hosting executor predates seeding or runs unseeded.
    seed: int = 0


# ------------------------------------------------------------ shard server


class ShardServer:
    """One shard: a booted kernel plus the request/replication handlers.

    The server is executor-agnostic — the same-process executor calls
    :meth:`handle` directly (after a codec round trip), the
    multiprocessing executor calls it from :func:`worker_serve` inside a
    forked worker.

    Parameters
    ----------
    shard_id, tier:
        The shard's identity and trust tier (see
        :data:`repro.osim.cluster.TIER_CAPACITY`).
    kernel:
        The booted kernel.  Its ``shard_id`` is stamped, its traffic log
        tagged with this worker's id, and any simulated work accrued
        during boot is drained (boot cost is not service time).
    tasks:
        principal name -> :class:`Task`, the shard's principal registry.
    work_ns:
        Wall-clock nanoseconds to sleep per deferred simulated-work unit
        after each request (0 disables sleeping — the deterministic test
        mode).  Sleeping in the worker is what lets N workers overlap
        service time the way N machines would.
    mediation:
        ``"laminar"`` (default) runs each request as one ``sys_submit``
        batch under the in-kernel LSM.  ``"flume"`` models the
        distributed Flume baseline: every operation is mediated
        individually by a user-level monitor, paying the monitor hop
        (``FlumeMonitor.MONITOR_HOP_WORK``) and full per-call entry cost
        — no batching amortization.
    """

    def __init__(
        self,
        shard_id: int,
        kernel: Kernel,
        tasks: "dict[str, Task]",
        tier: str = "edge",
        work_ns: float = 0.0,
        mediation: str = "laminar",
    ) -> None:
        if mediation not in ("laminar", "flume"):
            raise ValueError(f"unknown mediation {mediation!r}")
        self.shard_id = shard_id
        self.tier = tier
        self.kernel = kernel
        self.tasks = tasks
        self.work_ns = work_ns
        self.mediation = mediation
        kernel.shard_id = shard_id
        kernel.net.transmitted.worker_id = shard_id
        kernel.drain_deferred_work()

    # -- request execution --------------------------------------------------

    def handle(self, message: object) -> object:
        """Dispatch one decoded message to its handler."""
        if isinstance(message, ShardRequest):
            return self.execute(message)
        if isinstance(message, TagSync):
            applied = self.kernel.tags.apply_snapshot(
                message.epoch, message.next_value, message.entries
            )
            return SyncAck(self.shard_id, applied, self.kernel.tags.epoch)
        if isinstance(message, CapSync):
            applied = self.kernel.apply_replication(message.epoch)
            if applied:
                for name, labels, caps in message.principals:
                    task = self.tasks.get(name)
                    if task is not None:
                        task.security.set_labels_unchecked(labels)
                        task.security.replace_capabilities(caps)
            return SyncAck(self.shard_id, applied, self.kernel.replication_epoch)
        raise ValueError(f"unroutable message {type(message).__name__}")

    def execute(self, request: ShardRequest) -> ShardResponse:
        kernel = self.kernel
        task = self.tasks.get(request.principal)
        log = kernel.net.transmitted
        log.stamp = request.seq
        audit_entries = kernel.audit._entries
        audit_before = len(audit_entries)
        traffic_before = log.total_messages
        if task is None:
            cqes: list[Cqe] = [Cqe("submit", None, EINVAL)]
        else:
            try:
                if self.mediation == "flume":
                    cqes = self._execute_flume(task, request.sqes)
                else:
                    cqes = kernel.sys_submit(task, list(request.sqes))
            except SyscallError as exc:
                cqes = [Cqe("submit", None, exc.errno)]
        audit = tuple(
            (e.kind.value, e.subsystem, e.principal, e.detail)
            for e in audit_entries[audit_before:]
        )
        delta = log.total_messages - traffic_before
        traffic = tuple(log.stamped_tail(delta)) if delta else ()
        deferred = kernel.drain_deferred_work()
        if self.work_ns and deferred:
            time.sleep(deferred * self.work_ns * 1e-9)
        return ShardResponse(
            seq=request.seq,
            shard_id=self.shard_id,
            cqes=tuple(cqes),
            audit=audit,
            traffic=traffic,
            deferred=deferred,
        )

    def _execute_flume(self, task: "Task", sqes: tuple) -> list[Cqe]:
        """The distributed-Flume arm: per-op user-level monitor mediation.
        Every entry pays the monitor round trip and its full standalone
        syscall cost; there is nothing for a batch to amortize."""
        from ..baselines.flume import FlumeMonitor  # deferred: no cycle

        kernel = self.kernel
        hop = FlumeMonitor.MONITOR_HOP_WORK
        cqes: list[Cqe] = []
        for sqe in sqes:
            kernel._extra_work(hop)
            fn = getattr(kernel, f"sys_{sqe.op}", None)
            try:
                if fn is None:
                    raise SyscallError(EINVAL, f"op {sqe.op!r} is not batchable")
                result = fn(task, *sqe.args)
            except SyscallError as exc:
                cqes.append(Cqe(sqe.op, None, exc.errno))
            else:
                cqes.append(Cqe(sqe.op, result, 0))
        return cqes

    def report(self) -> ShardReport:
        kernel = self.kernel
        return ShardReport(
            shard_id=self.shard_id,
            syscall_counts=dict(kernel.syscall_counts),
            hook_calls=dict(kernel.security.hook_calls),
            denials=dict(kernel.security.denials),
            audit_len=len(kernel.audit),
            replication_epoch=kernel.replication_epoch,
            fd_epoch=kernel.fd_epoch,
        )


# ------------------------------------------------------- worker serve loop


def worker_serve(
    conn,
    worker_id: int,
    servers: "dict[int, ShardServer]",
    seed: int = 0,
    wire: str = "pickle",
    codec=None,
) -> None:
    """Serve wire frames on a ``multiprocessing`` connection until a
    :class:`Shutdown` frame (or EOF) arrives.

    Every request frame is a *wave*: a list of ``(shard_id, message)``
    pairs; the reply frame is the list of responses in the same order.
    Waves amortize the IPC round trip the way ``sys_submit`` amortizes
    the user→kernel crossing — the RPC layer makes the same batching
    argument one level up.

    ``wire`` selects the codec (see :func:`repro.osim.lamwire.make_wire`);
    a pre-built ``codec`` wins over ``wire``.  The codec is bound to every
    hosted shard's tag allocator so its label dictionary invalidates when
    replication advances the tag-namespace epoch."""
    if codec is None:
        from .lamwire import make_wire

        codec = make_wire(wire)
    for server in servers.values():
        codec.bind_allocator(server.kernel.tags)
    decode, encode = codec.decode, codec.encode
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        message, _ = decode(frame)
        if isinstance(message, Shutdown):
            report = WorkerReport(
                worker_id=worker_id,
                fastpath_counters=fastpath.counters.snapshot(),
                shards=tuple(
                    servers[sid].report() for sid in sorted(servers)
                ),
                seed=seed,
            )
            conn.send_bytes(encode(report))
            break
        replies = [servers[shard_id].handle(msg) for shard_id, msg in message]
        conn.send_bytes(encode(replies))
    conn.close()
