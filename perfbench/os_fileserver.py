"""os-fileserver: a closed-loop labeled file server in one Scheduler.

Sixteen users, each with a secrecy tag, 32 files labeled with that tag
under ``/tmp/srv/u<i>``, and a client/server task pair carrying the same
label that talks over two labeled pipes.  Each client keeps one request
outstanding, picking a file of its own user by Zipf popularity:

* read (80%): the server opens the file, submits one ``lseek`` plus
  chunked ``read`` batch, closes it and returns the bytes;
* write (12%): the server opens the file ``r+``, overwrites its first
  64 bytes, closes it and acknowledges;
* cross-user probe (8%): the server tries to open another user's file;
  the LSM must deny and audit it.

The 512 (task, path) pairs put hot paths inside the kernel's path-walk
cache, submit memo and hook-chain bake threshold and the long tail
outside them; writes and denials take the same hooks differently from
reads.  Kernels run with ``defer_work=True``: simulated ``SYSCALL_WORK``
accrues as a count and is never burned or slept off.
"""

from __future__ import annotations

import random

from .common import Tally

USERS = 16
FILES = 32
FILE_SIZE = 1024
CHUNK = 256
WRITE_SIZE = 64
P_WRITE = 0.12
P_PROBE = 0.08
ZIPF_S = 1.1
#: Requests per client in a cold pass (512 in all).
COLD_REQUESTS = 32
#: Requests generated per client; streams wrap around when exhausted.
STREAM = 1024
WARMUP_SHARE = 0.1
MAX_STEPS = 10**9


def _path(user: int, index: int) -> str:
    return f"/tmp/srv/u{user}/f{index}"


class OsFileserver:
    name = "os-fileserver"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()

    # -- sessions -----------------------------------------------------------

    def setup(self):
        """Build the world: tags, directories, labeled files and the
        request streams every client replays."""
        from repro.bench.loadgen import ZipfianSampler
        from repro.core import Label, LabelPair
        from repro.osim import Kernel, LaminarSecurityModule

        kernel = Kernel(LaminarSecurityModule())
        kernel.defer_work = True
        admin = kernel.spawn_task("fs-setup")
        kernel.sys_mkdir(admin, "/tmp/srv")
        users = []
        for user in range(USERS):
            rng = random.Random((self.seed << 8) ^ user)
            tag, _caps = kernel.sys_alloc_tag(admin, f"user{user}")
            labels = LabelPair(Label.of(tag))
            kernel.sys_mkdir(admin, f"/tmp/srv/u{user}")
            contents = []
            for index in range(FILES):
                data = rng.randbytes(FILE_SIZE)
                fd = kernel.sys_create_file_labeled(admin, _path(user, index), labels)
                kernel.sys_write(admin, fd, data)
                kernel.sys_close(admin, fd)
                contents.append(data)
            zipf = ZipfianSampler(FILES, s=ZIPF_S, seed=(self.seed << 8) ^ user)
            stream = []
            for _ in range(STREAM):
                roll = rng.random()
                index = zipf.sample()
                if roll < P_PROBE:
                    other = (user + 1 + rng.randrange(USERS - 1)) % USERS
                    stream.append(("X", bytes((ord("X"), other, index))))
                elif roll < P_PROBE + P_WRITE:
                    payload = rng.randbytes(WRITE_SIZE)
                    stream.append(("W", bytes((ord("W"), index)) + payload))
                else:
                    stream.append(("R", bytes((ord("R"), index))))
            users.append({"labels": labels, "contents": contents, "stream": stream,
                          "next": 0})
        kernel.drain_deferred_work()
        return {"kernel": kernel, "admin": admin, "users": users,
                "simulated": 0, "steps": 0}

    def _spawn(self, state, stop, clock):
        """Fresh server/client task pairs and pipes for one phase.
        ``stop(sent)`` tells a client whether to stop issuing."""
        from repro.osim.sched import Scheduler

        kernel = state["kernel"]
        admin = state["admin"]
        sched = Scheduler(kernel)
        records: list[tuple] = []
        probes = [0]
        for user, info in enumerate(state["users"]):
            labels = info["labels"]
            server = kernel.spawn_task(f"server{user}", labels=labels)
            client = kernel.spawn_task(f"client{user}", labels=labels)
            req_r, req_w = kernel.sys_pipe(admin, labels=labels)
            resp_r, resp_w = kernel.sys_pipe(admin, labels=labels)
            fds = (
                kernel.share_fd(admin, req_r, server),
                kernel.share_fd(admin, resp_w, server),
                kernel.share_fd(admin, req_w, client),
                kernel.share_fd(admin, resp_r, client),
            )
            for fd in (req_r, req_w, resp_r, resp_w):
                kernel.sys_close(admin, fd)
            sched.spawn(self._server(user, fds[0], fds[1]), task=server)
            sched.spawn(
                self._client(user, info, fds[2], fds[3], stop, records, probes,
                             clock),
                task=client,
            )
        return sched, records, probes

    def _server(self, user, req_fd, resp_fd):
        from repro.osim.kernel import Sqe
        from repro.osim.sched import read_blocking, submit, syscall
        from repro.osim.task import EACCES, SyscallError

        reads = FILE_SIZE // CHUNK

        def body(task):
            while True:
                request = yield read_blocking(req_fd)
                if not request:
                    break
                kind = request[0]
                try:
                    if kind == ord("R"):
                        fd = yield syscall("open", _path(user, request[1]), "r")
                        batch = [Sqe("lseek", fd, 0)]
                        batch += [Sqe("read", fd, CHUNK) for _ in range(reads)]
                        cqes = yield submit(batch)
                        yield syscall("close", fd)
                        if all(c.ok for c in cqes):
                            reply = b"".join(c.result for c in cqes[1:])
                        else:
                            reply = b"error"
                    elif kind == ord("W"):
                        fd = yield syscall("open", _path(user, request[1]), "r+")
                        yield syscall("write", fd, request[2:])
                        yield syscall("close", fd)
                        reply = b"ok"
                    else:
                        try:
                            fd = yield syscall(
                                "open", _path(request[1], request[2]), "r"
                            )
                        except SyscallError as exc:
                            reply = b"denied" if exc.errno == EACCES else b"error"
                        else:
                            yield syscall("close", fd)
                            reply = b"leaked"
                except SyscallError:
                    reply = b"error"
                yield syscall("write", resp_fd, reply)

        return body

    def _client(self, user, info, req_fd, resp_fd, stop, records, probes, clock):
        from repro.osim.sched import read_blocking, syscall

        tally = self.tally
        stream = info["stream"]
        contents = info["contents"]

        def body(task):
            sent = 0
            while not stop(sent):
                clock.tick()
                kind, message = stream[info["next"] % STREAM]
                info["next"] += 1
                sent += 1
                start = clock.now()
                yield syscall("write", req_fd, message)
                reply = yield read_blocking(resp_fd)
                if kind == "R":
                    ok = reply == contents[message[1]]
                elif kind == "W":
                    ok = reply == b"ok"
                    if ok:
                        index = message[1]
                        contents[index] = message[2:] + contents[index][WRITE_SIZE:]
                else:
                    ok = reply == b"denied"
                    probes[0] += 1
                end = clock.now()
                records.append((start, end))
                if ok:
                    tally.ok()
                else:
                    tally.fail(f"user{user} {kind} request got {reply[:16]!r}")
            yield syscall("close", req_fd)

        return body

    def _run(self, state, stop, clock) -> tuple[list, int, float]:
        """One phase; returns (records, syscalls, seconds on ``clock``)."""
        from repro.core.audit import AuditKind

        kernel = state["kernel"]
        audit_before = len(kernel.audit)
        syscalls = sum(kernel.syscall_counts.values())
        sched, records, probes = self._spawn(state, stop, clock)
        start = clock.now()
        sched.run(max_steps=MAX_STEPS)
        elapsed = clock.now() - start
        state["steps"] += sched.steps
        state["simulated"] += kernel.drain_deferred_work()
        entries = kernel.audit.entries()[audit_before:]
        denials = sum(1 for e in entries if e.kind is AuditKind.DENIAL)
        self.tally.check(
            denials == probes[0] and len(entries) == probes[0] and not sched.stuck,
            f"{probes[0]} probes but {denials} denials in {len(entries)} audit "
            f"entries ({len(sched.stuck)} tasks stuck)",
        )
        return records, sum(kernel.syscall_counts.values()) - syscalls, elapsed

    def cold(self, state, clock) -> tuple[float, dict]:
        """A fixed pass of COLD_REQUESTS per client on the new world, from
        cleared fast-path caches.  Returns (seconds on ``clock``, exact
        counts)."""
        from repro.core import fastpath

        kernel = state["kernel"]
        fastpath.clear_caches()
        fastpath.counters.reset()
        syscalls = sum(kernel.syscall_counts.values())
        hooks = sum(kernel.security.hook_calls.values())
        denials = sum(kernel.security.denials.values())
        audit = len(kernel.audit)
        simulated = state["simulated"]
        steps = state["steps"]
        _, _, elapsed = self._run(state, lambda sent: sent >= COLD_REQUESTS, clock)
        counts = {
            "kernel.syscalls": sum(kernel.syscall_counts.values()) - syscalls,
            "kernel.simulated_iters": state["simulated"] - simulated,
            "lsm.hook_calls": sum(kernel.security.hook_calls.values()) - hooks,
            "lsm.denials": sum(kernel.security.denials.values()) - denials,
            "audit.entries": len(kernel.audit) - audit,
            "sched.steps": state["steps"] - steps,
            "core": fastpath.counters.snapshot(),
        }
        return elapsed, counts

    def warm(self, state, seconds: float, clock, warmup: bool = True) -> dict:
        """Closed loop until ``seconds`` pass on ``clock``; latency runs
        from the client's request write to its verified response read."""
        start = clock.now()
        deadline = start + seconds
        records, syscalls, elapsed = self._run(
            state, lambda sent: clock.now() >= deadline, clock
        )
        measure_from = start + (seconds * WARMUP_SHARE if warmup else 0.0)
        latencies = [e - s for s, e in records if s >= measure_from]
        window = min((s for s, _ in records if s >= measure_from), default=deadline)
        window_end = max((e for _, e in records), default=deadline)
        return {
            "latencies": latencies,
            "window_s": window_end - window,
            "requests": len(latencies),
            "elapsed_s": elapsed,
            "instructions": syscalls * len(latencies) / max(1, len(records)),
        }

    def finish(self, state) -> dict:
        """End a session (its checks ran as it went)."""
        self.teardown(state)
        return {}

    def teardown(self, state) -> None:
        state.clear()
