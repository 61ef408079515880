"""Scheduler wait queues: parity with a full rescan of the parked
threads, O(1) steps in the number of parked threads, and teardown that
leaves no channel holding a thread of a finished scheduler."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair
from repro.osim import (
    FaultPlan,
    Kernel,
    KernelCrash,
    LaminarSecurityModule,
    SIGKILL,
    SIGTERM,
    Pipe,
    Scheduler,
    SyscallError,
    fork,
    read_blocking,
    recv_blocking,
    submit,
    syscall,
    yield_,
)
from repro.osim.filesystem import File, OpenMode
from repro.osim.kernel import Sqe

_FATAL = (SIGKILL, SIGTERM)
SIGUSR1 = 10


class ScanScheduler(Scheduler):
    """The full-rescan scheduler, kept as the oracle: a park
    records the channel's ``version``, and before every step the whole
    parked list is rescanned for a moved version or a fatal signal."""

    def __init__(self, kernel, trace=False):
        super().__init__(kernel, trace)
        self._parked = []
        self._seen = {}

    def _park(self, thread, op, wait_obj):
        thread.pending_op = op
        self._seen[thread] = (wait_obj, wait_obj.version)
        self._parked.append(thread)
        if self.trace is not None:
            self.trace.append(("park", thread.task.tid))

    def _wake_ready(self):
        still_parked = []
        for thread in self._parked:
            signaled = any(
                signum in _FATAL for signum, _ in thread.task.pending_signals
            )
            wait_obj, seen_version = self._seen[thread]
            if signaled or wait_obj.version != seen_version:
                if self.trace is not None:
                    self.trace.append(("wake", thread.task.tid))
                if signaled:
                    thread.pending_op = None
                del self._seen[thread]
                self._runq.append(thread)
            else:
                still_parked.append(thread)
        self._parked = still_parked

    def _unpark_all(self):
        sleepers, self._parked = self._parked, []
        self._seen.clear()
        return sleepers


# -- differential sweep ------------------------------------------------------

PIPES = 2
SOCKETS = 2  # endpoints of one connected pair

_leaf_op = st.one_of(
    st.tuples(st.just("read"), st.integers(0, PIPES - 1)),
    st.tuples(st.just("poll"), st.integers(0, PIPES - 1)),
    st.tuples(st.just("write"), st.integers(0, PIPES - 1)),
    st.tuples(st.just("close"), st.integers(0, PIPES - 1)),
    st.tuples(st.just("recv"), st.integers(0, SOCKETS - 1)),
    st.tuples(st.just("send"), st.integers(0, SOCKETS - 1)),
    st.tuples(st.just("hangup"), st.integers(0, SOCKETS - 1)),
    st.tuples(st.just("poke"), st.integers(0, PIPES - 1)),
    st.tuples(
        st.just("kill"), st.integers(0, 4), st.sampled_from([SIGKILL, SIGTERM, SIGUSR1])
    ),
    st.tuples(st.just("yield")),
    st.tuples(st.just("batch"), st.integers(0, PIPES - 1)),
)
_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("fork"), st.lists(_leaf_op, max_size=4)),
)
_program = st.fixed_dictionaries(
    {
        # Per task: labeled with the secret tag?  Unlabeled readers of
        # a secret channel are denied; labeled writers to a public one
        # are dropped.
        "secret_tasks": st.lists(st.booleans(), min_size=2, max_size=5),
        "secret_pipes": st.lists(st.booleans(), min_size=PIPES, max_size=PIPES),
        "secret_sockets": st.lists(st.booleans(), min_size=SOCKETS, max_size=SOCKETS),
        # Which tasks hold each pipe's write end (a hangup needs the last
        # holder's close).
        "writers": st.lists(
            st.sets(st.integers(0, 4), max_size=3), min_size=PIPES, max_size=PIPES
        ),
        "ops": st.lists(st.lists(_op, max_size=8), min_size=5, max_size=5),
        # Per task: a pipe its body writes to straight from a ``finally``
        # block, which also runs when a fatal signal closes the body.
        "last_words": st.lists(
            st.one_of(st.none(), st.integers(0, PIPES - 1)), min_size=5, max_size=5
        ),
    }
)


def run_program(program, sched_cls):
    """Build the world for ``program`` on a fresh kernel, run it under
    ``sched_cls`` and return every observable."""
    kernel = Kernel(LaminarSecurityModule())
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "secret")
    secret = LabelPair(Label.of(tag))

    def pick(flag):
        return secret if flag else LabelPair.EMPTY

    n = len(program["secret_tasks"])
    tasks = [
        kernel.spawn_task(f"t{i}", labels=pick(flag))
        for i, flag in enumerate(program["secret_tasks"])
    ]
    setup = kernel.spawn_task("plumber")
    pipes, read_fds, write_fds = [], [], []
    for p, flag in enumerate(program["secret_pipes"]):
        rfd, wfd = kernel.sys_pipe(setup, labels=pick(flag))
        pipes.append(setup.fd_table[rfd].inode.pipe)
        read_fds.append([kernel.share_fd(setup, rfd, t) for t in tasks])
        holders = [i for i in program["writers"][p] if i < n]
        write_fds.append({i: kernel.share_fd(setup, wfd, tasks[i]) for i in holders})
        kernel.sys_close(setup, rfd)
        kernel.sys_close(setup, wfd)
    sockets = [
        kernel.sys_socket(setup, labels=pick(f)) for f in program["secret_sockets"]
    ]
    sockets[0].connect(sockets[1])

    log: list[tuple] = []

    def body_for(index, ops, role, last_words=None):
        def body(task):
            try:
                yield from run_ops(task)
            finally:
                if last_words is not None:
                    pipes[last_words].write(task, b"bye", kernel.security)
                    log.append((role, "bye", last_words))

        def run_ops(task):
            for op in ops:
                kind = op[0]
                try:
                    if kind == "read":
                        result = yield read_blocking(read_fds[op[1]][index])
                    elif kind == "poll":
                        result = yield syscall("read", read_fds[op[1]][index])
                    elif kind == "write":
                        fd = write_fds[op[1]].get(index, 99)
                        result = yield syscall("write", fd, b"m%d" % len(log))
                    elif kind == "close":
                        fd = write_fds[op[1]].get(index, 99)
                        result = yield syscall("close", fd)
                    elif kind == "batch":
                        # One step, both pipes: wakes from two queues
                        # must still drain in park order.
                        first = op[1]
                        cqes = yield submit(
                            [
                                Sqe("write", write_fds[p].get(index, 99), b"b%d" % p)
                                for p in (first, 1 - first)
                            ]
                        )
                        result = [(c.result, c.errno) for c in cqes]
                    elif kind == "recv":
                        result = yield recv_blocking(sockets[op[1]])
                    elif kind == "send":
                        payload = b"s%d" % len(log)
                        result = yield syscall("send", sockets[op[1]], payload)
                    elif kind == "hangup":
                        # A direct call, no yield: a hangup can be the
                        # last thing a body does in its final step.
                        sockets[op[1]].close()
                        result = None
                    elif kind == "poke":
                        # A write straight on the pipe, likewise.
                        result = pipes[op[1]].write(task, b"p", kernel.security)
                    elif kind == "kill":
                        target = tasks[op[1] % n].tid
                        result = yield syscall("kill", target, op[2])
                    elif kind == "fork":
                        result = (yield fork(body_for(index, op[1], role + "c"))).name
                    else:
                        result = yield yield_()
                except SyscallError as exc:
                    result = ("errno", exc.errno)
                log.append((role, kind, result))

        return body

    sched = sched_cls(kernel, trace=True)
    for index, ops in enumerate(program["ops"][:n]):
        body = body_for(index, ops, f"t{index}", program["last_words"][index])
        sched.spawn(body, task=tasks[index])
    stuck = sched.run(max_steps=10_000)
    return {
        "trace": sched.trace,
        "steps": sched.steps,
        "stuck": [t.tid for t in stuck],
        "log": log,
        "audit": _renumber_inodes(kernel.audit.render()),
        "hooks": dict(kernel.security.hook_calls),
        "denials": dict(kernel.security.denials),
        "syscalls": dict(kernel.syscall_counts),
        "queues_empty": not any(c.wait_queue for c in pipes + sockets),
    }


def _renumber_inodes(text):
    """Pipe and socket inodes are numbered process-wide; number them by
    first appearance so two fresh kernels render alike."""
    seen: dict[str, int] = {}
    return re.sub(
        r"ino=(\d+)", lambda m: f"ino={seen.setdefault(m[1], len(seen))}", text
    )


def _cross_queue(wait, wake):
    """t0 parks on channel 1, then t1 on channel 0; t2's one ``wake``
    step bumps channel 0 before channel 1, so the drain must restore
    park order."""
    return {
        "secret_tasks": [False, False, False],
        "secret_pipes": [False, False],
        "secret_sockets": [False, False],
        "writers": [{2}, {2}],
        "ops": [[(wait, 1)], [(wait, 0)], [("yield",), (wake, 0)]],
        "last_words": [None] * 3,
    }


@settings(max_examples=150, deadline=None)
@given(_program)
@example(_cross_queue("read", "batch"))
@example(_cross_queue("recv", "hangup"))
def test_wait_queues_match_full_rescan(program):
    queued = run_program(program, Scheduler)
    scanned = run_program(program, ScanScheduler)
    assert queued == scanned
    assert queued["queues_empty"]


def test_sweep_reaches_parks_kills_and_stuck_readers():
    """A fixed program covering the interesting paths: a denied reader
    and a socket receiver park and wake on writer activity, a parked
    reader is killed, a forked child writes, and one reader is left
    stuck on a quiet pipe."""
    program = {
        "secret_tasks": [False, True, True, False],
        "secret_pipes": [True, False],
        "secret_sockets": [False, False],
        "writers": [{1}, {2}],
        "ops": [
            [("read", 0), ("read", 0)],
            [("write", 0), ("yield",), ("close", 0)],
            [("read", 1), ("recv", 1)],
            [("fork", [("write", 1)]), ("send", 0), ("kill", 2, SIGKILL), ("read", 1)],
            [],
        ],
        "last_words": [None] * 5,
    }
    result = run_program(program, Scheduler)
    assert result == run_program(program, ScanScheduler)
    events = {event for event, _ in result["trace"]}
    assert {"park", "wake", "killed", "exit"} <= events
    assert len(result["stuck"]) == 1
    assert result["denials"]


# -- a bump in a body's final step --------------------------------------------
#
# The bump moves the parked reader to the ready list while the body that
# made it runs no further: the run loop must still drain the reader, not
# stop because nothing is runnable or parked.


@pytest.mark.parametrize("sched_cls", [Scheduler, ScanScheduler])
def test_hangup_in_final_step_wakes_receiver(sched_cls):
    kernel = Kernel(LaminarSecurityModule())
    a = kernel.sys_socket(kernel.init_task)
    b = kernel.sys_socket(kernel.init_task)
    a.connect(b)
    got = []

    def recv_body(task):
        got.append((yield recv_blocking(b)))
        got.append((yield recv_blocking(b)))

    def send_body(task):
        yield syscall("send", a, b"hello")
        yield yield_()
        yield yield_()
        a.close()

    sched = sched_cls(kernel, trace=True)
    receiver = sched.spawn(recv_body)
    sched.spawn(send_body)
    assert sched.run() == []
    assert got == [b"hello", b""]
    # Woken after the sender exits: one step re-attempts the recv, one
    # finishes the body.
    assert sched.trace[-4:] == [
        ("wake", receiver.tid),
        ("run", receiver.tid),
        ("run", receiver.tid),
        ("exit", receiver.tid),
    ]


@pytest.mark.parametrize("sched_cls", [Scheduler, ScanScheduler])
def test_direct_write_in_final_step_wakes_reader(sched_cls):
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)
    got = []

    def read_body(task):
        got.append((yield read_blocking(fds["first"])))

    def write_body(task):
        yield yield_()
        pipe.write(task, b"last", kernel.security)

    sched = sched_cls(kernel, trace=True)
    sched.spawn(read_body, task=first)
    sched.spawn(write_body, task=writer)
    assert sched.run() == []
    assert got == [b"last"]
    assert ("wake", first.tid) in sched.trace


@pytest.mark.parametrize("sched_cls", [Scheduler, ScanScheduler])
def test_finally_write_of_killed_body_wakes_reader(sched_cls):
    """The kill closes the victim's generator in its own step; the
    ``finally`` block's write wakes the reader, and the victim is the
    last thread that ran."""
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)
    got = []

    def read_body(task):
        got.append((yield read_blocking(fds["first"])))

    def killer_body(task):
        kernel.sys_kill(task, writer.tid, SIGKILL)
        return
        yield

    def victim_body(task):
        try:
            while True:
                yield yield_()
        finally:
            pipe.write(task, b"bye", kernel.security)

    sched = sched_cls(kernel, trace=True)
    sched.spawn(read_body, task=first)
    sched.spawn(victim_body, task=writer)
    sched.spawn(killer_body)
    assert sched.run() == []
    assert got == [b"bye"]
    assert ("killed", writer.tid) in sched.trace


# -- complexity ----------------------------------------------------------------


class CountingPipe(Pipe):
    """A pipe that counts how often anything reads its ``version``."""

    def __init__(self, labels=LabelPair.EMPTY):
        self.version_reads = 0
        super().__init__(labels)

    @property
    def version(self):
        self.version_reads += 1
        return self._version

    @version.setter
    def version(self, value):
        self._version = value


def _quiet_readers_and_ping_pong(sched_cls, quiet=1000, rounds=50):
    kernel = Kernel(LaminarSecurityModule())
    sched = sched_cls(kernel)
    pipes = []
    for i in range(quiet):
        pipe = CountingPipe()
        pipes.append(pipe)
        reader = kernel.spawn_task(f"quiet{i}")
        fd = reader.install_fd(File(pipe.inode, OpenMode.READ))
        sched.spawn(lambda task, fd=fd: (yield read_blocking(fd)), task=reader)

    setup = kernel.spawn_task("plumber")
    ping_r, ping_w = kernel.sys_pipe(setup)
    pong_r, pong_w = kernel.sys_pipe(setup)
    a = kernel.spawn_task("a")
    b = kernel.spawn_task("b")
    fds = {
        "a_w": kernel.share_fd(setup, ping_w, a),
        "a_r": kernel.share_fd(setup, pong_r, a),
        "b_r": kernel.share_fd(setup, ping_r, b),
        "b_w": kernel.share_fd(setup, pong_w, b),
    }

    def ping(task):
        # Runs after every quiet reader has taken its first step (and
        # parked): only what follows is counted.
        for pipe in pipes:
            pipe.version_reads = 0
        for i in range(rounds):
            yield syscall("write", fds["a_w"], b"ping")
            assert (yield read_blocking(fds["a_r"])) == b"pong"

    def pong(task):
        for i in range(rounds):
            assert (yield read_blocking(fds["b_r"])) == b"ping"
            yield syscall("write", fds["b_w"], b"pong")

    sched.spawn(ping, task=a)
    sched.spawn(pong, task=b)
    stuck = sched.run()
    return sched, pipes, stuck


def test_quiet_pipes_are_never_looked_at():
    sched, pipes, stuck = _quiet_readers_and_ping_pong(Scheduler)
    assert len(stuck) == len(pipes)
    assert [t.name for t in stuck] == [f"quiet{i}" for i in range(len(pipes))]
    assert sum(p.version_reads for p in pipes) == 0
    assert all(not p.wait_queue for p in pipes)


def test_rescan_oracle_reads_every_quiet_pipe():
    """The probe is sensitive: the full rescan reads each quiet pipe's
    version once per step."""
    sched, pipes, stuck = _quiet_readers_and_ping_pong(ScanScheduler, quiet=50)
    assert len(stuck) == 50
    assert all(p.version_reads >= sched.steps - 50 - 1 for p in pipes)


# -- teardown ------------------------------------------------------------------


def _shared_pipe(kernel):
    """A pipe whose read end two reader tasks hold and whose write end a
    writer holds; the plumber keeps no reference."""
    setup = kernel.spawn_task("plumber")
    rfd, wfd = kernel.sys_pipe(setup)
    first, second, writer = (
        kernel.spawn_task(name) for name in ("first", "second", "writer")
    )
    fds = {
        "first": kernel.share_fd(setup, rfd, first),
        "second": kernel.share_fd(setup, rfd, second),
        "w": kernel.share_fd(setup, wfd, writer),
    }
    kernel.sys_close(setup, rfd)
    kernel.sys_close(setup, wfd)
    pipe = first.fd_table[fds["first"]].inode.pipe
    return pipe, first, second, writer, fds


def _second_run_gets_data(kernel, pipe, first_sched, second, writer, fds):
    """After ``first_sched`` is torn down, a new scheduler on the same
    kernel and pipe parks, is woken by a write and reads it, and the
    write does not reach the torn-down scheduler."""
    assert not pipe.wait_queue
    first_trace = list(first_sched.trace)
    got = []

    def read_body(task):
        got.append((yield read_blocking(fds["second"])))

    def write_body(task):
        yield yield_()
        yield syscall("write", fds["w"], b"after")

    sched = Scheduler(kernel, trace=True)
    sched.spawn(read_body, task=second)
    sched.spawn(write_body, task=writer)
    assert sched.run() == []
    assert got == [b"after"]
    assert ("wake", second.tid) in sched.trace
    assert first_sched.trace == first_trace
    assert not first_sched._ready and not first_sched._parked
    assert not pipe.wait_queue and second.parked == []


def test_stuck_run_leaves_no_waiter_behind():
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)

    def read_body(task):
        yield read_blocking(fds["first"])

    sched = Scheduler(kernel, trace=True)
    sched.spawn(read_body, task=first)
    assert sched.run() == [first]
    assert first.parked == []
    _second_run_gets_data(kernel, pipe, sched, second, writer, fds)


def test_crashed_run_leaves_no_waiter_behind():
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)
    crasher = kernel.spawn_task("crasher")

    def read_body(task):
        yield read_blocking(fds["first"])

    def crash_body(task):
        yield yield_()
        yield submit([Sqe("getpid")])

    kernel.install_faults(FaultPlan.crash_at("submit.boundary", 1))
    sched = Scheduler(kernel, trace=True)
    sched.spawn(read_body, task=first)
    sched.spawn(crash_body, task=crasher)
    with pytest.raises(KernelCrash):
        sched.run()
    kernel.install_faults(None)
    assert first.parked == []
    _second_run_gets_data(kernel, pipe, sched, second, writer, fds)


def test_max_steps_run_leaves_no_waiter_behind():
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)

    def read_body(task):
        yield read_blocking(fds["first"])

    def forever(task):
        while True:
            yield yield_()

    sched = Scheduler(kernel, trace=True)
    sched.spawn(read_body, task=first)
    sched.spawn(forever)
    with pytest.raises(RuntimeError, match="exceeded"):
        sched.run(max_steps=10)
    assert first.parked == []
    _second_run_gets_data(kernel, pipe, sched, second, writer, fds)


def test_kill_takes_reader_off_the_queue_at_once():
    """A fatal signal wakes the parked target through the ready list,
    not by its pipe: the pipe's queue is empty right after the kill."""
    kernel = Kernel(LaminarSecurityModule())
    pipe, first, second, writer, fds = _shared_pipe(kernel)
    seen = []

    def read_body(task):
        yield read_blocking(fds["first"])

    def killer_body(task):
        yield yield_()
        yield syscall("kill", first.tid, SIGUSR1)
        seen.append(len(pipe.wait_queue))
        yield syscall("kill", first.tid, SIGTERM)
        seen.append(len(pipe.wait_queue))

    sched = Scheduler(kernel, trace=True)
    sched.spawn(read_body, task=first)
    sched.spawn(killer_body, task=writer)
    assert sched.run() == []
    assert seen == [1, 0]
    assert ("killed", first.tid) in sched.trace
    assert first.exit_code == 128 + SIGTERM
