"""A cooperative scheduler for simulated tasks.

The kernel's syscall layer is synchronous: callers invoke ``sys_*`` and
get an answer.  That is fine for single-task microbenchmarks (lmbench)
but cannot express a *server*: many tasks interleaving, readers blocking
until a writer produces data.  This module adds that layer without
touching the kernel's security semantics.

Task bodies are **generator functions** ``body(task)`` that ``yield``
operation descriptors (built by :func:`syscall`, :func:`read_blocking`,
:func:`recv_blocking`, :func:`submit`, :func:`fork`, :func:`yield_`) and
receive each operation's result via ``gen.send``; a failing syscall is
thrown into the generator as :class:`~repro.osim.task.SyscallError`.
The scheduler is strictly round-robin: one operation per scheduling
step, re-enqueue at the tail.

Blocking without a timing channel
---------------------------------
The delicate part is blocking reads.  Laminar's pipes report a denied
read as an empty read — blocking must not un-do that by making a denied
reader *sleep differently* from an empty-pipe reader.  Two rules keep
the cases observationally identical:

* A reader parks whenever its (hook-mediated) read attempt returned no
  data and the channel is not hung up — **whatever the reason** the
  attempt came back empty.  The scheduler never asks the security module
  anything; it cannot tell a denial from an empty queue.
* A parked reader is woken by the channel's ``version`` counter, which
  writers bump on **every** write attempt and on close, delivered or
  dropped (see :mod:`repro.osim.pipes`).  Wakeups are therefore a
  function of writer *activity* alone.  On wake the reader re-attempts
  the full syscall — same hooks, same counters — and re-parks if it is
  still empty-handed.

A denied reader thus parks, wakes, retries, and re-parks in exactly the
same pattern, with exactly the same syscall and hook counts, as a reader
of a genuinely empty pipe fed by the same writer (regression-tested in
``tests/test_osim_sched.py``).

Wait queues
-----------
Pipes and sockets are :class:`Waitable` channels.  Parking puts the
thread on the channel's :class:`WaitQueue` and stamps it with the
scheduler's next park sequence number.  Each ``version`` bump
(:meth:`Waitable.bump`) — still unconditional, still ahead of the label
verdict — moves every waiter to its scheduler's ready list; a fatal
signal from :meth:`~repro.osim.kernel.Kernel.sys_kill` takes a parked
target the same way.  Before each step the scheduler drains the ready
list onto the run queue in park order, and the run goes on while any
thread is runnable, parked or ready: a bump made in a body's last step
(a direct close, a ``finally`` block's write) still wakes its reader.
That is exactly the set and order of wakeups a rescan of every parked
thread before every step would find, but a step now costs O(1) in the
number of parked threads: a quiet channel is never looked at.  The
wake set is still a function of writer activity alone: apart from a
fatal signal, nothing but a bump moves a thread to the ready list, and
every write attempt and close bumps, whatever the label verdict.

Termination follows the kernel's discipline: a generator finishing (or
being killed) exits the task, which drops fd references but never hangs
up pipes — only an explicit last close of the write end does that — so
the scheduler adds no termination channel either.
"""

from __future__ import annotations

import types
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from ..core import CapabilitySet, LabelPair
from .task import SyscallError, Task

if TYPE_CHECKING:
    from .kernel import Cqe, Kernel, Sqe

#: Signals whose delivery terminates the target at its next scheduling
#: point (the simulator has no handlers; everything else is ignored).
SIGKILL = 9
SIGTERM = 15
_FATAL_SIGNALS = (SIGKILL, SIGTERM)

_park_order = attrgetter("park_seq")

#: Default ceiling on scheduling steps for one :meth:`Scheduler.run`;
#: a backstop against runaway generators in tests and benchmarks.
DEFAULT_MAX_STEPS = 1_000_000


# -- operation descriptors (what task bodies yield) --------------------------


def syscall(name: str, *args: object) -> tuple:
    """One ordinary (non-blocking) system call: ``yield syscall("open",
    "/etc/passwd")`` resumes with the call's return value, or raises the
    call's :class:`SyscallError` inside the generator."""
    return ("syscall", name, args)


def read_blocking(fd: int, count: int = -1) -> tuple:
    """``sys_read`` that parks until data arrives or the channel hangs
    up.  On a regular file this is an ordinary read (files never block).
    On a pipe the task sleeps while the attempt yields ``b""`` and the
    pipe is open, waking on writer activity; a hangup resumes it with
    ``b""``."""
    return ("read_blocking", fd, count)


def recv_blocking(socket: object) -> tuple:
    """``sys_recv`` that parks until a message arrives or an endpoint
    closes; resumes with ``b""`` on hangup."""
    return ("recv_blocking", socket, None)


def submit(sqes: "Sequence[Sqe]") -> tuple:
    """One batched submission (:meth:`Kernel.sys_submit`): the whole
    batch executes in this task's single scheduling step, and the body
    resumes with the list of :class:`Cqe` completions."""
    return ("submit", sqes, None)


def fork(body: Callable[[Task], Generator], caps_subset=None) -> tuple:
    """``sys_fork`` plus scheduling: the child task runs ``body(child)``
    under this scheduler; the parent resumes with the child ``Task``."""
    return ("fork", body, caps_subset)


def yield_() -> tuple:
    """Voluntarily give up the processor for one round."""
    return ("yield", None, None)


class WaitQueue(dict):
    """The threads parked on one channel (a pipe or a socket endpoint),
    in park order.

    A dict of ``thread -> None`` rather than a list, so a fatal signal
    or a scheduler teardown takes one thread out in O(1).  The channel
    owns the queue and empties it on every ``version`` bump
    (:meth:`Waitable.bump`); nothing else ever reads the channel on the
    scheduler's behalf."""

    __slots__ = ()

    def wake_all(self) -> None:
        """Move every waiter to its scheduler's ready list."""
        for thread in self:
            thread.sched._unpark(thread)
        self.clear()


class Waitable:
    """A channel a thread can park on: a pipe or a socket endpoint.

    ``version`` counts activity on the channel.  The channel calls
    :meth:`bump` on every write (or send) attempt and every close, before
    any label check, so which threads wake never depends on a verdict."""

    def __init__(self) -> None:
        self.version = 0
        #: Threads parked on this channel by a :class:`Scheduler`.
        self.wait_queue = WaitQueue()

    def bump(self) -> None:
        """Record activity and wake every parked thread."""
        self.version += 1
        if self.wait_queue:
            self.wait_queue.wake_all()


class _Thread:
    """Scheduler-side state for one running generator."""

    __slots__ = (
        "task",
        "gen",
        "sched",
        "send_value",
        "throw_exc",
        "pending_op",
        "wait_queue",
        "park_seq",
    )

    def __init__(self, task: Task, gen: Generator, sched: "Scheduler") -> None:
        self.task = task
        self.gen = gen
        self.sched = sched
        self.send_value: object = None
        self.throw_exc: Optional[BaseException] = None
        #: A blocking op to re-attempt before advancing the generator
        #: (kept while parked, run again when a bump wakes the thread).
        self.pending_op: Optional[tuple] = None
        #: The channel queue this thread is parked on, if any.
        self.wait_queue: Optional[WaitQueue] = None
        #: The scheduler's park sequence number at the last park; the
        #: ready list drains in this order.
        self.park_seq = 0


def signal_parked(task: Task, signum: int) -> None:
    """Wake ``task``'s parked threads if ``signum`` is fatal.

    :meth:`Kernel.sys_kill` calls this after queueing the signal, so the
    kill is delivered at the thread's next step instead of waiting for
    its channel.  The thread's next step sees the fatal signal before
    anything else, so the abandoned read is never re-attempted."""
    if signum in _FATAL_SIGNALS:
        for thread in list(task.parked):
            thread.sched._dequeue(thread)


class Scheduler:
    """Round-robin cooperative scheduler over one :class:`Kernel`."""

    def __init__(self, kernel: "Kernel", trace: bool = False) -> None:
        self.kernel = kernel
        self._runq: deque[_Thread] = deque()
        #: Parked threads in park order (a dict for O(1) removal).
        self._parked: dict[_Thread, None] = {}
        #: Threads woken since the last drain, in wake order.
        self._ready: list[_Thread] = []
        self._park_seq = 0
        self.steps = 0
        #: Tasks still parked when :meth:`run` gave up (no writer can
        #: ever wake them).  Deliberately *not* an error: a reader of a
        #: never-closed, never-written pipe simply sleeps forever.
        self.stuck: list[Task] = []
        #: Optional event trace ``(event, tid)`` — "run", "park", "wake",
        #: "exit", "killed".  Events record scheduling activity only,
        #: never data or verdicts; the timing-channel regression test
        #: asserts denied and empty readers produce identical traces.
        self.trace: Optional[list[tuple]] = [] if trace else None

    # -- task admission ------------------------------------------------------

    def spawn(
        self,
        body: Callable[[Task], Generator],
        task: Optional[Task] = None,
        *,
        name: str = "",
        labels: LabelPair = LabelPair.EMPTY,
        caps: CapabilitySet = CapabilitySet.EMPTY,
    ) -> Task:
        """Admit ``body(task)`` as a schedulable thread.  Creates a fresh
        kernel task unless one is supplied."""
        if task is None:
            task = self.kernel.spawn_task(
                name or body.__name__, labels=labels, caps=caps
            )
        gen = body(task)
        if not isinstance(gen, types.GeneratorType):
            raise TypeError(f"task body {body!r} must be a generator function")
        self._runq.append(_Thread(task, gen, self))
        return task

    # -- the run loop --------------------------------------------------------

    def run(self, max_steps: int = DEFAULT_MAX_STEPS) -> list[Task]:
        """Drive all admitted threads to completion.

        Returns the list of tasks left permanently parked (usually
        empty).  Raises ``RuntimeError`` if ``max_steps`` scheduling
        steps were not enough — a livelock backstop for tests.
        """
        self.stuck = []
        try:
            while self._runq or self._parked or self._ready:
                self._wake_ready()
                if not self._runq:
                    # Nobody runnable and nobody woke: every parked thread
                    # is waiting on a channel no runnable writer can touch.
                    sleepers = self._unpark_all()
                    self.stuck = [t.task for t in sleepers]
                    for thread in sleepers:
                        thread.gen.close()
                    break
                if self.steps >= max_steps:
                    raise RuntimeError(
                        f"scheduler exceeded {max_steps} steps "
                        f"({len(self._runq)} runnable, {len(self._parked)} parked)"
                    )
                self.steps += 1
                self._step(self._runq.popleft())
        except BaseException as exc:
            # A KernelCrash (simulated power loss, repro.osim.faults) — or
            # any other non-syscall failure — takes the whole machine down:
            # every generator is closed (running their finally blocks, as
            # a real process teardown would not, but leaving them open
            # would leak ResourceWarnings across the sweep's thousands of
            # crashes) and the exception propagates to the harness, which
            # calls Kernel.crash()/remount().  SyscallError never reaches
            # here: _complete routes it into the issuing generator.
            threads = list(self._runq) + self._unpark_all()
            self._runq.clear()
            for thread in threads:
                thread.gen.close()
            raise exc
        return self.stuck

    def _unpark(self, thread: _Thread) -> None:
        """Move a parked thread to the ready list (the caller has taken
        it off its channel's queue, or is about to clear the queue)."""
        del self._parked[thread]
        thread.task.parked.remove(thread)
        thread.wait_queue = None
        self._ready.append(thread)

    def _dequeue(self, thread: _Thread) -> None:
        """Take one parked thread off its channel's queue and unpark it."""
        del thread.wait_queue[thread]
        self._unpark(thread)

    def _unpark_all(self) -> list[_Thread]:
        """Take every parked thread off its wait queue and return it,
        with every woken-but-undrained one, in park order.  Run before
        any generator is closed, so no teardown can leave a channel
        holding a dead thread, and no ``finally`` block's write can wake
        one."""
        for thread in list(self._parked):
            self._dequeue(thread)
        sleepers = sorted(self._ready, key=_park_order)
        self._ready.clear()
        return sleepers

    def _wake_ready(self) -> None:
        """Drain the ready list onto the run queue in park order."""
        ready = self._ready
        if not ready:
            return
        ready.sort(key=_park_order)
        trace = self.trace
        for thread in ready:
            if trace is not None:
                trace.append(("wake", thread.task.tid))
            self._runq.append(thread)
        ready.clear()

    def _step(self, thread: _Thread) -> None:
        task = thread.task
        for signum, _sender in task.pending_signals:
            if signum in _FATAL_SIGNALS:
                thread.gen.close()
                if task.alive:
                    self.kernel.sys_exit(task, 128 + signum)
                if self.trace is not None:
                    self.trace.append(("killed", task.tid))
                return
        if not task.alive:
            # Exited behind our back (e.g. a direct sys_exit from test
            # code); nothing further to run.
            thread.gen.close()
            return
        if self.trace is not None:
            self.trace.append(("run", task.tid))
        if thread.pending_op is not None:
            op, thread.pending_op = thread.pending_op, None
            self._dispatch(thread, op)
            return
        try:
            if thread.throw_exc is not None:
                exc, thread.throw_exc = thread.throw_exc, None
                op = thread.gen.throw(exc)
            else:
                value, thread.send_value = thread.send_value, None
                op = thread.gen.send(value)
        except StopIteration as stop:
            if task.alive:
                code = stop.value if isinstance(stop.value, int) else 0
                self.kernel.sys_exit(task, code)
            if self.trace is not None:
                self.trace.append(("exit", task.tid))
            return
        self._dispatch(thread, op)

    # -- op dispatch ---------------------------------------------------------

    def _dispatch(self, thread: _Thread, op: tuple) -> None:
        kind, a, b = op
        if kind == "read_blocking":
            self._do_read_blocking(thread, op, a, b)
        elif kind == "recv_blocking":
            self._do_recv_blocking(thread, op, a)
        elif kind == "syscall":
            self._do_syscall(thread, a, b)
        elif kind == "submit":
            self._complete(thread, self.kernel.sys_submit, thread.task, a)
        elif kind == "fork":
            self._do_fork(thread, a, b)
        elif kind == "yield":
            self._runq.append(thread)
        else:
            thread.throw_exc = TypeError(f"unknown scheduler op {kind!r}")
            self._runq.append(thread)

    def _complete(self, thread: _Thread, fn, *args) -> object:
        """Run a kernel call, routing the result or error back into the
        generator, and re-enqueue (unless the call ended the task)."""
        try:
            result = fn(*args)
        except SyscallError as exc:
            thread.throw_exc = exc
            result = None
        else:
            thread.send_value = result
        if thread.task.alive:
            self._runq.append(thread)
        else:
            thread.gen.close()
            if self.trace is not None:
                self.trace.append(("exit", thread.task.tid))
        return result

    def _do_syscall(self, thread: _Thread, name: str, args: tuple) -> None:
        fn = getattr(self.kernel, f"sys_{name}", None)
        if fn is None:
            thread.throw_exc = SyscallError(22, f"no such syscall {name!r}")
            self._runq.append(thread)
            return
        self._complete(thread, fn, thread.task, *args)

    def _do_fork(self, thread: _Thread, body, caps_subset) -> None:
        try:
            child = self.kernel.sys_fork(thread.task, caps_subset)
        except SyscallError as exc:
            thread.throw_exc = exc
        else:
            thread.send_value = child
            self._runq.append(_Thread(child, body(child), self))
        self._runq.append(thread)

    def _do_read_blocking(
        self, thread: _Thread, op: tuple, fd: int, count: int
    ) -> None:
        task = thread.task
        try:
            data = self.kernel.sys_read(task, fd, count)
        except SyscallError as exc:
            thread.throw_exc = exc
            self._runq.append(thread)
            return
        pipe = getattr(task.fd_table[fd].inode, "pipe", None)
        if data or pipe is None or pipe.closed:
            thread.send_value = data
            self._runq.append(thread)
        else:
            self._park(thread, op, pipe)

    def _do_recv_blocking(self, thread: _Thread, op: tuple, socket) -> None:
        try:
            data = self.kernel.sys_recv(thread.task, socket)
        except SyscallError as exc:
            thread.throw_exc = exc
            self._runq.append(thread)
            return
        if data or socket.hungup:
            thread.send_value = data
            self._runq.append(thread)
        else:
            self._park(thread, op, socket)

    def _park(self, thread: _Thread, op: tuple, channel) -> None:
        """Put the thread to sleep on ``channel``'s wait queue until the
        channel's ``version`` next moves.  The attempt it just made ran
        the full syscall (hooks and all); on wake it will run the full
        syscall again — parking adds no security-relevant observable."""
        thread.pending_op = op
        thread.wait_queue = queue = channel.wait_queue
        self._park_seq += 1
        thread.park_seq = self._park_seq
        queue[thread] = None
        self._parked[thread] = None
        thread.task.parked.append(thread)
        if self.trace is not None:
            self.trace.append(("park", thread.task.tid))
