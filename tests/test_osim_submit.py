"""Batched submission (``sys_submit``), vectored I/O, and their contract:
byte-identical security observables to sequential issue.

The equivalence property is the heart of it: for ANY sequence of
batchable operations, running them through ``sys_submit`` (under any
partition into batches) must produce the same completions, the same
audit log, the same denial counters, the same LSM hook counts, and the
same per-opcode syscall counts (modulo the ``submit`` entries
themselves) as issuing them one by one.  Batching may only change how
much *overhead* is paid, never what any check decides or records.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Label, LabelPair
from repro.osim import (
    Cqe,
    EACCES,
    EBADF,
    EINVAL,
    Kernel,
    LaminarSecurityModule,
    Sqe,
    SyscallError,
)
from repro.osim.filesystem import Inode


def fresh_kernel() -> Kernel:
    """A kernel with a deterministic inode numbering, so stat results and
    audit details are comparable across twin kernels."""
    Inode._ino_counter = itertools.count(1)
    return Kernel(LaminarSecurityModule())


def build_scenario(kernel: Kernel):
    """One task, a plain file, a secrecy-labeled file (reads denied), and
    a pipe — the object mix every generated program runs against."""
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, "s")
    secret = LabelPair(Label.of(tag))
    kernel.sys_mkdir(owner, "/tmp/eq")
    fd = kernel.sys_creat(owner, "/tmp/eq/plain")
    kernel.sys_write(owner, fd, b"0123456789abcdef")
    kernel.sys_close(owner, fd)
    fd = kernel.sys_create_file_labeled(owner, "/tmp/eq/secret", secret)
    kernel.sys_write(owner, fd, b"classified")
    kernel.sys_close(owner, fd)

    actor = kernel.spawn_task("actor")  # unlabeled: reads of secret deny
    plain = kernel.sys_open(actor, "/tmp/eq/plain", "r+")
    hush = kernel.sys_open(actor, "/tmp/eq/secret", "w")  # write-up is legal
    pr, pw = kernel.sys_pipe(actor)
    return actor, {"plain": plain, "hush": hush, "pr": pr, "pw": pw}


def run_sequential(kernel: Kernel, task, ops) -> list[Cqe]:
    """The reference semantics: each op as its own syscall, completions
    recorded exactly as sys_submit records them."""
    cqes = []
    for op, args in ops:
        fn = getattr(kernel, f"sys_{op}", None)
        try:
            if fn is None:
                raise SyscallError(EINVAL, f"op {op!r} is not batchable")
            result = fn(task, *args)
        except SyscallError as exc:
            cqes.append(Cqe(op, None, exc.errno))
        else:
            cqes.append(Cqe(op, result, 0))
    return cqes


def observables(kernel: Kernel) -> dict:
    counts = dict(kernel.syscall_counts)
    counts.pop("submit", None)
    return {
        "audit": [str(e) for e in kernel.audit],
        "denials": dict(kernel.security.denials),
        "hooks": dict(kernel.security.hook_calls),
        "syscalls": counts,
    }


# -- the hypothesis program generator ----------------------------------------

FD_NAMES = ("plain", "hush", "pr", "pw")


def _ops_strategy():
    fd = st.sampled_from(FD_NAMES)
    data = st.sampled_from([b"", b"x", b"hello", b"0" * 32])
    count = st.sampled_from([-1, 0, 1, 7, 64])
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.tuples(fd, count)),
            st.tuples(st.just("write"), st.tuples(fd, data)),
            st.tuples(st.just("lseek"), st.tuples(fd, st.sampled_from([0, 3, 99]))),
            st.tuples(
                st.just("readv"),
                st.tuples(fd, st.lists(count, min_size=1, max_size=3)),
            ),
            st.tuples(
                st.just("writev"),
                st.tuples(fd, st.lists(data, min_size=1, max_size=3)),
            ),
            st.tuples(
                st.just("stat"),
                st.tuples(
                    st.sampled_from(
                        ["/tmp/eq/plain", "/tmp/eq/secret", "/tmp/eq/nope"]
                    )
                ),
            ),
            st.tuples(
                st.just("open"),
                st.tuples(
                    st.sampled_from(["/tmp/eq/plain", "/tmp/eq/new"]),
                    st.sampled_from(["r", "w", "r+"]),
                ),
            ),
            st.tuples(st.just("close"), st.tuples(fd)),
            st.tuples(st.just("unlink"), st.tuples(st.just("/tmp/eq/new"))),
            st.tuples(st.just("frobnicate"), st.tuples()),  # not batchable
        ),
        min_size=1,
        max_size=24,
    )


def _resolve(ops, fds):
    """Replace symbolic fd names with the scenario's real numbers."""
    out = []
    for op, args in ops:
        out.append((op, tuple(fds.get(a, a) if isinstance(a, str) else a for a in args)))
    return out


@settings(max_examples=60, deadline=None)
@given(ops=_ops_strategy(), splits=st.lists(st.integers(1, 6), max_size=8))
def test_batched_equals_sequential(ops, splits):
    """THE equivalence property: same completions, same audit, same
    denials, same hook counts, same syscall counts — under any batch
    partition of any generated program."""
    seq_kernel = fresh_kernel()
    task_a, fds_a = build_scenario(seq_kernel)
    resolved_a = _resolve(ops, fds_a)
    seq_cqes = run_sequential(seq_kernel, task_a, resolved_a)

    bat_kernel = fresh_kernel()
    task_b, fds_b = build_scenario(bat_kernel)
    resolved_b = _resolve(ops, fds_b)
    assert resolved_a == resolved_b  # twin setups really are twins

    bat_cqes: list[Cqe] = []
    remaining = list(resolved_b)
    split_iter = itertools.chain(splits, itertools.repeat(6))
    while remaining:
        size = next(split_iter)
        chunk, remaining = remaining[:size], remaining[size:]
        sqes = [Sqe(op, *args) for op, args in chunk]
        bat_cqes.extend(bat_kernel.sys_submit(task_b, sqes))

    assert bat_cqes == seq_cqes
    assert observables(bat_kernel) == observables(seq_kernel)
    # Data-plane state converged too, not just the security record.
    plain_a = seq_kernel.fs.resolve("/tmp/eq/plain")
    plain_b = bat_kernel.fs.resolve("/tmp/eq/plain")
    assert bytes(plain_a.data) == bytes(plain_b.data)


# -- directed units ----------------------------------------------------------


class TestSubmitBasics:
    def test_error_entry_does_not_abort_batch(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/x", "w+")
        cqes = kernel.sys_submit(
            task,
            [
                Sqe("write", fd, b"ok"),
                Sqe("read", 999),  # EBADF
                Sqe("lseek", fd, 0),
                Sqe("read", fd),
            ],
        )
        assert [c.errno for c in cqes] == [0, EBADF, 0, 0]
        assert cqes[1].result is None
        assert cqes[3].result == b"ok"
        assert cqes[0].ok and not cqes[1].ok

    def test_non_batchable_op_gets_einval(self, kernel):
        task = kernel.spawn_task("t")
        cqes = kernel.sys_submit(
            task, [Sqe("set_task_label"), Sqe("fork"), Sqe("exit")]
        )
        assert [c.errno for c in cqes] == [EINVAL, EINVAL, EINVAL]

    def test_denials_are_never_memoized(self, kernel):
        """Every denied read in a batch hits the full hook path: the
        denial counter and audit log record each one."""
        owner = kernel.spawn_task("owner")
        tag, _ = kernel.sys_alloc_tag(owner, "s")
        fd0 = kernel.sys_create_file_labeled(
            owner, "/tmp/sec", LabelPair(Label.of(tag))
        )
        kernel.sys_close(owner, fd0)
        actor = kernel.spawn_task("actor")
        fd = kernel.sys_open(actor, "/tmp/sec", "w")
        before = len(kernel.audit.denials())
        cqes = kernel.sys_submit(actor, [Sqe("read", fd)] * 4)
        assert [c.errno for c in cqes] == [EACCES] * 4
        assert len(kernel.audit.denials()) == before + 4

    def test_fd_memo_dropped_on_close(self, kernel):
        """A close inside the batch invalidates the fd cache: a later
        entry reusing the number sees the *new* description, and a read
        of the stale number fails."""
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/a", "w+")
        kernel.sys_write(task, fd, b"first")
        cqes = kernel.sys_submit(
            task,
            [
                Sqe("lseek", fd, 0),
                Sqe("read", fd),
                Sqe("close", fd),
                Sqe("read", fd),  # stale: EBADF
                Sqe("open", "/tmp/a", "r"),  # reuses the lowest free fd
                Sqe("read", fd),  # the NEW description, offset 0
            ],
        )
        assert cqes[1].result == b"first"
        assert cqes[3].errno == EBADF
        assert cqes[4].result == fd  # lowest-free-fd reuse
        assert cqes[5].result == b"first"

    def test_batch_charges_less_simulated_work(self, kernel):
        """The point of the exercise: the per-entry work charged inside a
        batch is SYSCALL_WORK minus the entry crossing."""
        assert kernel._batch_work["read"] == (
            kernel.SYSCALL_WORK["read"] - kernel.SYSCALL_ENTRY_WORK
        )
        assert kernel._batch_work["close"] == 0  # mostly crossing cost


class TestVectoredIO:
    def test_readv_scatter(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        kernel.sys_write(task, fd, b"abcdefgh")
        kernel.sys_lseek(task, fd, 0)
        assert kernel.sys_readv(task, fd, [3, 2, 99]) == [b"abc", b"de", b"fgh"]

    def test_writev_gather(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        assert kernel.sys_writev(task, fd, [b"ab", b"", b"cde"]) == 5
        kernel.sys_lseek(task, fd, 0)
        assert kernel.sys_read(task, fd) == b"abcde"

    def test_vectored_file_io_checks_permission_once(self, kernel):
        task = kernel.spawn_task("t")
        fd = kernel.sys_open(task, "/tmp/v", "w+")
        before = kernel.security.hook_calls["file_permission"]
        kernel.sys_writev(task, fd, [b"a", b"b", b"c", b"d"])
        assert kernel.security.hook_calls["file_permission"] == before + 1

    def test_pipe_writev_is_per_message(self, kernel):
        """On pipes each segment is one message with its own mediation —
        vectorization must not fuse silently-droppable messages."""
        task = kernel.spawn_task("t")
        pr, pw = kernel.sys_pipe(task)
        hooks_before = kernel.security.hook_calls["pipe_write"]
        assert kernel.sys_writev(task, pw, [b"x", b"y"]) == 2
        assert kernel.security.hook_calls["pipe_write"] == hooks_before + 2
        assert kernel.sys_readv(task, pr, [1, 1, 1]) == [b"x", b"y", b""]

    def test_lseek_rejects_pipes_and_negative(self, kernel):
        task = kernel.spawn_task("t")
        pr, _pw = kernel.sys_pipe(task)
        with pytest.raises(SyscallError) as e:
            kernel.sys_lseek(task, pr, 0)
        assert e.value.errno == EINVAL
        fd = kernel.sys_open(task, "/tmp/s", "w")
        with pytest.raises(SyscallError):
            kernel.sys_lseek(task, fd, -1)


class TestSubmitMemoEpochs:
    """Batched permission verdicts come from the kernel's one verdict
    cache: per kernel, so a verdict proved on one shard is never
    replayed on another, and emptied by every fresh replication event."""

    def _booted(self, shard_id: int = 0):
        Inode._ino_counter = itertools.count(1)
        kernel = Kernel(LaminarSecurityModule(), shard_id=shard_id)
        task = kernel.spawn_task("gw")
        fd = kernel.sys_open(task, "/tmp/m", "w+")
        return kernel, task, fd

    def test_memo_keys_carry_shard_and_fd_epoch(self):
        from repro.core import fastpath

        kernel, task, fd = self._booted(shard_id=7)
        batch = [Sqe("write", fd, b"x")]
        kernel.sys_submit(task, batch)
        hits = fastpath.counters.hookchain_hits
        kernel.sys_submit(task, batch)
        assert fastpath.counters.hookchain_hits == hits + 1
        assert kernel.security.hook_calls["file_permission"] == 2
        # The same verdict on a different shard is proved there afresh:
        # the twin kernel's first write runs its own hook.
        other, task2, fd2 = self._booted(shard_id=8)
        other.sys_submit(task2, [Sqe("write", fd2, b"x")])
        assert fastpath.counters.hookchain_hits == hits + 1
        assert other.security.hook_calls["file_permission"] == 1
        # A replication event empties the cache: the next write is
        # checked again, then cached again.
        assert kernel.apply_replication(1)
        kernel.sys_submit(task, batch)
        assert fastpath.counters.hookchain_hits == hits + 1
        kernel.sys_submit(task, batch)
        assert fastpath.counters.hookchain_hits == hits + 2
        assert kernel.security.hook_calls["file_permission"] == 4

    def test_memo_not_replayed_across_replication_lag(self):
        """A verdict cached before a capability-store replication event
        must not replay after it.

        The sharp case: replication *rebuilds* the principal's security
        field from the wire image, so the rebuilt ``label_epoch`` restarts
        at exactly the value the entry was keyed on, and the inode's label
        object is untouched — neither the epoch in the key nor the
        identity check can catch the change.  Only the invalidation on
        ``apply_replication`` keeps the stale allow unreachable."""
        from repro.core import CapabilitySet, fastpath
        from repro.core.principal import Principal

        kernel, task, fd = self._booted()
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        hooks = kernel.security.hook_calls["file_permission"]
        hits = fastpath.counters.hookchain_hits
        kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        # Replay accounting: the cache hit still counts the hook.
        assert kernel.security.hook_calls["file_permission"] == hooks + 1
        assert fastpath.counters.hookchain_hits == hits + 1

        # Replication lands: the authoritative capability store says gw is
        # now tainted with a secrecy tag it cannot shed.  The sync path
        # materializes a fresh Principal from the frame — label_epoch
        # restarts at 0, colliding with the epoch the entry was keyed on.
        tag = kernel.tags.alloc("s")
        assert task.security.label_epoch == 0
        task.security = Principal(
            task.name, LabelPair(Label.of(tag)), CapabilitySet.EMPTY
        )
        assert task.security.label_epoch == 0  # the collision
        assert kernel.apply_replication(1)
        assert kernel.fd_epoch == 1

        denials = len(kernel.audit.denials())
        cqes = kernel.sys_submit(task, [Sqe("write", fd, b"x")])
        # Without the invalidation this replays the stale allow; with it,
        # the full hook runs and denies the write-down.
        assert cqes[0].errno == EACCES
        assert len(kernel.audit.denials()) == denials + 1

    def test_stale_replication_is_rejected(self):
        kernel, task, fd = self._booted()
        assert kernel.apply_replication(3)
        epoch_after = kernel.fd_epoch
        assert not kernel.apply_replication(3)  # re-delivered frame
        assert not kernel.apply_replication(1)  # reordered older frame
        assert kernel.fd_epoch == epoch_after
        assert kernel.apply_replication(4)
        assert kernel.fd_epoch == epoch_after + 1
