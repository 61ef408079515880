"""The kernel's one LSM verdict cache (:mod:`repro.osim.verdict_cache`).

The contract under test: replaying a cached allow is *pure
performance* — hook-call counters, audit entries, denials, and syscall
results are byte-identical to a kernel whose security module the cache
never serves (:class:`tests.conftest.PassThroughSecurityModule`) — and
every event that could change a verdict (task relabel, inode relabel,
namespace mutation, cwd change, security-policy swap, crash, remount,
replication) is seen before a stale allow can answer.
"""

from __future__ import annotations

import pytest

from repro.core import CapabilitySet, Label, LabelPair, LabelType, fastpath, labels
from repro.core.principal import Principal
from repro.osim import (
    EACCES,
    ENOENT,
    Kernel,
    LaminarSecurityModule,
    Sqe,
    SyscallError,
)
from tests.conftest import PassThroughSecurityModule

#: Repetitions that warm every cache the kernel has.
WARM = 10


def make_kernel(module_cls=LaminarSecurityModule):
    kernel = Kernel(module_cls())
    task = kernel.spawn_task("app")
    kernel.sys_mkdir(task, "/tmp/hc")
    fd = kernel.sys_open(task, "/tmp/hc/data", "w")
    kernel.sys_write(task, fd, b"payload-bytes")
    kernel.sys_close(task, fd)
    return kernel, task


def cache_counts():
    snap = fastpath.counters.snapshot()
    return {
        k: snap[k]
        for k in ("walk_hits", "walk_misses", "hookchain_hits", "hookchain_deopts")
    }


def secret_of(kernel, name="s"):
    owner = kernel.spawn_task("owner")
    tag, _ = kernel.sys_alloc_tag(owner, name)
    return owner, tag


class TestCompileAndHit:
    def test_stat_chain_compiles_then_replays(self):
        """A warm stat replays its walk: the same result and the same
        hook counts as a kernel that runs every hook."""
        results = {}
        for module_cls in (LaminarSecurityModule, PassThroughSecurityModule):
            kernel, task = make_kernel(module_cls)
            stats = [kernel.sys_stat(task, "/tmp/hc/data") for _ in range(WARM)]
            results[module_cls] = (stats, dict(kernel.security.hook_calls))
            if module_cls is LaminarSecurityModule:
                counts = cache_counts()
                assert counts["walk_hits"] >= WARM - 1
                assert counts["hookchain_hits"] >= WARM - 1
                assert counts["hookchain_deopts"] == 0
        assert results[LaminarSecurityModule] == results[PassThroughSecurityModule]

    def test_open_chain_keyed_on_flags(self):
        """An open's leaf check runs with the open's own mask every time:
        warm read-mode opens never let a write-mode open through."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "mine")
        kernel.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        for _ in range(WARM):
            kernel.sys_close(task, kernel.sys_open(task, "/tmp/hc/data", "r"))
        assert cache_counts()["walk_hits"] >= WARM - 1
        denials = len(kernel.audit.denials())
        with pytest.raises(SyscallError) as exc:
            kernel.sys_open(task, "/tmp/hc/data", "w")
        assert exc.value.errno == EACCES
        assert len(kernel.audit.denials()) == denials + 1

    def test_fd_read_chain_compiles_then_replays(self):
        """Batched reads take their file_permission verdict from the
        cache after the first, and still count one hook call each."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        batch = [Sqe("lseek", fd, 0), Sqe("read", fd, 7)]

        def run():
            return [(c.op, c.result, c.errno) for c in kernel.sys_submit(task, batch)]

        first = run()
        assert first[1] == ("read", b"payload", 0)
        hits = fastpath.counters.hookchain_hits
        hooks = kernel.security.hook_calls["file_permission"]
        for _ in range(WARM):
            assert run() == first
        assert fastpath.counters.hookchain_hits == hits + WARM
        assert kernel.security.hook_calls["file_permission"] == hooks + WARM

    def test_denied_chains_never_bake(self):
        """Denials re-run the full hook stack every time: the audit log
        gains one entry per attempt and no denied verdict is ever
        replayed, for walks and batched writes alike."""
        kernel, task = make_kernel()
        owner, tag = secret_of(kernel)
        kernel.sys_mkdir_labeled(owner, "/tmp/hc/vault", LabelPair(Label.of(tag)))
        tainted = kernel.spawn_task("tainted", labels=LabelPair(Label.of(tag)))
        fd = kernel.sys_open(tainted, "/tmp/hc/data", "r")
        fastpath.counters.reset()
        for _ in range(WARM):
            with pytest.raises(SyscallError) as exc:
                kernel.sys_stat(task, "/tmp/hc/vault/x")
            assert exc.value.errno == EACCES
        assert cache_counts()["walk_hits"] == 0
        hits = fastpath.counters.hookchain_hits
        for _ in range(WARM):
            (cqe,) = kernel.sys_submit(tainted, [Sqe("write", fd, b"leak")])
            assert cqe.errno == EACCES
        assert fastpath.counters.hookchain_hits == hits
        assert len(kernel.audit.denials()) == 2 * WARM

    def test_trailing_slash_walk_keyed_apart(self):
        """``/tmp/hc/vault/`` and ``/tmp/hc/vault/.`` walk only up to
        ``/tmp/hc``; a cached walk of either must never stand in for the
        walk of ``/tmp/hc/vault/x``, which must search the vault too."""
        kernel, task = make_kernel()
        owner, tag = secret_of(kernel)
        kernel.sys_mkdir_labeled(owner, "/tmp/hc/vault", LabelPair(Label.of(tag)))
        reference, ref_task = make_kernel(PassThroughSecurityModule)
        ref_owner, ref_tag = secret_of(reference)
        reference.sys_mkdir_labeled(
            ref_owner, "/tmp/hc/vault", LabelPair(Label.of(ref_tag))
        )
        for k, t in ((kernel, task), (reference, ref_task)):
            for path in ("/tmp/hc/vault/", "/tmp/hc/vault/.", "/tmp/hc/vault/x"):
                for _ in range(2):
                    with pytest.raises(SyscallError) as exc:
                        k.sys_stat(t, path)
                    assert exc.value.errno == EACCES, path
        assert [str(e) for e in kernel.audit] == [str(e) for e in reference.audit]
        assert kernel.security.hook_calls == reference.security.hook_calls


def run_mixed_stream(kernel, task):
    """A deterministic op stream mixing hot allowed walks and batched
    reads with denials, a cwd change, a relabel and an unlink; returns
    every application-visible outcome."""
    outcomes = []

    def attempt(thunk):
        try:
            outcomes.append(thunk())
        except SyscallError as exc:
            outcomes.append((exc.errno, str(exc)))

    fd = kernel.sys_open(task, "/tmp/hc/data", "r")
    batch = [Sqe("lseek", fd, 0), Sqe("read", fd, 5)]
    for i in range(3 * WARM):
        attempt(lambda: kernel.sys_stat(task, "/tmp/hc/data")["ino"])
        attempt(lambda: kernel.sys_close(
            task, kernel.sys_open(task, "/tmp/hc/data", "r")
        ))
        attempt(lambda: [(c.result, c.errno) for c in kernel.sys_submit(task, batch)])
        attempt(lambda: kernel.sys_stat(task, "data")["ino"])
        if i % 4 == 0:
            attempt(lambda: kernel.sys_stat(task, "/tmp/hc/locked"))
        if i == WARM:
            kernel.sys_chdir(task, "/tmp/hc")
        if i == WARM + 3:
            kernel.fs.resolve("/tmp/hc/data").labels = kernel.fs.resolve(
                "/tmp/hc/locked"
            ).labels
        if i == 2 * WARM:
            kernel.sys_unlink(task, "/tmp/hc/data")
    return outcomes


def build_mixed_world(module_cls=LaminarSecurityModule):
    kernel, task = make_kernel(module_cls)
    owner, tag = secret_of(kernel)
    kernel.sys_create_file_labeled(owner, "/tmp/hc/locked", LabelPair(Label.of(tag)))
    return kernel, task


class TestObservableParity:
    def test_hooks_audit_results_identical_with_chains_off(self):
        kernel_on, task_on = build_mixed_world()
        out_on = run_mixed_stream(kernel_on, task_on)
        counts_on = cache_counts()
        assert counts_on["hookchain_hits"] > 0
        assert counts_on["walk_hits"] > 0

        fastpath.counters.reset()
        kernel_off, task_off = build_mixed_world(PassThroughSecurityModule)
        out_off = run_mixed_stream(kernel_off, task_off)
        assert cache_counts() == dict.fromkeys(counts_on, 0)
        assert len(kernel_off.hookchain) == 0

        assert out_on == out_off
        assert dict(kernel_on.security.hook_calls) == dict(
            kernel_off.security.hook_calls
        )
        assert [str(e) for e in kernel_on.audit] == [str(e) for e in kernel_off.audit]
        assert kernel_on.security.denials == kernel_off.security.denials


class TestDeopt:
    def test_task_relabel_retires_the_key(self):
        """Raising the task's label moves its label epoch: the old entry
        is unreachable and the first post-relabel stat walks again."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "mine")
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/data")
        counts = cache_counts()
        assert counts["walk_hits"] > 0
        kernel.sys_set_task_label(
            task, LabelType.SECRECY, task.labels.secrecy.with_tag(tag)
        )
        kernel.sys_stat(task, "/tmp/hc/data")  # allowed: reading less-secret
        assert cache_counts()["walk_hits"] == counts["walk_hits"]
        assert cache_counts()["walk_misses"] == counts["walk_misses"] + 1

    def test_inode_relabel_mid_stream_denies_correctly(self):
        """The recovery-style direct relabel of a traversed directory:
        the entry's label-identity check fails, the entry is dropped,
        and the full hooks deny with a fresh audit entry — never a
        stale allow."""
        kernel, task = make_kernel()
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/data")
        _, tag = secret_of(kernel)
        kernel.fs.resolve("/tmp/hc").labels = LabelPair(Label.of(tag))
        audit_before = len(list(kernel.audit))
        deopts_before = cache_counts()["hookchain_deopts"]
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "/tmp/hc/data")
        assert exc.value.errno == EACCES
        assert cache_counts()["hookchain_deopts"] == deopts_before + 1
        assert len(list(kernel.audit)) == audit_before + 1

    def test_fd_chain_inode_relabel_denies_correctly(self):
        """The same for a batched read's permission entry."""
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        batch = [Sqe("lseek", fd, 0), Sqe("read", fd, 4)]
        for _ in range(WARM):
            kernel.sys_submit(task, batch)
        _, tag = secret_of(kernel)
        kernel.fs.resolve("/tmp/hc/data").labels = LabelPair(Label.of(tag))
        deopts_before = cache_counts()["hookchain_deopts"]
        denials = len(kernel.audit.denials())
        cqes = kernel.sys_submit(task, batch)
        assert cqes[1].errno == EACCES
        assert cache_counts()["hookchain_deopts"] == deopts_before + 1
        assert len(kernel.audit.denials()) == denials + 1

    def test_namespace_mutation_invalidates_path_chains(self):
        """Unlink, mkdir and labeled directory creation empty the cache.
        The sharp case: a directory replaced by a secret one of the same
        name leaves the old entry's identities intact (the old inode is
        merely detached), so only the invalidation stops a stale allow."""
        kernel, task = make_kernel()
        owner, tag = secret_of(kernel)
        kernel.sys_mkdir(task, "/tmp/hc/sub")
        kernel.sys_close(task, kernel.sys_creat(task, "/tmp/hc/sub/f"))
        first = kernel.sys_stat(task, "/tmp/hc/data")
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/sub/f")
            assert kernel.sys_stat(task, "/tmp/hc/data") == first
        for mutate in (
            lambda: kernel.sys_unlink(task, "/tmp/hc/sub/f"),
            lambda: kernel.sys_mkdir(task, "/tmp/hc/other"),
            lambda: kernel.sys_mkdir_labeled(owner, "/tmp/hc/more", LabelPair()),
        ):
            mutate()
            misses = cache_counts()["walk_misses"]
            assert kernel.sys_stat(task, "/tmp/hc/data") == first
            assert cache_counts()["walk_misses"] == misses + 1
        for _ in range(WARM):
            with pytest.raises(SyscallError) as exc:
                kernel.sys_stat(task, "/tmp/hc/sub/f")
            assert exc.value.errno == ENOENT
        kernel.sys_unlink(task, "/tmp/hc/sub")
        kernel.sys_mkdir_labeled(owner, "/tmp/hc/sub", LabelPair(Label.of(tag)))
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "/tmp/hc/sub/f")
        assert exc.value.errno == EACCES

    def test_policy_swap_drops_every_chain(self):
        kernel, task = make_kernel()
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/data")
        assert len(kernel.hookchain) > 0
        kernel.set_security_module(LaminarSecurityModule())
        assert len(kernel.hookchain) == 0
        misses = cache_counts()["walk_misses"]
        kernel.sys_stat(task, "/tmp/hc/data")
        assert cache_counts()["walk_misses"] == misses + 1
        assert kernel.security.hook_calls["inode_permission"] == 3

    def test_cwd_change_rekeys_relative_walks(self):
        """A relative walk is keyed on the start inode itself: after a
        chdir, the same relative path walks (and is checked) afresh."""
        kernel, task = make_kernel()
        owner, tag = secret_of(kernel)
        for name in ("a", "b"):
            kernel.sys_mkdir(task, f"/tmp/hc/{name}")
        kernel.sys_mkdir(task, "/tmp/hc/a/sub")
        kernel.sys_close(task, kernel.sys_creat(task, "/tmp/hc/a/sub/f"))
        kernel.sys_mkdir_labeled(owner, "/tmp/hc/b/sub", LabelPair(Label.of(tag)))
        kernel.sys_chdir(task, "/tmp/hc/a")
        for _ in range(WARM):
            kernel.sys_stat(task, "sub/f")
        assert cache_counts()["walk_hits"] >= WARM - 1
        kernel.sys_chdir(task, "/tmp/hc/b")
        with pytest.raises(SyscallError) as exc:
            kernel.sys_stat(task, "sub/f")
        assert exc.value.errno == EACCES

    def test_crash_and_remount_empty_the_cache(self):
        kernel, task = make_kernel()
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/data")
        assert len(kernel.hookchain) > 0
        kernel.crash()
        assert len(kernel.hookchain) == 0
        kernel.remount()
        survivor = kernel.spawn_task("after")
        for _ in range(WARM):
            kernel.sys_stat(survivor, "/tmp/hc/data")
        assert len(kernel.hookchain) > 0
        kernel.remount()
        assert len(kernel.hookchain) == 0

    def test_pass_through_module_is_never_cached(self):
        """The purity check routes an overriding module to the slow
        path: no lookup, no entry, no replay."""
        kernel, task = make_kernel(PassThroughSecurityModule)
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        for _ in range(WARM):
            kernel.sys_stat(task, "/tmp/hc/data")
            kernel.sys_submit(task, [Sqe("lseek", fd, 0), Sqe("read", fd, 4)])
        assert cache_counts() == dict.fromkeys(cache_counts(), 0)
        assert len(kernel.hookchain) == 0


class TestReplication:
    """A fresh replication event may rebuild a principal whose
    ``label_epoch`` restarts at 0, the epoch warm entries were keyed on,
    while the inodes keep their label objects.  Only the cache's
    invalidation on ``apply_replication`` stops the stale allow."""

    @staticmethod
    def _rebuild(kernel, task, labels: LabelPair) -> None:
        assert task.security.label_epoch == 0
        task.security = Principal(task.name, labels, CapabilitySet.EMPTY)
        assert task.security.label_epoch == 0  # the collision
        assert kernel.apply_replication(1)

    def test_write_after_replication_denies_and_audits(self):
        kernel, task = make_kernel()
        fd = kernel.sys_open(task, "/tmp/hc/data", "r+")
        for _ in range(WARM + 2):
            kernel.sys_write(task, fd, b"x")
        self._rebuild(kernel, task, LabelPair(Label.of(kernel.tags.alloc("s"))))
        denials = len(kernel.audit.denials())
        with pytest.raises(SyscallError) as exc:
            kernel.sys_write(task, fd, b"x")
        assert exc.value.errno == EACCES
        assert len(kernel.audit.denials()) == denials + 1

    @pytest.mark.parametrize("syscall", ["stat", "open"])
    def test_path_after_replication_denies_and_audits(self, syscall):
        """Adding an integrity tag makes every walk from the root a read
        down: the first path syscall after the event must deny."""
        kernel, task = make_kernel()
        call = {
            "stat": lambda: kernel.sys_stat(task, "/tmp/hc/data"),
            "open": lambda: kernel.sys_open(task, "/tmp/hc/data", "r"),
        }[syscall]
        for _ in range(WARM + 2):
            call()
        tag = kernel.tags.alloc("i")
        self._rebuild(kernel, task, LabelPair(Label.EMPTY, Label.of(tag)))
        denials = len(kernel.audit.denials())
        with pytest.raises(SyscallError) as exc:
            call()
        assert exc.value.errno == EACCES
        assert len(kernel.audit.denials()) == denials + 1


def _value_equal(pair: LabelPair) -> LabelPair:
    """A fresh LabelPair equal in value to ``pair``; past the intern
    bound its labels are fresh instances too."""
    return LabelPair(
        Label.of(*pair.secrecy.tags()), Label.of(*pair.integrity.tags())
    )


def build_trace_world(module_cls):
    kernel = Kernel(module_cls())
    app = kernel.spawn_task("app")
    _, tag = secret_of(kernel)
    kernel.sys_mkdir(app, "/tmp/pb")
    for name in "abc":
        kernel.sys_mkdir(app, f"/tmp/pb/{name}")
        fd = kernel.sys_open(app, f"/tmp/pb/{name}/f", "w")
        kernel.sys_write(app, fd, name.encode() * 8)
        kernel.sys_close(app, fd)
    return kernel, app, tag


def run_trace(kernel, app, tag) -> dict:
    """Open/stat/submit/relabel/unlink over three directories; returns
    every outcome plus the kernel's hook counts, audit and denials."""
    outcomes: list = []
    secret = LabelPair(Label.of(tag))

    def attempt(op, thunk):
        try:
            outcomes.append((op, thunk()))
        except SyscallError as exc:
            outcomes.append((op, exc.errno, str(exc)))

    fds = {n: kernel.sys_open(app, f"/tmp/pb/{n}/f", "r+") for n in "abc"}
    for i in range(36):
        n = "abc"[i % 3]
        d, f = f"/tmp/pb/{n}", f"/tmp/pb/{n}/f"
        attempt("stat", lambda: kernel.sys_stat(app, f)["ino"])
        attempt("open", lambda: kernel.sys_close(app, kernel.sys_open(app, f, "r")))
        batch = [
            Sqe("lseek", fds[n], 0), Sqe("read", fds[n], 4), Sqe("write", fds[n], b"!")
        ]
        attempt("submit", lambda: [
            (c.result, c.errno) for c in kernel.sys_submit(app, batch)
        ])
        directory, file = kernel.fs.resolve(d), kernel.fs.resolve(f)
        if i % 6 == 2:
            directory.labels = secret
        elif i % 6 == 4:
            directory.labels = LabelPair()
        if i % 5 == 1:
            file.labels = _value_equal(file.labels)
        if i % 9 == 3:
            file.labels = secret
        elif i % 9 == 6:
            file.labels = LabelPair()
        if i % 7 == 5:
            attempt("creat", lambda: kernel.sys_close(
                app, kernel.sys_creat(app, f"{d}/g")
            ))
            attempt("unlink", lambda: kernel.sys_unlink(app, f"{d}/g"))
            attempt("stat-gone", lambda: kernel.sys_stat(app, f"{d}/g"))
    return {
        "outcomes": outcomes,
        "hooks": dict(kernel.security.hook_calls),
        "audit": [str(e) for e in kernel.audit],
        "denials": dict(kernel.security.denials),
    }


class TestPastBound:
    """Every bound of the cache degrades to slow-but-correct: past its
    capacity, or past the label intern bound, the kernel's observables
    equal those of a kernel that runs every hook."""

    @staticmethod
    def _compare():
        cached = run_trace(*build_trace_world(LaminarSecurityModule))
        hits = fastpath.counters.hookchain_hits
        reference = run_trace(*build_trace_world(PassThroughSecurityModule))
        assert fastpath.counters.hookchain_hits == hits
        assert any(o[1] == EACCES for o in cached["outcomes"] if len(o) == 3)
        assert cached == reference
        return hits

    def test_past_capacity_matches_reference(self, monkeypatch):
        from repro.osim import verdict_cache

        monkeypatch.setattr(verdict_cache, "CAPACITY", 3)
        assert self._compare() > 0

    def test_past_intern_bound_matches_reference(self, monkeypatch):
        fastpath.clear_caches()
        monkeypatch.setattr(labels, "_INTERN_BOUND", len(labels._INTERN))
        assert self._compare() > 0

    def test_relabel_past_intern_bound_reruns_the_hook(self, monkeypatch):
        """A value-equal relabel past the bound is a new identity: the
        next batched read drops the entry and runs the real hook; the
        one after replays the re-recorded entry."""
        kernel, task = make_kernel()
        tag, _ = kernel.sys_alloc_tag(task, "mine")
        kernel.sys_set_task_label(task, LabelType.SECRECY, Label.of(tag))
        inode = kernel.fs.resolve("/tmp/hc/data")
        inode.labels = LabelPair(Label.of(tag))
        fd = kernel.sys_open(task, "/tmp/hc/data", "r")
        batch = [Sqe("lseek", fd, 0), Sqe("read", fd, 7)]
        real_calls = []
        hook = kernel.security.file_permission

        def counting(task, file, mask):
            real_calls.append(mask)
            return hook(task, file, mask)

        kernel.security.file_permission = counting
        for _ in range(WARM):
            kernel.sys_submit(task, batch)
        assert len(real_calls) == 1

        fastpath.clear_caches()
        monkeypatch.setattr(labels, "_INTERN_BOUND", len(labels._INTERN))
        old = inode.labels
        inode.labels = _value_equal(old)
        assert inode.labels == old
        assert inode.labels.secrecy is not old.secrecy
        deopts = cache_counts()["hookchain_deopts"]
        hooks = kernel.security.hook_calls["file_permission"]
        assert kernel.sys_submit(task, batch)[1].result == b"payload"
        assert len(real_calls) == 2
        assert cache_counts()["hookchain_deopts"] == deopts + 1
        kernel.sys_submit(task, batch)
        assert len(real_calls) == 2
        assert kernel.security.hook_calls["file_permission"] == hooks + 2
