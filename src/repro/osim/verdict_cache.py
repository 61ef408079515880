"""The kernel's one LSM verdict cache.

A server re-walks the same directory prefixes and re-checks the same
files millions of times, and for the stock hook implementations each
verdict is a pure function of (task labels, object labels).  The kernel
remembers *successful* verdicts in one bounded dict, and replays them:

* **walk entries** (:meth:`VerdictCache.lookup_path`, used by
  :meth:`Kernel._walk_checked`) are keyed ``("walk", tid, label_epoch,
  start, head)``: ``start`` is the starting inode of a relative walk
  (``None`` for one from the root) and ``head`` the path's directory
  prefix.  A hit replays one ``inode_permission`` per traversed
  directory.
* **permission entries** (:meth:`VerdictCache.replay_fd`, used by the
  read and write entries of :meth:`Kernel.sys_submit`) are keyed
  ``(mask, tid, label_epoch, inode)``.  A hit replays one
  ``file_permission``.

Each entry holds the ``(inode, labels)`` identities its verdict was
proved against, one per hook call it replays.  Every hit checks each
identity again: a mismatch (an inode relabeled since, including to a
value-equal label past the intern bound) drops the entry
(``hookchain_deopts``) and the caller runs the real hooks.  The task
side is in the key, since every label change bumps the principal's
``label_epoch``.  Every other event that can change a verdict calls
:meth:`VerdictCache.invalidate`: security-module install, crash,
remount, a fresh replication event (which may rebuild a principal with
its ``label_epoch`` back at 0), unlink, mkdir and labeled directory
creation.

Only allows are stored.  Denials and ``ENOENT`` re-run the full hooks
every time, so audit entries, denial counters and error text never
depend on cache state, and a hit bumps ``hook_calls`` exactly as the
hooks would.  The kernel consults the cache only for hooks that
:func:`repro.osim.lsm.cacheable_hooks` reports pure; a module that
overrides them (even a pass-through subclass) always runs the hooks,
which makes such a subclass the uncached reference for tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.fastpath import counters as _fp

if TYPE_CHECKING:
    from .filesystem import Inode
    from .kernel import Kernel
    from .task import Task

#: Entries before a wholesale clear; hot verdicts re-fill within a few
#: operations.
CAPACITY = 8192


class VerdictCache:
    """Successful LSM verdicts of one kernel, replayed by label identity."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: key -> ((inode, labels), ...): one pair per replayed hook call
        self._entries: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def invalidate(self) -> None:
        self._entries.clear()

    def _drop(self, key: tuple) -> bool:
        """Discard an entry whose checked identities no longer hold."""
        del self._entries[key]
        _fp.hookchain_deopts += 1
        return False

    def _record(self, key: tuple, checks: tuple) -> None:
        entries = self._entries
        if len(entries) >= CAPACITY:
            entries.clear()
        entries[key] = checks

    def lookup_path(
        self, task: "Task", start: Optional["Inode"], head: str
    ) -> bool:
        """Replay the search checks of a walk from ``start`` through
        ``head``; ``False`` means the caller must walk."""
        key = ("walk", task.tid, task.security.label_epoch, start, head)
        checks = self._entries.get(key)
        if checks is None:
            _fp.walk_misses += 1
            return False
        for inode, labels in checks:
            if inode.labels is not labels:
                _fp.walk_misses += 1
                return self._drop(key)
        if checks:
            self.kernel.security.hook_calls["inode_permission"] += len(checks)
        _fp.walk_hits += 1
        _fp.hookchain_hits += 1
        return True

    def record_path(
        self, task: "Task", start: Optional["Inode"], head: str, walked: tuple
    ) -> None:
        """Remember a successful walk over ``walked`` directories."""
        key = ("walk", task.tid, task.security.label_epoch, start, head)
        self._record(key, walked)

    def replay_fd(self, task: "Task", inode: "Inode", mask: int) -> bool:
        """Replay an allowed ``file_permission``; ``False`` means the
        caller must run the hook.  Batched I/O calls this once per read
        or write entry, so the entry's one identity check is inline."""
        key = (mask, task.tid, task.security.label_epoch, inode)
        checks = self._entries.get(key)
        if checks is None:
            return False
        if checks[0][1] is not inode.labels:
            return self._drop(key)
        self.kernel.security.hook_calls["file_permission"] += 1
        _fp.hookchain_hits += 1
        return True

    def record_fd(self, task: "Task", inode: "Inode", mask: int) -> None:
        key = (mask, task.tid, task.security.label_epoch, inode)
        self._record(key, ((inode, inode.labels),))
