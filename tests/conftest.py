"""Shared fixtures: a booted kernel, a VM on it, and tag helpers."""

from __future__ import annotations

import pytest
from _pytest.outcomes import OutcomeException

from repro.core import CapabilitySet, Label, LabelPair, Tag, fastpath
from repro.osim import Kernel, LaminarSecurityModule, NullSecurityModule
from repro.runtime import BarrierMode, LaminarAPI, LaminarVM
from repro.runtime.regions import SecurityRegion


@pytest.fixture(autouse=True)
def _fastpath_isolation():
    """Reset the process-global fast-path caches around every test.

    The intern/memo/verdict tables outlive individual tests; without a
    reset, a Label interned by one test (holding that test's Tag objects)
    would be returned to a later test whose own allocator minted
    value-equal tags, breaking per-test object-identity assumptions.
    Counters reset too, so tests can assert on hit/miss deltas.
    """
    fastpath.clear_caches()
    fastpath.counters.reset()
    yield
    fastpath.clear_caches()
    fastpath.counters.reset()


@pytest.fixture(autouse=True)
def _region_swallowed_failures(monkeypatch):
    """Fail a test whose assertion a security region swallowed.

    ``SecurityRegion.__exit__`` suppresses every exception (Section
    4.3.3), including ``AssertionError`` and pytest's outcome exceptions,
    so a failing ``assert`` inside ``with vm.region(...)`` would pass
    silently.  Record the ones a region swallows and fail the test at
    teardown; region semantics are unchanged.
    """
    swallowed: list[BaseException] = []
    region_exit = SecurityRegion.__exit__

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, (AssertionError, OutcomeException)):
            swallowed.append(exc)
        return region_exit(self, exc_type, exc, tb)

    monkeypatch.setattr(SecurityRegion, "__exit__", __exit__)
    yield
    if swallowed:
        pytest.fail(
            f"a security region swallowed {swallowed[0]!r}", pytrace=False
        )


class PassThroughSecurityModule(LaminarSecurityModule):
    """The Laminar module with its cacheable hooks re-declared as
    pass-throughs: every verdict, audit entry and hook count is the
    same, but the kernel's verdict cache never serves a module that
    overrides them, so every check runs the real hook.  The uncached
    reference for cache-parity tests."""

    def inode_permission(self, task, inode, mask):
        super().inode_permission(task, inode, mask)

    def file_permission(self, task, file, mask):
        super().file_permission(task, file, mask)


@pytest.fixture
def kernel() -> Kernel:
    return Kernel(LaminarSecurityModule())


@pytest.fixture
def vanilla() -> Kernel:
    return Kernel(NullSecurityModule())


@pytest.fixture
def vm(kernel: Kernel) -> LaminarVM:
    return LaminarVM(kernel, mode=BarrierMode.STATIC)


@pytest.fixture
def dynamic_vm(kernel: Kernel) -> LaminarVM:
    return LaminarVM(kernel, mode=BarrierMode.DYNAMIC)


@pytest.fixture
def api(vm: LaminarVM) -> LaminarAPI:
    return LaminarAPI(vm)


@pytest.fixture
def tags() -> tuple[Tag, Tag, Tag]:
    """Three well-known tags below the allocator's range (the allocator
    starts at 1 but the kernel's install consumed low values; these use a
    distinct high band so they never collide with runtime allocations)."""
    return (
        Tag(10_000_001, "a"),
        Tag(10_000_002, "b"),
        Tag(10_000_003, "c"),
    )


def pair(secrecy: Label = Label.EMPTY, integrity: Label = Label.EMPTY) -> LabelPair:
    return LabelPair(secrecy, integrity)


@pytest.fixture
def dual_caps():
    """Factory: both capabilities for the given tags."""

    def make(*tags: Tag) -> CapabilitySet:
        return CapabilitySet.dual(*tags)

    return make
