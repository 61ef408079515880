"""Property: the fast-path caches never change an observable outcome.

One random operation sequence — region entries/exits, barrier reads and
writes, labeled allocation, kernel label changes, declassification via
``copy_and_label``, and raw flow/label-change checks — is executed twice
on fresh kernels: once with every cache warm, and once with every cache
cold (every process-wide cache flushed before each operation, on a kernel
whose pass-through security module its verdict cache never serves).  The
traces (operation outcomes, exception types and messages), the audit
logs, and the denial counters must be identical.  This is the
equivalence argument in randomized form: caching may only change
*when* set algebra runs, never what any check decides.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CapabilitySet,
    Label,
    LabelPair,
    LabelType,
    LaminarError,
    check_flow,
    check_pair_change,
    fastpath,
)
from repro.osim import Kernel, LaminarSecurityModule
from repro.runtime import LaminarAPI, LaminarVM
from tests.conftest import PassThroughSecurityModule

N_TAGS = 3  # owned tags; one extra unowned tag exercises denial paths

op_kind = st.sampled_from(
    ["enter", "enter_unowned", "exit", "alloc", "read", "write",
     "declassify", "set_label", "flow_check", "change_check"]
)
tag_idx = st.integers(min_value=0, max_value=N_TAGS - 1)
obj_idx = st.integers(min_value=0, max_value=7)
operations = st.lists(
    st.tuples(op_kind, tag_idx, obj_idx), min_size=1, max_size=40
)


def _label_for(tags, i, j):
    """A small deterministic label universe over the owned tags."""
    choices = (
        Label.EMPTY,
        Label.of(tags[i]),
        Label.of(tags[(i + 1) % N_TAGS]),
        Label.of(tags[i], tags[(i + 1) % N_TAGS]),
    )
    return choices[j % len(choices)]


def _run_trace(ops: list[tuple[str, int, int]], cold: bool = False) -> tuple:
    """Execute ``ops`` on a fresh kernel/VM, recording every outcome;
    ``cold`` flushes every fast-path cache before each operation and
    runs the uncached reference security module."""
    kernel = Kernel(PassThroughSecurityModule() if cold else LaminarSecurityModule())
    vm = LaminarVM(kernel)
    api = LaminarAPI(vm)
    tags = [api.create_and_add_capability(f"t{i}") for i in range(N_TAGS)]
    unowned = kernel.tags.alloc("locked")
    regions: list = []
    headers: list = []
    trace: list = []

    def record(kind, thunk):
        try:
            value = thunk()
            trace.append((kind, "ok", value))
        except LaminarError as exc:
            trace.append((kind, type(exc).__name__, str(exc)))

    for kind, i, j in ops:
        if cold:
            fastpath.clear_caches()
        if kind == "enter":
            def enter(i=i):
                region = vm.region(
                    secrecy=Label.of(tags[i]),
                    caps=CapabilitySet.dual(*tags),
                )
                region.__enter__()
                regions.append(region)
                return None
            record(kind, enter)
        elif kind == "enter_unowned":
            def enter_unowned():
                region = vm.region(secrecy=Label.of(unowned))
                region.__enter__()
                regions.append(region)
                return None
            record(kind, enter_unowned)
        elif kind == "exit" and regions:
            record(kind, lambda: regions.pop().__exit__(None, None, None))
        elif kind == "alloc":
            def alloc(i=i):
                # A stable ``what`` keeps process-global object ids out of
                # violation messages; both runs must produce identical text.
                header = vm.barriers.alloc_barrier(
                    vm.current_thread, LabelPair(Label.of(tags[i])),
                    what=f"obj{len(headers)}",
                )
                headers.append(header)
                return header.labels
            record(kind, alloc)
        elif kind == "read" and headers:
            idx = j % len(headers)
            record(kind, lambda: vm.barriers.read_barrier(
                vm.current_thread, headers[idx], what=f"obj{idx}"
            ))
        elif kind == "write" and headers:
            idx = j % len(headers)
            record(kind, lambda: vm.barriers.write_barrier(
                vm.current_thread, headers[idx], what=f"obj{idx}"
            ))
        elif kind == "declassify":
            def declassify(i=i):
                with vm.region(
                    secrecy=Label.of(tags[i]),
                    caps=CapabilitySet.dual(*tags),
                ):
                    secret = vm.alloc(
                        {"v": 1}, labels=LabelPair(Label.of(tags[i]))
                    )
                    public = api.copy_and_label(secret, secrecy=Label.EMPTY)
                    return public.header.labels
            record(kind, declassify)
        elif kind == "set_label":
            def set_label(i=i):
                if vm.current_thread.in_region:
                    return None  # kernel label is region-managed here
                kernel.sys_set_task_label(
                    vm.main_task, LabelType.SECRECY, Label.of(tags[i])
                )
                kernel.sys_set_task_label(
                    vm.main_task, LabelType.SECRECY, Label.EMPTY
                )
                return None
            record(kind, set_label)
        elif kind == "flow_check":
            src = LabelPair(_label_for(tags, i, j))
            dst = LabelPair(_label_for(tags, (i + 1) % N_TAGS, j + 1))
            record(kind, lambda: check_flow(src, dst))
        elif kind == "change_check":
            frm = LabelPair(_label_for(tags, i, j))
            to = LabelPair(_label_for(tags, (i + 2) % N_TAGS, j + 2))
            caps = (
                CapabilitySet.dual(*tags) if j % 2 else
                CapabilitySet.plus(tags[i])
            )
            record(kind, lambda: check_pair_change(frm, to, caps))
    while regions:
        regions.pop().__exit__(None, None, None)
    audit = [str(entry) for entry in kernel.audit.entries()]
    denials = dict(kernel.security.denials)
    return tuple(trace), tuple(audit), denials


@settings(max_examples=40, deadline=None)
@given(operations)
def test_caches_never_change_outcomes(ops):
    fastpath.clear_caches()
    cached = _run_trace(ops)
    uncached = _run_trace(ops, cold=True)
    assert cached[0] == uncached[0], "operation outcomes diverged"
    assert cached[1] == uncached[1], "audit logs diverged"
    assert cached[2] == uncached[2], "denial counters diverged"
