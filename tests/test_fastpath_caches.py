"""The label fast paths: interning, the verdict cache, dispatch tables.

Interning, the ``union``/``difference`` memo, the flow-verdict cache and
the interpreter's handler tables are structural, with no switch (the
kernel's verdict cache has its own suite, ``test_hookchain.py``).  None may
change a security verdict, and each must be invalidation-free by
construction or invalidated exactly as its soundness argument requires.
These are the fast tier-1 smoke tests; the randomized warm-vs-cold
sweep lives in ``test_property_fastpath.py``.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from repro.core import (
    FLOW_INTEGRITY_FAIL,
    FLOW_OK,
    FLOW_SECRECY_FAIL,
    CapabilitySet,
    Label,
    LabelPair,
    LaminarError,
    check_flow,
    fastpath,
    flow_verdict,
    labels,
)
from repro.jit import Compiler, Interpreter, JITConfig, TierPolicy, compile_source
from repro.osim import Kernel, LaminarSecurityModule
from repro.osim.filesystem import Inode
from repro.runtime import LaminarAPI, LaminarVM
from repro.runtime.heap import ObjectHeader


class TestInterning:
    def test_equal_tag_sets_share_one_instance(self, tags):
        a, b, _ = tags
        assert Label.of(a, b) is Label.of(b, a)
        assert Label.of(a) is Label.of(a)

    def test_empty_label_is_canonical(self):
        assert Label() is Label.EMPTY
        assert Label.of() is Label.EMPTY
        assert Label.empty() is Label.EMPTY

    def test_set_algebra_lands_on_interned_instances(self, tags):
        a, b, c = tags
        assert Label.of(a).union(Label.of(b)) is Label.of(a, b)
        assert Label.of(a, b, c).difference(Label.of(c)) is Label.of(a, b)
        assert Label.of(a, b).intersection(Label.of(b, c)) is Label.of(b)
        assert Label.of(a).with_tag(b) is Label.of(a, b)
        assert Label.of(a, b).without_tag(b) is Label.of(a)

    def test_validating_constructor_rejects_non_tags(self):
        with pytest.raises(TypeError):
            Label(["not-a-tag"])

    def test_fast_constructor_skips_validation_but_interns(self, tags):
        a, b, _ = tags
        built = Label._from_normalized(tuple(sorted((a, b))))
        assert built is Label.of(a, b)

    def test_deepcopy_returns_canonical_instance(self, tags):
        """copy/pickle must not clobber interned state (the default slots
        protocol would reconstruct via ``__new__`` — which interning
        resolves to an existing canonical instance — and then overwrite
        that instance's state in place)."""
        a, _, _ = tags
        label = Label.of(a)
        assert copy.deepcopy(label) is not None
        assert Label.EMPTY.is_empty, "deepcopy corrupted the empty label"
        assert copy.deepcopy(label) == label
        assert pickle.loads(pickle.dumps(label)) == label
        pair = LabelPair(label)
        assert copy.deepcopy(pair) == pair
        assert LabelPair.EMPTY.is_empty


REGION_SRC = """
class Cell { v }

method touch(o, x) {
entry:
  putfield o, v, x
  getfield y, o, v
  ret y
}

region method work(b) secrecy(alpha) {
entry:
  const i, 0
  new c, Cell
loop:
  const lim, 12
  binop cond, lt, i, lim
  br cond, body, done
body:
  call y, touch, c, i
  print y
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  putfield b, v, i
  ret
}

method main() {
entry:
  new b, Cell
  const j, 0
  const z, 0
outer:
  const lim, 6
  binop cond, lt, j, lim
  br cond, obody, odone
obody:
  call _, work, b
  const k, 5
  call z, touch, b, k
  const one, 1
  binop j, add, j, one
  jmp outer
odone:
  ret z
}
"""


class TestPastInternBound:
    """Past ``labels._INTERN_BOUND``, labels are simply not interned.

    They are fresh instances compared and hashed by value, and every
    fast path built on interning — the memo, the verdict cache, tier-2's
    label-shape keys — must give them the verdicts and values it gives
    canonical instances.
    """

    @staticmethod
    def _past_bound(monkeypatch):
        """Flush the caches, then cap the intern table at its current
        size: every label built after this is a fresh instance."""
        fastpath.clear_caches()
        monkeypatch.setattr(labels, "_INTERN_BOUND", len(labels._INTERN))

    def test_past_bound_labels_are_value_equal(self, tags, monkeypatch):
        a, b, _ = tags
        bound = labels._INTERN_BOUND
        self._past_bound(monkeypatch)
        past, again = Label.of(a, b), Label.of(b, a)
        assert past is not again
        monkeypatch.setattr(labels, "_INTERN_BOUND", bound)
        interned = Label.of(a, b)
        assert interned is Label.of(b, a)
        assert past is not interned
        assert past == interned and hash(past) == hash(interned)
        assert LabelPair(past) == LabelPair(interned)
        assert hash(LabelPair(past)) == hash(LabelPair(interned))
        assert {interned: "hit"}[past] == "hit"

    @staticmethod
    def _algebra(tags) -> list:
        """Every verdict and value the label fast paths serve, over a
        small label universe, with the caches cold."""
        fastpath.clear_caches()
        universe = [
            Label.of(*combo)
            for n in range(len(tags) + 1)
            for combo in itertools.combinations(tags, n)
        ]
        pairs = [LabelPair(s, i) for s in universe[:4] for i in universe[:4]]
        observed: list = []
        for x, y in itertools.product(universe, repeat=2):
            observed.append(("union", x.union(y).tags()))
            observed.append(("difference", x.difference(y).tags()))
        for src, dst in itertools.product(pairs, repeat=2):
            observed.append(("verdict", flow_verdict(src, dst)))
            try:
                check_flow(src, dst, context="probe")
                observed.append(("check", None))
            except LaminarError as exc:
                observed.append(("check", type(exc).__name__, str(exc)))
        return observed

    def test_past_bound_verdicts_and_values_match_interned(
        self, tags, monkeypatch
    ):
        interned = self._algebra(tags)
        self._past_bound(monkeypatch)
        assert Label.of(*tags) is not Label.of(*tags), "bound not in force"
        assert self._algebra(tags) == interned

    @staticmethod
    def _run_region_program(policy) -> dict:
        Inode._ino_counter = itertools.count(1)
        ObjectHeader._oid_counter = itertools.count(1)
        program, _ = Compiler(JITConfig.DYNAMIC, inline=False).compile(
            REGION_SRC
        )
        kernel = Kernel(LaminarSecurityModule())
        vm = LaminarVM(kernel)
        vm.current_thread.gain_capabilities(
            CapabilitySet.dual(*program.tags.values())
        )
        interp = Interpreter(program, vm, tier2=policy)
        result = interp.run("main")
        return {
            "result": result,
            "output": tuple(interp.output),
            "executed": interp.executed,
            "enforcement": vm.barriers.stats.enforcement(),
            "audit": tuple(str(e) for e in kernel.audit.entries()),
            "tier2_entries": vm.barriers.stats.tier2_entries,
        }

    def test_past_bound_region_program_same_on_tables_and_tier2(
        self, monkeypatch
    ):
        hot = TierPolicy(
            invocation_threshold=2, backedge_threshold=4,
            deopt_recompile_threshold=2,
        )
        reference = self._run_region_program(None)
        self._past_bound(monkeypatch)
        tables = self._run_region_program(None)
        tier2 = self._run_region_program(hot)
        assert tier2.pop("tier2_entries") > 0, "tier 2 never ran"
        assert tables.pop("tier2_entries") == 0
        reference.pop("tier2_entries")
        assert tables == reference
        assert tier2 == reference
        # The region body's escaping write was denied and audited.
        assert any("suppressed" in line for line in reference["audit"])


class TestFlowVerdictCache:
    def test_repeat_checks_hit(self, tags):
        a, _, _ = tags
        src = LabelPair(Label.of(a))
        dst = LabelPair(Label.of(a))
        assert flow_verdict(src, dst) == FLOW_OK
        before = fastpath.counters.verdict_hits
        assert flow_verdict(src, dst) == FLOW_OK
        assert fastpath.counters.verdict_hits == before + 1

    def test_failures_cached_with_correct_verdict(self, tags):
        a, b, _ = tags
        secret = LabelPair(Label.of(a))
        low_integrity = LabelPair(Label.EMPTY, Label.of(b))
        assert flow_verdict(secret, LabelPair.EMPTY) == FLOW_SECRECY_FAIL
        assert flow_verdict(secret, LabelPair.EMPTY) == FLOW_SECRECY_FAIL
        assert flow_verdict(LabelPair.EMPTY, low_integrity) == FLOW_INTEGRITY_FAIL

    def test_cleared_cache_reevaluates_rules(self, tags):
        a, _, _ = tags
        src = LabelPair(Label.of(a))
        dst = LabelPair(Label.of(a))
        check_flow(src, dst)
        before = fastpath.counters.rule_evaluations
        check_flow(src, dst)
        assert fastpath.counters.rule_evaluations == before
        fastpath.clear_caches()
        check_flow(src, dst)
        assert fastpath.counters.rule_evaluations > before

    def test_repeat_barrier_checks_hit(self, vm):
        """VM barriers go straight to the verdict cache: a repeated
        in-region check is one dict hit, and every requested check is
        still counted."""
        api = LaminarAPI(vm)
        tag = api.create_and_add_capability("t")
        stats = vm.barriers.stats
        with vm.region(secrecy=Label.of(tag), caps=CapabilitySet.dual(tag)):
            thread = vm.current_thread
            header = vm.barriers.alloc_barrier(thread, LabelPair(Label.of(tag)))
            vm.barriers.read_barrier(thread, header)
            hits = fastpath.counters.verdict_hits
            checks = stats.label_checks
            vm.barriers.read_barrier(thread, header)
            vm.barriers.read_barrier(thread, header)
            assert fastpath.counters.verdict_hits == hits + 2
            assert stats.label_checks == checks + 2


WORKLOAD = """
class Node { value, next }

method main() {
entry:
  const n, 40
  call head, build, n
  call total, sum, head
  print total
  ret total
}

method build(n) {
entry:
  const i, 0
  const head, null
  jmp loop
loop:
  binop cond, lt, i, n
  br cond, body, done
body:
  new node, Node
  putfield node, value, i
  putfield node, next, head
  mov head, node
  const one, 1
  binop i, add, i, one
  jmp loop
done:
  ret head
}

method sum(head) {
entry:
  const total, 0
  mov cur, head
  jmp loop
loop:
  const nullv, null
  binop cond, ne, cur, nullv
  br cond, body, done
body:
  getfield v, cur, value
  binop total, add, total, v
  getfield cur, cur, next
  jmp loop
done:
  ret total
}
"""


class TestDispatchTable:
    def _run(self, cfg=JITConfig.STATIC, verify_static=False):
        program, _ = compile_source(WORKLOAD, cfg)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm, verify_static=verify_static)
        result = interp.run("main")
        return result, list(interp.output), interp.executed, vm.barriers.stats

    def test_verify_static_agrees_on_every_config(self):
        """``verify_static`` runs its own tables with every static barrier
        routed through the context assertion; on a program compiled for
        its contexts it must observe exactly what the shared tables do."""
        for cfg in JITConfig:
            plain = self._run(cfg)
            verified = self._run(cfg, verify_static=True)
            assert plain[0] == verified[0], cfg
            assert plain[1] == verified[1], cfg
            assert plain[2] == verified[2], f"{cfg}: executed counts differ"
            assert vars(plain[3]) == vars(verified[3]), cfg

    def test_tables_are_built_and_reused(self):
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC, inline=False)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        interp.run("main")
        assert set(program.exec_tables) == {"main", "build", "sum"}
        assert program.table_builds == 3
        tables = dict(program.exec_tables)
        interp.run("main")
        assert all(program.exec_tables[k] is tables[k] for k in tables)
        assert program.table_builds == 3

    def test_tables_are_shared_across_interpreters(self):
        """Tables cache on the *program*, not the interpreter: a second
        interpreter (fresh VM) over the same program must not rebuild."""
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC, inline=False)
        first = Interpreter(program, LaminarVM(Kernel()))
        r1 = first.run("main")
        builds = program.table_builds
        assert builds == 3
        second = Interpreter(program, LaminarVM(Kernel()))
        r2 = second.run("main")
        assert r1 == r2
        assert program.table_builds == builds, (
            "second interpreter rebuilt handler tables"
        )
        assert first.executed == second.executed

    def test_ir_mutation_rebuilds_tables(self):
        """Passes mutate methods in place between runs; the shape stamp
        taken at ``run()`` must drop stale tables."""
        from repro.jit.ir import Instr, Opcode

        program, _ = compile_source(WORKLOAD, JITConfig.BASELINE, inline=False)
        vm = LaminarVM(Kernel())
        interp = Interpreter(program, vm)
        first = interp.run("main")
        stale = program.exec_tables["sum"]
        # Rewrite sum's body: return the constant 9 immediately.
        method = program.method("sum")
        entry = method.blocks[method.entry]
        entry.instrs[:] = [
            Instr(Opcode.CONST, ("total", 9)),
            Instr(Opcode.RET, ("total",)),
        ]
        second = interp.run("main")
        assert first != second
        assert second == 9
        assert program.exec_tables["sum"] is not stale

    def test_verify_static_bypasses_tables(self):
        """verify_static builds its own tables (static fast paths unbound)
        and never touches the program's shared ones."""
        program, _ = compile_source(WORKLOAD, JITConfig.STATIC, inline=False)
        shared = Interpreter(program, LaminarVM(Kernel()))
        shared.run("main")
        tables = dict(program.exec_tables)
        interp = Interpreter(program, LaminarVM(Kernel()), verify_static=True)
        assert interp.run("main") == shared.run("main")
        assert set(interp._tables) == {"main", "build", "sum"}
        assert all(
            interp._tables[k] is not tables[k] for k in tables
        ), "verify_static reused a shared table"
        assert program.exec_tables == tables
        assert all(program.exec_tables[k] is tables[k] for k in tables)
