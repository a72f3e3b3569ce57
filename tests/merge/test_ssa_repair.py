"""Tests for SSA repair by stack demotion, incl. the Section III-E bugs.

The paper documents two placement bugs in HyFM's demotion logic:

1. a phi definition followed by other phis had its store placed at the end
   of the block while same-block uses loaded *before* that store;
2. an invoke result used by a phi in its successor has no legal store/load
   placement — and needs none, but HyFM inserted a bogus load anyway.

Both are reproduced behind ``legacy_bugs=True`` and shown to miscompile via
the interpreter, while the fixed behaviour preserves semantics.
"""

import pytest

from repro.ir import (
    Interpreter,
    Load,
    Phi,
    Store,
    parse_module,
    print_module,
    verify_function,
    verify_module,
)
from repro.merge import MergeError, find_dominance_violations, repair_ssa
from repro.merge.ssa_repair import _demote_to_stack


def get(module_text, name="f"):
    module = parse_module(module_text)
    return module, module.get_function(name)


_PHI_FUNC = """
define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  %q = phi i32 [ 1, %a ], [ 2, %b ]
  %u = mul i32 %p, %q
  ret i32 %u
}
"""

_INVOKE_FUNC = """
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}

define i32 @f(i32 %x) {
entry:
  %r = invoke i32 @callee(i32 %x) to label %join unwind label %bad
join:
  %p = phi i32 [ %r, %entry ]
  ret i32 %p
bad:
  unreachable
}
"""


class TestViolationDetection:
    def test_clean_function_has_none(self):
        _m, func = get(_PHI_FUNC)
        assert find_dominance_violations(func) == {}

    def test_cross_arm_use_detected(self):
        module, func = get(_PHI_FUNC)
        a_block = func.blocks[1]
        b_block = func.blocks[2]
        va = a_block.instructions[0]
        vb = b_block.instructions[0]
        vb.set_operand(0, va)  # 'b' uses a value defined only in 'a'
        violations = find_dominance_violations(func)
        assert len(violations) == 1
        (value, uses) = next(iter(violations.values()))
        assert value is va
        assert uses == [(vb, 0)]


class TestRepair:
    def test_repair_fixes_cross_arm_use(self):
        module, func = get(_PHI_FUNC)
        a_block, b_block = func.blocks[1], func.blocks[2]
        va = a_block.instructions[0]
        b_block.instructions[0].set_operand(0, va)
        demoted = repair_ssa(func)
        assert demoted == 1
        verify_function(func)
        # Path 'a' is untouched: p = va = 11, q = 1, u = 11.
        assert Interpreter().run(func, [10, 1]).value == 11
        # Path 'b': the load reads the zero-initialized slot, so
        # vb = 0 + 2 = 2, p = 2, q = 2, u = 4 — well-defined, just stale.
        assert Interpreter().run(func, [10, 0]).value == 4

    def test_repair_idempotent(self):
        module, func = get(_PHI_FUNC)
        assert repair_ssa(func) == 0

    def test_nonconvergence_raises(self):
        module, func = get(_PHI_FUNC)
        a_block, b_block = func.blocks[1], func.blocks[2]
        va = a_block.instructions[0]
        b_block.instructions[0].set_operand(0, va)
        with pytest.raises(MergeError):
            repair_ssa(func, max_rounds=0)


class TestBug1PhiStorePlacement:
    """Section III-E bug 1: phi definition followed by other phis."""

    def _demote_p(self, legacy):
        module, func = get(_PHI_FUNC)
        join = func.blocks[3]
        p = join.phis()[0]
        assert p.name == "p"
        _demote_to_stack(func, p, legacy_bugs=legacy)
        return module, func, join

    def test_fixed_stores_right_after_phi_group(self):
        _m, func, join = self._demote_p(legacy=False)
        # Layout: p, q, store(p), load, mul, ret
        kinds = [type(i).__name__ for i in join.instructions]
        assert kinds[:3] == ["Phi", "Phi", "Store"]
        verify_function(func)
        # Semantics preserved: (x+1)*1 on the 'a' path, (x+2)*2 on 'b'.
        assert Interpreter().run(func, [10, 1]).value == 11
        assert Interpreter().run(func, [10, 0]).value == 24

    def test_legacy_stores_at_end_of_block(self):
        _m, func, join = self._demote_p(legacy=True)
        # The store lands right before the terminator — after the load.
        kinds = [type(i).__name__ for i in join.instructions]
        store_pos = kinds.index("Store")
        load_pos = kinds.index("Load")
        assert store_pos > load_pos
        # Miscompile: the same-block use reads the uninitialized slot.
        assert Interpreter().run(func, [10, 1]).value == 0
        assert Interpreter().run(func, [10, 0]).value == 0


class TestBug2InvokePhiUse:
    """Section III-E bug 2: invoke result used by a phi in the successor."""

    def _demote_r(self, legacy):
        module, func = get(_INVOKE_FUNC)
        invoke = func.entry.terminator
        assert invoke.opcode.name == "INVOKE"
        _demote_to_stack(func, invoke, legacy_bugs=legacy)
        return module, func

    def test_fixed_leaves_direct_use(self):
        _m, func = self._demote_r(legacy=False)
        # The phi still references the invoke result directly.
        phi = func.blocks[1].phis()[0]
        assert any(v.opcode.name == "INVOKE" for v, _b in phi.incoming if hasattr(v, "opcode"))
        verify_function(func)
        assert Interpreter().run(func, [42]).value == 42

    def test_legacy_inserts_bogus_load(self):
        _m, func = self._demote_r(legacy=True)
        # A load was inserted before the invoke; the phi reads stale memory.
        entry_kinds = [type(i).__name__ for i in func.entry.instructions]
        assert "Load" in entry_kinds
        assert entry_kinds.index("Load") < entry_kinds.index("Invoke")
        assert Interpreter().run(func, [42]).value == 0

    def test_invoke_with_multi_pred_dest_splits_edge(self):
        text = """
define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}

define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %inv, label %other
inv:
  %r = invoke i32 @callee(i32 %x) to label %join unwind label %bad
other:
  br label %join
join:
  %p = phi i32 [ %r, %inv ], [ 7, %other ]
  ret i32 %p
bad:
  unreachable
}
"""
        module, func = get(text)
        invoke = func.blocks[1].terminator
        _demote_to_stack(func, invoke, legacy_bugs=False)
        verify_function(func)
        assert Interpreter().run(func, [42, 1]).value == 42
        assert Interpreter().run(func, [42, 0]).value == 7


class TestEndToEndRepairs:
    def test_merged_functions_sometimes_need_repair(self):
        """Merging similar-but-divergent CFGs must exercise the repair
        path and still produce verifier-clean, equivalent code."""
        text = """
define i32 @f1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %c = icmp sgt i32 %a, 10
  br i1 %c, label %big, label %small
big:
  %b1 = mul i32 %a, 3
  br label %join
small:
  %s1 = sub i32 %a, 4
  br label %join
join:
  %p = phi i32 [ %b1, %big ], [ %s1, %small ]
  %z = xor i32 %p, %a
  ret i32 %z
}
define i32 @f2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %c = icmp sgt i32 %a, 10
  br i1 %c, label %big, label %small
big:
  %b1 = mul i32 %a, 3
  %b2 = add i32 %b1, 100
  br label %join
small:
  %s1 = sub i32 %a, 4
  br label %join
join:
  %p = phi i32 [ %b2, %big ], [ %s1, %small ]
  %z = xor i32 %p, %a
  ret i32 %z
}
"""
        from repro.alignment import align_functions
        from repro.merge import merge_functions

        module = parse_module(text)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(align_functions(f1, f2), module)
        verify_function(result.merged)
        interp = Interpreter()
        for x in (0, 9, 10, 50):
            assert interp.run(result.merged, [0, x]).value == interp.run(f1, [x]).value
            assert interp.run(result.merged, [1, x]).value == interp.run(f2, [x]).value

    def test_repair_names_never_clash_with_inherited_names(self):
        """A re-merged function inherits ``%reloadN`` names from the merge
        that built it; the names repair hands out next must not redefine
        them, or the printed module stops parsing."""
        text = """
define i32 @f1(i32 %x) {
entry:
  %reload1 = add i32 %x, 1
  %reload2 = icmp sgt i32 %reload1, 10
  br i1 %reload2, label %big, label %small
big:
  %reload3 = mul i32 %reload1, 3
  br label %join
small:
  %reload4 = sub i32 %reload1, 4
  br label %join
join:
  %p = phi i32 [ %reload3, %big ], [ %reload4, %small ]
  %reload5 = xor i32 %p, %reload1
  ret i32 %reload5
}
define i32 @f2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %c = icmp sgt i32 %a, 10
  br i1 %c, label %big, label %small
big:
  %b1 = mul i32 %a, 3
  %b2 = add i32 %b1, 100
  br label %join
small:
  %s1 = sub i32 %a, 4
  br label %join
join:
  %p = phi i32 [ %b2, %big ], [ %s1, %small ]
  %z = xor i32 %p, %a
  ret i32 %z
}
"""
        from repro.alignment import align_functions
        from repro.merge import merge_functions

        module = parse_module(text)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(align_functions(f1, f2), module)
        assert result.repairs > 0
        printed = print_module(module)
        reparsed = parse_module(printed)
        verify_module(reparsed)
        assert print_module(reparsed) == printed
