"""Tests for the transactional merge-attempt bracket."""

import pytest

from repro.alignment import align_functions
from repro.faults import FaultInjector
from repro.ir import Interpreter, parse_module, print_module, verify_module
from repro.merge import (
    FunctionMergingPass,
    MergeTransaction,
    PassConfig,
    commit_merge,
    merge_functions,
)
from repro.merge.reconcile import RetainedMerge, RetainingTransaction
from repro.merge.thunks import thunk_plan
from repro.search import ExhaustiveRanker


def _module_with_callers():
    text = """
define i32 @f1(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @f2(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 7
  ret i32 %b
}
define i32 @main(i32 %x) {
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}
"""
    return parse_module(text)


def _merge_pair(module):
    f1, f2 = module.get_function("f1"), module.get_function("f2")
    return merge_functions(align_functions(f1, f2), module)


class TestRollback:
    def test_rollback_after_codegen_restores_module_text(self):
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        _merge_pair(module)  # adds @merged.f1.f2 to the module
        assert print_module(module) != before
        txn.rollback()
        assert print_module(module) == before
        verify_module(module)

    def test_rollback_after_commit_restores_module_text(self):
        module = _module_with_callers()
        before = print_module(module)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        # Originals gone, merged function live, caller rewritten.
        assert module.get_function("f1") is None
        txn.rollback()
        assert print_module(module) == before
        verify_module(module)
        # Identity is preserved: the restored functions are the same objects.
        assert module.get_function("f1") is f1
        assert module.get_function("f2") is f2

    def test_rollback_preserves_semantics(self):
        module = _module_with_callers()
        main = module.get_function("main")
        ref = {x: Interpreter().run(main, [x]).value for x in (0, 4, 9)}
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        txn.rollback()
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("main"), [x]).value == expected

    def test_rollback_is_idempotent(self):
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        txn.capture(module.get_function("f1"))
        txn.rollback()
        txn.rollback()  # second call must be a silent no-op
        assert print_module(module) == before

    def test_rollback_after_commit_is_noop(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        txn.capture_commit_set(result.function_a, result.function_b)
        commit_merge(result)
        txn.commit()
        after = print_module(module)
        txn.rollback()  # must not undo a committed merge
        assert print_module(module) == after
        assert module.get_function("merged.f1.f2") is not None


class TestCapture:
    def test_captured_flag(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        assert not txn.captured
        txn.capture(module.get_function("f1"))
        assert txn.captured

    def test_capture_after_close_raises(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.capture(module.get_function("f1"))

    def test_commit_set_includes_callers(self):
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        txn = MergeTransaction(module)
        txn.capture_commit_set(f1, f2)
        captured = {b.function.name for b in txn._backups.values()}
        assert captured == {"f1", "f2", "main"}

    def test_backups_do_not_inflate_use_counts(self):
        # The snapshot must be invisible to use-count queries: a clone with
        # registered uses would double @f1's caller count and trip the
        # dangling-use check during a later commit.
        module = _module_with_callers()
        f1 = module.get_function("f1")
        callers_before = len(f1.callers())
        uses_before = f1.num_uses
        txn = MergeTransaction(module)
        txn.capture_commit_set(f1, module.get_function("f2"))
        assert len(f1.callers()) == callers_before
        assert f1.num_uses == uses_before
        txn.rollback()
        assert len(f1.callers()) == callers_before
        assert f1.num_uses == uses_before

    def test_empty_rollback_is_free(self):
        # Attempts that fail before codegen captured nothing; rollback must
        # still leave the module untouched.
        module = _module_with_callers()
        before = print_module(module)
        txn = MergeTransaction(module)
        txn.rollback()
        assert print_module(module) == before


_BODY = """
  %a = add i32 %x, %y
  %b = mul i32 %a, {k}
  %c = xor i32 %b, 21
  %d = sub i32 %c, %y
  %e1 = add i32 %d, %x
  %e2 = mul i32 %e1, %e1
  %e3 = xor i32 %e2, %a
  %e4 = sub i32 %e3, 5
  %e5 = shl i32 %e4, 2
  %e6 = and i32 %e5, %b
"""

# @f2 calls its merge partner @f1.
_PARTNER_CALL = f"""
define i32 @f1(i32 %x, i32 %y) {{
entry:{_BODY.format(k=3)}  ret i32 %e6
}}
define i32 @f2(i32 %x, i32 %y) {{
entry:{_BODY.format(k=7)}  %r = call i32 @f1(i32 %e6, i32 %y)
  ret i32 %r
}}
define i32 @main(i32 %x) {{
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}}
"""

# @main passes @f1 as a value, so @f1 must survive a merge as a thunk.
_ADDRESS_TAKEN = f"""
define i32 @f1(i32 %x, i32 %y) {{
entry:{_BODY.format(k=3)}  ret i32 %e6
}}
define i32 @f2(i32 %x, i32 %y) {{
entry:{_BODY.format(k=7)}  ret i32 %e6
}}
declare i32 @apply(i32 (i32, i32)*, i32)
define i32 @main(i32 %x) {{
entry:
  %r1 = call i32 @apply(i32 (i32, i32)* @f1, i32 %x)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}}
"""

# Each original passes its partner as a value, but only from a block that
# is unreachable, so the merged function does not inherit the reference.
_DEAD_PARTNER_REFERENCE = f"""
declare i32 @apply(i32 (i32, i32)*, i32)
define i32 @f1(i32 %x, i32 %y) {{
entry:{_BODY.format(k=3)}  ret i32 %e6
dead:
  %u = call i32 @apply(i32 (i32, i32)* @f2, i32 %x)
  ret i32 %u
}}
define i32 @f2(i32 %x, i32 %y) {{
entry:{_BODY.format(k=7)}  ret i32 %e6
dead:
  %u = call i32 @apply(i32 (i32, i32)* @f1, i32 %x)
  ret i32 %u
}}
define i32 @main(i32 %x) {{
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}}
"""


class TestMovedBodyCapture:
    """The commit set's originals are moved into their snapshots, not
    cloned; everything that reads the snapshot must not notice."""

    def test_originals_are_moved_and_callers_cloned(self):
        module = _module_with_callers()
        f1, f2, main = (module.get_function(n) for n in ("f1", "f2", "main"))
        f1_blocks = list(f1.blocks)
        main_blocks = list(main.blocks)
        txn = MergeTransaction(module)
        txn.capture_commit_set(f1, f2)
        assert f1.is_declaration and f2.is_declaration
        assert all(arg.num_uses == 0 for arg in f1.args)
        backup = txn._backups[id(f1)].body
        assert backup.blocks == f1_blocks
        own_args = {id(arg) for arg in backup.args}
        for inst in backup.instructions():
            assert inst.parent.parent is backup
            for op in inst.operands:
                assert op not in f1.args
            assert not inst._uses
        assert {id(op) for inst in backup.instructions() for op in inst.operands} & own_args
        # Callers stay live; their snapshot is a separate clone.
        assert main.blocks == main_blocks
        assert txn._backups[id(main)].body.blocks[0] is not main_blocks[0]
        txn.rollback()
        assert print_module(module) == print_module(_module_with_callers())

    def test_commit_releases_snapshots(self):
        module = _module_with_callers()
        txn = MergeTransaction(module)
        result = _merge_pair(module)
        thunks = thunk_plan(result)
        txn.capture_commit_set(result.function_a, result.function_b)
        bodies = [backup.body for backup in txn._backups.values()]
        commit_merge(result, thunks=thunks)
        txn.commit()
        assert all(body.is_declaration for body in bodies)
        verify_module(module)

    @pytest.mark.parametrize("text", [_PARTNER_CALL, _ADDRESS_TAKEN], ids=["partner-call", "address-taken"])
    def test_commit_fault_rolls_back_bit_identically(self, text):
        module = parse_module(text)
        before = print_module(module)
        faults = FaultInjector("commit")
        report = FunctionMergingPass(ExhaustiveRanker(), PassConfig(), faults=faults).run(module)
        assert faults.fired >= 1
        assert report.merges == 0
        assert "rolled_back" in [a.outcome for a in report.attempts]
        assert print_module(module) == before
        verify_module(module)

    @pytest.mark.parametrize("text", [_PARTNER_CALL, _ADDRESS_TAKEN], ids=["partner-call", "address-taken"])
    def test_commit_without_fault_preserves_behaviour(self, text):
        module = parse_module(text)
        main = module.get_function("main")
        ref = [Interpreter().run(main, [x]).value for x in (0, 4)] if text is _PARTNER_CALL else None
        report = FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        assert report.merges == 1
        verify_module(module)
        if ref is not None:
            assert [Interpreter().run(main, [x]).value for x in (0, 4)] == ref
        else:
            # The thunk decision read the live bodies: @f1 stays a thunk.
            assert len(module.get_function("f1").blocks) == 1

    def test_thunk_decision_matches_the_sequential_commit(self):
        # The commit handles @f1 first: @f2's body (and its reference to
        # @f1) is still live, so @f1 stays a thunk; by the time @f2 is
        # decided @f1's body is gone, so @f2 is erased.  Moving the bodies
        # out before the commit must not change either decision.
        module = parse_module(_DEAD_PARTNER_REFERENCE)
        report = FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        assert report.merges == 1
        assert len(module.get_function("f1").blocks) == 1
        assert module.get_function("f2") is None
        verify_module(module)

    def test_retained_undo_after_moved_capture_is_bit_identical(self):
        for text in (_PARTNER_CALL, _ADDRESS_TAKEN):
            module = parse_module(text)
            before = print_module(module)
            txns = []

            def factory(mod):
                txns.append(RetainingTransaction(mod))
                return txns[-1]

            report = FunctionMergingPass(
                ExhaustiveRanker(), PassConfig(), transaction_factory=factory
            ).run(module)
            merged = [a for a in report.attempts if a.success]
            assert len(merged) == 1
            txn = next(t for t in txns if t.retained)
            # The retained snapshots keep their bodies after the commit.
            assert all(not b.body.is_declaration for b in txn.retained.values())
            retained = RetainedMerge(
                seq=1,
                partition=0,
                function_a=merged[0].function,
                function_b=merged[0].candidate,
                merged_name=merged[0].merged_name,
                saving=merged[0].saving,
                backups=txn.retained,
                pre_order=txn.retained_order,
            )
            retained.undo(module)
            assert print_module(module) == before
            verify_module(module)
