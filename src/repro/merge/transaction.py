"""Transactional protection for merge attempts.

Committing a merge is a multi-step module mutation — rewrite every call
site of both originals, thunk or delete the originals — and any failure
part-way through (a codegen bug, a vetoed oracle check, an injected
fault) would otherwise leave the module half-rewritten.  A
:class:`MergeTransaction` brackets one attempt:

* at construction it records the module's function table (names, order);
* :meth:`capture` snapshots the bodies of functions about to be mutated
  as *detached* clones whose operand uses are unregistered, so the
  snapshot is invisible to use-count queries on the live module;
* :meth:`capture_commit_set` snapshots what a commit mutates: every
  function containing a call site of either original is cloned, and the
  two originals' bodies are *moved* into their snapshots instead — the
  commit thunks or erases those bodies anyway, so cloning them would be
  wasted work.  The originals are declarations afterwards, so the
  thunk-or-erase decision (:func:`~repro.merge.thunks.thunk_plan`) must
  be taken before the capture;
* :meth:`rollback` restores captured bodies onto the *same* function
  objects (identity is preserved — rankers and worklists keep working),
  re-adds any function the commit deleted, erases any function the
  attempt created, and restores the original function-table order so the
  module prints bit-identically to its pre-attempt snapshot;
* :meth:`commit` discards the snapshots, breaking their block and
  instruction reference cycles so they are freed at once rather than at
  the next cyclic garbage collection.

The snapshot cost is proportional to the functions actually touched by
the attempt, not to the module, so the common failure paths (rejected
threshold, failed alignment, a codegen stopped over its size limit) pay
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..ir.clone import clone_function_into
from ..ir.function import Function
from ..ir.module import Module
from ..obs import trace

__all__ = ["MergeTransaction"]


@dataclass
class _FunctionBackup:
    """Detached body (a clone, or the moved original) plus the mutable
    attributes of one function."""

    function: Function
    body: Function
    internal: bool
    name: str
    name_counter: int


def _unlink_uses(func: Function) -> None:
    """Unregister every operand use in *func* while keeping operand lists.

    Backup clones are templates, never executed or traversed through
    use-def chains; leaving their uses registered would inflate
    ``num_uses``/``callers()`` on live functions and break the dangling-use
    check during commit.
    """
    for block in func.blocks:
        for inst in block.instructions:
            for idx, op in enumerate(inst._operands):
                op._remove_use(inst, idx)


def _move_body(func: Function, backup: Function) -> None:
    """Move *func*'s blocks into the empty *backup*, leaving *func* a
    declaration and *backup* exactly what a clone plus
    :func:`_unlink_uses` would give: operands that named *func*'s
    arguments name *backup*'s, and no operand use is registered."""
    args = {id(src): dst for src, dst in zip(func.args, backup.args)}
    for block in func.blocks:
        block.parent = backup
        for inst in block.instructions:
            operands = inst._operands
            for idx, op in enumerate(operands):
                op._remove_use(inst, idx)
                arg = args.get(id(op))
                if arg is not None:
                    operands[idx] = arg
    backup.blocks = func.blocks
    func.blocks = []


class MergeTransaction:
    """All-or-nothing bracket around one merge attempt on *module*."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._baseline_order: List[str] = list(module._functions.keys())
        self._baseline_names = set(self._baseline_order)
        self._backups: Dict[int, _FunctionBackup] = {}
        self._closed = False

    # -- snapshotting ------------------------------------------------------------
    @property
    def captured(self) -> bool:
        """True once any function body has been snapshotted."""
        return bool(self._backups)

    def captured_functions(self) -> List[Function]:
        """The live functions whose bodies have been snapshotted.

        These are exactly the functions a commit (or its rollback) may
        mutate — the set callers use to invalidate body-derived memos
        (alignment encodings, block fingerprints, profitability profiles).
        """
        return [backup.function for backup in self._backups.values()]

    def capture(self, *functions: Function) -> None:
        """Snapshot *functions* (idempotent per function)."""
        self._capture(functions, move=False)

    def capture_commit_set(self, *originals: Function) -> None:
        """Snapshot *originals* plus every function calling into them.

        The originals' bodies are moved into the snapshot, not cloned:
        they are declarations when this returns.
        """
        callers = []
        for func in originals:
            for site in func.callers():
                block = site.parent
                caller = block.parent if block is not None else None
                if caller is not None:
                    callers.append(caller)
        self._capture(originals, move=True)
        self._capture(callers, move=False)

    def _capture(self, functions, move: bool) -> None:
        if self._closed:
            raise RuntimeError("transaction already closed")
        for func in functions:
            if func is None or id(func) in self._backups:
                continue
            backup = Function(func.ftype, func.name)
            for src, dst in zip(func.args, backup.args):
                dst.name = src.name
            if move:
                _move_body(func, backup)
            else:
                clone_function_into(func, backup)
                _unlink_uses(backup)
            self._backups[id(func)] = _FunctionBackup(
                func, backup, func.internal, func.name, func._name_counter
            )

    # -- resolution --------------------------------------------------------------
    def commit(self) -> None:
        """Keep the mutations; drop the snapshots."""
        trace.event("txn_commit", captured=len(self._backups))
        self._release_backups()
        self._closed = True

    def _release_backups(self) -> None:
        """Free the snapshots of a committed attempt.

        A snapshot's blocks and instructions point at each other; dropping
        the body breaks those cycles, so the memory returns at once.
        """
        for backup in self._backups.values():
            backup.body.drop_body()
        self._backups.clear()

    def rollback(self) -> None:
        """Restore the module to its state at transaction start.

        Idempotent: a second call (or a call after :meth:`commit`) is a
        no-op so failure-path cleanup can never mask the original error.
        """
        if self._closed:
            return
        trace.event("txn_rollback", captured=len(self._backups))
        module = self.module
        # 1. Restore captured bodies onto the original function objects.
        for backup in self._backups.values():
            func = backup.function
            func.drop_body()
            vmap = {
                id(src): dst for src, dst in zip(backup.body.args, func.args)
            }
            clone_function_into(backup.body, func, vmap)
            func.internal = backup.internal
            func.name = backup.name
            func._name_counter = backup.name_counter
            if module._functions.get(func.name) is not func:
                func.parent = module
                module._functions[func.name] = func
        # 2. Erase anything the attempt added (e.g. the merged function).
        for func in list(module._functions.values()):
            if func.name not in self._baseline_names:
                func.erase_from_parent()
        # 3. Restore the function-table order so printing is bit-identical.
        #    Only needed when membership changed; plain deletions above keep
        #    the relative order of survivors.
        if self._backups:
            module._functions = {
                name: module._functions[name]
                for name in self._baseline_order
                if name in module._functions
            }
        self._backups.clear()
        self._closed = True
