"""Code-size model.

The paper measures linked object file bytes.  We have no object files, so we
use a weighted instruction count calibrated to typical x86-64 encodings:
every instruction costs a base amount, with memory and call instructions
slightly heavier and phi nodes free (they lower to copies that are usually
coalesced away).  All F3M results are *relative* sizes, so any consistent
monotone model preserves the paper's comparisons; the weights only make the
absolute percentages land in a realistic range.
"""

from __future__ import annotations

from typing import Dict

from ..ir.function import Function
from ..ir.instructions import Instruction, Opcode
from ..ir.module import Module

__all__ = ["instruction_size", "function_size", "module_size", "size_breakdown"]

# Approximate encoded bytes per instruction kind.
_WEIGHTS: Dict[Opcode, int] = {
    Opcode.PHI: 0,  # lowered to coalesced copies
    Opcode.BR: 2,
    Opcode.RET: 1,
    Opcode.UNREACHABLE: 1,
    Opcode.SWITCH: 6,
    Opcode.ALLOCA: 4,
    Opcode.LOAD: 4,
    Opcode.STORE: 4,
    Opcode.GEP: 4,
    Opcode.CALL: 5,
    Opcode.INVOKE: 8,
    Opcode.SELECT: 4,
    Opcode.ICMP: 3,
    Opcode.FCMP: 4,
}
_DEFAULT_WEIGHT = 3
_FUNCTION_OVERHEAD = 12  # prologue/epilogue, alignment padding


def instruction_size(inst: Instruction) -> int:
    """Modelled encoded size of one instruction, in bytes."""
    return _WEIGHTS.get(inst.opcode, _DEFAULT_WEIGHT)


def function_size(func: Function) -> int:
    """Modelled size of a function body (0 for declarations)."""
    if func.is_declaration:
        return 0
    weight = _WEIGHTS.get
    return _FUNCTION_OVERHEAD + sum(
        weight(inst.opcode, _DEFAULT_WEIGHT)
        for block in func.blocks
        for inst in block.instructions
    )


def module_size(module: Module) -> int:
    """Modelled linked object size of the module."""
    return sum(function_size(f) for f in module.functions)


def size_breakdown(module: Module) -> Dict[str, int]:
    """Per-function size map (diagnostics and reports)."""
    return {f.name: function_size(f) for f in module.functions if not f.is_declaration}
