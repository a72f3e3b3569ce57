"""Parser for the textual repro IR (the format produced by the printer).

The grammar is a compact LLVM dialect — see :mod:`repro.ir.printer`.  Every
``repro merge``/``lint``/``stats``/``run`` and every ``repro serve`` request
carrying module text goes through :func:`parse_module`.

One scan: a single ``findall`` of a group-free pattern cuts the text into
token strings, walked with an integer cursor.  A token's kind is decided
where it is used, from its first character.  Lines are not tracked: a
:class:`ParseError` re-scans the text to find its line.  Function headers
are read from the same tokens first, so calls may name later functions.

Error contract: malformed text raises :class:`ParseError` and nothing else,
at the line of the token under the cursor when the problem is found (for
most errors, the token after the offending one).  What an IR constructor
rejects with ``TypeError``/``ValueError`` (``i0``, a ``load`` from a
non-pointer) is re-raised as a ``ParseError``.
"""

from __future__ import annotations

import gc
import re
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    FCmpPred,
    GetElementPtr,
    ICmp,
    ICmpPred,
    Instruction,
    Invoke,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
    BINARY_OPCODES,
    CAST_OPCODES,
)
from .module import Module
from .types import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FunctionType,
    IntType,
    LABEL,
    PointerType,
    StructType,
    Type,
    VOID,
)
from .values import ConstantFloat, ConstantInt, ConstantNull, UndefValue, Value

__all__ = ["ParseError", "parse_module", "parse_function"]

T = TypeVar("T")


class ParseError(Exception):
    """Malformed IR text: ``message`` found at 1-based ``line``."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


# Locals, globals, floats, integers, words, then any other single character
# (punctuation, or a character no token may start with).  Whitespace is
# skipped by ``findall``; comments are removed before the scan.
_TOKEN_RE = re.compile(
    r"%[A-Za-z0-9_.\-]+|@[A-Za-z0-9_.\-$]+|-?\d+\.\d+(?:e[-+]?\d+)?|-?inf|nan"
    r"|-?\d+|[A-Za-z_][A-Za-z0-9_.\-]*|\S"
)
_COMMENT_RE = re.compile(r";[^\n]*")
# The single-character tokens that are real tokens rather than stray input.
_SINGLE_CHAR_RE = re.compile(r"[A-Za-z_*(){}\[\],:=]|\d")

_SIMPLE_TYPES: Dict[str, Type] = {"void": VOID, "label": LABEL, "float": FLOAT, "double": DOUBLE}
_ICMP_PREDS = {p.name.lower(): p for p in ICmpPred}
_FCMP_PREDS = {p.name.lower(): p for p in FCmpPred}
_CAST_WORDS = {op.name.lower(): op for op in CAST_OPCODES}
_BINARY_WORDS = {op.name.lower(): op for op in BINARY_OPCODES}


def _kind(tok: str) -> str:
    """``local``, ``global``, ``float``, ``int``, ``word`` or ``punct``."""
    c = tok[0]
    if c == "%":
        return "local"
    if c == "@":
        return "global"
    if c == "-" or c.isdecimal() or tok == "inf" or tok == "nan":
        return "float" if "." in tok or tok.endswith("inf") or tok == "nan" else "int"
    return "word" if c == "_" or (c.isascii() and c.isalpha()) else "punct"


class _Parser:
    """Cursor over one module's token list; parses into ``module``."""

    def __init__(self, text: str, module: Module) -> None:
        if ";" in text:
            text = _COMMENT_RE.sub("", text)  # keeps every newline
        self.text = text
        self.toks: List[str] = _TOKEN_RE.findall(text)
        self.toks.append("")  # end-of-input sentinel: matches no expected token
        self.i = 0
        self.module = module
        # Simple types by spelling; ``iN`` spellings are added on first use.
        self.types = dict(_SIMPLE_TYPES)
        # Per-function name tables (reset by ``body``).
        self.locals: Dict[str, Value] = {}
        self.placeholders: Dict[str, Value] = {}
        self.block_placeholders: Dict[str, BasicBlock] = {}

    # -- cursor -------------------------------------------------------------------
    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """A ParseError at token *index* (default: the cursor)."""
        index = min(self.i if index is None else index, len(self.toks) - 2)
        match = next(islice(_TOKEN_RE.finditer(self.text), max(index, 0), None), None)
        start = match.start() if match else 0
        return ParseError(message, self.text.count("\n", 0, start) + 1)

    def next(self) -> str:
        tok = self.toks[self.i]
        if not tok:
            raise self.error("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        if self.toks[self.i] != value:
            got = self.next()
            raise self.error(f"expected {value!r}, got {got!r}")
        self.i += 1

    def accept(self, value: str) -> bool:
        if self.toks[self.i] == value:
            self.i += 1
            return True
        return False

    # -- types --------------------------------------------------------------------
    def type(self) -> Type:
        tok = self.next()
        base = self.types.get(tok)
        if base is None:
            if tok[0] == "i" and tok[1:].isdigit():
                base = self.types[tok] = IntType(int(tok[1:]))
            elif tok == "[":
                count = self.next()
                if _kind(count) != "int":
                    raise self.error(f"expected an array length, got {count!r}")
                self.expect("x")
                elem = self.type()
                self.expect("]")
                base = ArrayType(elem, int(count))
            elif tok == "{":
                base = StructType(self.items(self.type, "}"))
            else:
                raise self.error(f"expected a type, got {tok!r}")
        # Suffixes: "(params)" builds a function type, "*" a pointer.  This is
        # unambiguous because every call-like construct puts the callee token
        # between the return type and its argument parenthesis, so a "(" right
        # after a type can only be a function-type parameter list (the operand
        # spelling of address-taken functions: ``i32 (i32)* @callee``).
        toks = self.toks
        while True:
            tok = toks[self.i]
            if tok == "*":
                self.i += 1
                base = PointerType(base)
            elif tok == "(":
                self.i += 1
                base = FunctionType(base, self.items(self.type, ")"))
            else:
                return base

    def items(self, parse: Callable[[], T], close: str) -> List[T]:
        """Comma-separated ``parse()`` results up to and including *close*."""
        out: List[T] = []
        if not self.accept(close):
            out.append(parse())
            while self.accept(","):
                out.append(parse())
            self.expect(close)
        return out

    # -- names --------------------------------------------------------------------
    def define(self, name: str, value: Value) -> None:
        if name in self.locals:
            raise self.error(f"redefinition of %{name}")
        self.locals[name] = value

    def block_ref(self, label: str) -> BasicBlock:
        existing = self.locals.get(label)
        if isinstance(existing, BasicBlock):
            return existing
        ph = self.block_placeholders.get(label)
        if ph is None:
            ph = self.block_placeholders[label] = BasicBlock(label)
        return ph

    def resolve(self) -> None:
        """Replace the body's forward references by their definitions."""
        for table, want, what in (
            (self.placeholders, Value, "value"),
            (self.block_placeholders, BasicBlock, "label"),
        ):
            for name, ph in table.items():
                real = self.locals.get(name)
                if not isinstance(real, want):
                    raise self.error(f"use of undefined {what} %{name}")
                ph.replace_all_uses_with(real)

    # -- operands -----------------------------------------------------------------
    def value(self, type_: Type) -> Value:
        tok = self.next()
        if tok[0] == "%":
            name = tok[1:]
            found = self.locals.get(name)
            if found is None:
                found = self.placeholders.get(name)
                if found is None:
                    found = self.placeholders[name] = Value(type_, name)
            return found
        kind = _kind(tok)
        if kind == "global":
            func = self.module.get_function(tok[1:])
            if func is None:
                raise self.error(f"unknown function {tok}")
            return func
        if kind == "float" or (kind == "int" and type_.is_float):
            return ConstantFloat(type_, float(tok))  # type: ignore[arg-type]
        if kind == "int":
            if not type_.is_int:
                raise self.error(f"integer literal for type {type_}")
            return ConstantInt(type_, int(tok))  # type: ignore[arg-type]
        if tok == "null":
            return ConstantNull(type_)  # type: ignore[arg-type]
        if tok == "undef":
            return UndefValue(type_)
        raise self.error(f"expected a value, got {tok!r}")

    def typed_value(self) -> Value:
        return self.value(self.type())

    def label(self) -> BasicBlock:
        self.expect("label")
        tok = self.next()
        if tok[0] != "%":
            raise self.error(f"expected a label, got {tok!r}")
        return self.block_ref(tok[1:])

    def operand_pair(self) -> Tuple[Value, Value]:
        """``<ty> a, b``: two operands of one type."""
        ty = self.type()
        a = self.value(ty)
        self.expect(",")
        return a, self.value(ty)

    # -- instructions -------------------------------------------------------------
    def instruction(self, block: BasicBlock) -> None:
        tok = self.next()
        name: Optional[str] = None
        if tok[0] == "%":
            name = tok[1:]
            self.expect("=")
            tok = self.next()
        handler = _INSTRUCTIONS.get(tok)
        if handler is None:
            raise self.error(f"unknown instruction {tok!r}")
        inst = handler(self, tok)
        if name is not None:
            if inst.type.is_void:
                raise self.error(f"void instruction cannot be named %{name}")
            inst.name = name
            self.define(name, inst)
        block.append(inst)

    def ret(self, op: str) -> Instruction:
        return Ret(None) if self.accept("void") else Ret(self.typed_value())

    def br(self, op: str) -> Instruction:
        if self.toks[self.i] == "label":
            return Branch(self.label())
        cond = self.typed_value()
        self.expect(",")
        t = self.label()
        self.expect(",")
        return Branch(cond, t, self.label())

    def switch(self, op: str) -> Instruction:
        value = self.typed_value()
        self.expect(",")
        default = self.label()
        self.expect("[")
        sw = Switch(value, default)
        while not self.accept("]"):
            const = self.typed_value()
            target = self.label()
            if not isinstance(const, ConstantInt):
                raise self.error("switch case must be an integer constant")
            sw.add_case(const, target)
            self.accept(",")
        return sw

    def cmp(self, op: str) -> Instruction:
        word = self.next()
        pred = (_ICMP_PREDS if op == "icmp" else _FCMP_PREDS).get(word)
        if pred is None:
            raise self.error(f"unknown {op} predicate {word!r}")
        a, b = self.operand_pair()
        return ICmp(pred, a, b) if op == "icmp" else FCmp(pred, a, b)  # type: ignore[arg-type]

    def select(self, op: str) -> Instruction:
        cond = self.typed_value()
        self.expect(",")
        t = self.typed_value()
        self.expect(",")
        return Select(cond, t, self.typed_value())

    def load(self, op: str) -> Instruction:
        self.type()  # result type (redundant)
        self.expect(",")
        return Load(self.typed_value())

    def store(self, op: str) -> Instruction:
        value = self.typed_value()
        self.expect(",")
        return Store(value, self.typed_value())

    def gep(self, op: str) -> Instruction:
        pointer = self.typed_value()
        indices = []
        while self.accept(","):
            indices.append(self.typed_value())
        return GetElementPtr(pointer, indices)

    def call(self, op: str) -> Instruction:
        ret_ty = self.type()
        tok = self.next()
        kind = _kind(tok)
        if kind == "local":
            raise self.error("indirect calls are not supported in text IR")
        if kind != "global":
            raise self.error(f"expected a callee, got {tok!r}")
        callee = self.module.get_function(tok[1:])
        if callee is None:
            raise self.error(f"unknown function {tok}")
        self.expect("(")
        args = self.items(self.typed_value, ")")
        inst: Instruction
        if op == "call":
            inst = Call(callee, args)
        else:
            self.expect("to")
            normal = self.label()
            self.expect("unwind")
            inst = Invoke(callee, args, normal, self.label())
        if inst.type is not ret_ty:
            raise self.error(f"call result type {ret_ty} != callee return {inst.type}")
        return inst

    def phi(self, op: str) -> Instruction:
        ty = self.type()
        phi = Phi(ty)
        while True:
            self.expect("[")
            value = self.value(ty)
            self.expect(",")
            tok = self.next()
            if tok[0] != "%":
                raise self.error("expected phi incoming label")
            self.expect("]")
            phi.add_incoming(value, self.block_ref(tok[1:]))
            if not self.accept(","):
                return phi

    def cast(self, op: str) -> Instruction:
        value = self.typed_value()
        self.expect("to")
        return Cast(_CAST_WORDS[op], value, self.type())

    def binary(self, op: str) -> Instruction:
        a, b = self.operand_pair()
        return BinaryOp(_BINARY_WORDS[op], a, b)

    # -- functions and the module -------------------------------------------------
    def header(self) -> Tuple[Type, str, List[Type], List[str]]:
        """``<ret> @name(<params>)`` after ``define``/``declare``."""
        ret = self.type()
        tok = self.next()
        if tok[0] != "@":
            raise self.error(f"expected @name, got {tok!r}")
        self.expect("(")
        params = self.items(self.param, ")")
        names = [name or f"arg{k}" for k, (_, name) in enumerate(params)]
        return ret, tok[1:], [ty for ty, _ in params], names

    def param(self) -> Tuple[Type, str]:
        """``<ty> [%name]``; the name is empty when omitted."""
        ty = self.type()
        tok = self.toks[self.i]
        if tok[:1] != "%":
            return ty, ""
        self.i += 1
        return ty, tok[1:]

    def declare_functions(self) -> None:
        """Create every function named by a header, in text order."""
        toks = self.toks
        starts = []
        for word in ("define", "declare"):
            index = -1
            for _ in range(toks.count(word)):
                index = toks.index(word, index + 1)
                starts.append(index)
        defined = set()
        for start in sorted(starts):
            if toks[start + 1] == ":":
                continue  # a block labelled ``define:``
            self.i = start + 1
            ret, name, types, _ = self.header()
            is_def = toks[start] == "define"
            if self.module.get_function(name) is None:
                Function(FunctionType(ret, types), name, parent=self.module, internal=is_def)
            if is_def:
                if name in defined:
                    raise self.error(f"redefinition of @{name}", start)
                defined.add(name)

    def body(self, func: Function) -> None:
        self.locals, self.placeholders, self.block_placeholders = {}, {}, {}
        for arg in func.args:
            self.define(arg.name, arg)
        self.expect("{")
        toks = self.toks
        current: Optional[BasicBlock] = None
        while not self.accept("}"):
            tok = toks[self.i]
            if not tok:
                raise self.error("unterminated function body")
            if toks[self.i + 1] == ":" and _kind(tok) in ("word", "int"):
                self.i += 2
                current = BasicBlock(tok, func)
                self.define(tok, current)
            elif current is None:
                raise self.error("instruction outside any block")
            else:
                self.instruction(current)
        self.resolve()

    def parse(self) -> None:
        bad = {t for t in set(self.toks) if len(t) == 1 and not _SINGLE_CHAR_RE.match(t)}
        if bad:
            index = min(self.toks.index(t) for t in bad)
            raise self.error(f"unexpected character {self.toks[index]!r}", index)
        self.declare_functions()
        self.i = 0
        while self.toks[self.i]:
            tok = self.next()
            if tok == "define":
                _, name, _, names = self.header()
                func = self.module.get_function(name)
                assert func is not None  # created by declare_functions
                for arg, argname in zip(func.args, names):
                    arg.name = argname
                self.body(func)
            elif tok == "declare":
                self.header()
            else:
                raise self.error(f"expected 'define' or 'declare', got {tok!r}")


_INSTRUCTIONS: Dict[str, Callable[[_Parser, str], Instruction]] = {
    **{op: getattr(_Parser, op) for op in ("ret", "br", "switch", "select", "load")},
    **{op: getattr(_Parser, op) for op in ("store", "gep", "call", "phi")},
    "icmp": _Parser.cmp,
    "fcmp": _Parser.cmp,
    "invoke": _Parser.call,
    "alloca": lambda parser, op: Alloca(parser.type()),
    "unreachable": lambda parser, op: Unreachable(),
    **dict.fromkeys(_CAST_WORDS, _Parser.cast),
    **dict.fromkeys(_BINARY_WORDS, _Parser.binary),
}


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a whole module from its textual form."""
    module = Module(name)
    parser = _Parser(text, module)
    # Parsing allocates the whole module and frees almost nothing, so cyclic
    # collections during it only re-walk live objects.
    collect = gc.isenabled()
    gc.disable()
    try:
        parser.parse()
    except (TypeError, ValueError) as exc:  # rejected by an IR constructor
        raise parser.error(str(exc)) from exc
    finally:
        if collect:
            gc.enable()
    return module


def parse_function(text: str, module: Optional[Module] = None) -> Function:
    """Parse a single function definition; returns the Function."""
    mod = module if module is not None else Module("scratch")
    before = {f.name for f in mod.functions}
    parsed = parse_module(text)
    # Re-link the parsed functions into the caller's module.
    first_def: Optional[Function] = None
    for func in parsed.functions:
        parsed.remove_function(func)
        if func.name in before:
            raise ParseError(f"function @{func.name} already exists", 1)
        mod.add_function(func)
        if first_def is None and not func.is_declaration:
            first_def = func
    if first_def is None:
        raise ParseError("no function definition found", 1)
    return first_def
