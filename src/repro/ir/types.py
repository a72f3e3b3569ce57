"""Type system for the repro IR.

The IR is a compact, typed subset of LLVM IR — just enough surface for the
function-merging algorithms of F3M (CGO 2022) and its baseline HyFM to be
implemented faithfully.  Types are interned: structurally identical types are
the *same object*, so identity comparison (``a is b``) is valid, mirroring
LLVM's uniqued ``Type*`` pointers.

The paper's instruction encoding (Section III-B) relies on "a unique number
for each type"; LLVM uses the address of the uniqued type object.  We provide
a deterministic equivalent, :attr:`Type.type_id`, derived from an FNV-1a hash
of the type's canonical spelling so that fingerprints are stable across runs
and machines.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

__all__ = [
    "Type",
    "VoidType",
    "LabelType",
    "IntType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "StructType",
    "FunctionType",
    "VOID",
    "LABEL",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "FLOAT",
    "DOUBLE",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a over *data* (used only for stable type ids)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class Type:
    """Base class of all IR types.

    Instances are interned by subclass constructors; never instantiate
    :class:`Type` directly.
    """

    __slots__ = ("_repr", "type_id")

    def _finish(self, spelling: str) -> None:
        self._repr = spelling
        # Non-zero 32-bit id, stable across runs (see module docstring).
        self.type_id = (_fnv1a_64(spelling.encode("utf-8")) & 0x7FFFFFFF) or 1

    # -- classification helpers -------------------------------------------------
    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_label(self) -> bool:
        return isinstance(self, LabelType)

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self, (ArrayType, StructType))

    @property
    def is_first_class(self) -> bool:
        """First-class types can be produced by instructions."""
        return not isinstance(self, (VoidType, FunctionType, LabelType))

    def __repr__(self) -> str:
        return self._repr

    def __str__(self) -> str:
        return self._repr


class VoidType(Type):
    __slots__ = ()
    _instance: "VoidType" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            inst = object.__new__(cls)
            inst._finish("void")
            cls._instance = inst
        return cls._instance


class LabelType(Type):
    """The type of basic blocks when used as operands (branch targets)."""

    __slots__ = ()
    _instance: "LabelType" = None

    def __new__(cls) -> "LabelType":
        if cls._instance is None:
            inst = object.__new__(cls)
            inst._finish("label")
            cls._instance = inst
        return cls._instance


#: Widest integer type, as in LLVM (``IntegerType::MAX_INT_BITS``).  The cap
#: keeps a typo such as ``i6400000000000`` from allocating a huge mask.
MAX_INT_BITS = 1 << 23


class IntType(Type):
    """Arbitrary-width integer type ``iN`` (we use 1/8/16/32/64 in practice)."""

    __slots__ = ("bits",)
    _cache: Dict[int, "IntType"] = {}

    def __new__(cls, bits: int) -> "IntType":
        inst = cls._cache.get(bits)
        if inst is None:
            if bits <= 0:
                raise ValueError(f"integer width must be positive, got {bits}")
            if bits > MAX_INT_BITS:
                raise ValueError(f"integer width must be at most {MAX_INT_BITS}, got {bits}")
            inst = object.__new__(cls)
            inst.bits = bits
            inst._finish(f"i{bits}")
            cls._cache[bits] = inst
        return inst

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @property
    def signed_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def signed_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


class FloatType(Type):
    """IEEE float type: ``float`` (32) or ``double`` (64)."""

    __slots__ = ("bits",)
    _cache: Dict[int, "FloatType"] = {}

    def __new__(cls, bits: int) -> "FloatType":
        inst = cls._cache.get(bits)
        if inst is None:
            if bits not in (32, 64):
                raise ValueError(f"float width must be 32 or 64, got {bits}")
            inst = object.__new__(cls)
            inst.bits = bits
            inst._finish("float" if bits == 32 else "double")
            cls._cache[bits] = inst
        return inst


class PointerType(Type):
    """Typed pointer ``<pointee>*``."""

    __slots__ = ("pointee",)
    _cache: Dict[Type, "PointerType"] = {}

    def __new__(cls, pointee: Type) -> "PointerType":
        inst = cls._cache.get(pointee)
        if inst is None:
            if pointee.is_void or pointee.is_label:
                raise ValueError(f"cannot point to {pointee}")
            inst = object.__new__(cls)
            inst.pointee = pointee
            inst._finish(f"{pointee}*")
            cls._cache[pointee] = inst
        return inst


class ArrayType(Type):
    """Fixed-size array ``[N x T]``."""

    __slots__ = ("element", "count")
    _cache: Dict[Tuple[Type, int], "ArrayType"] = {}

    def __new__(cls, element: Type, count: int) -> "ArrayType":
        key = (element, count)
        inst = cls._cache.get(key)
        if inst is None:
            if count < 0:
                raise ValueError("array count must be non-negative")
            if not element.is_first_class:
                raise ValueError(f"invalid array element type {element}")
            inst = object.__new__(cls)
            inst.element = element
            inst.count = count
            inst._finish(f"[{count} x {element}]")
            cls._cache[key] = inst
        return inst


class StructType(Type):
    """Anonymous literal struct ``{T0, T1, ...}`` (interned structurally)."""

    __slots__ = ("fields",)
    _cache: Dict[Tuple[Type, ...], "StructType"] = {}

    def __new__(cls, fields: Sequence[Type]) -> "StructType":
        key = tuple(fields)
        inst = cls._cache.get(key)
        if inst is None:
            for f in key:
                if not f.is_first_class:
                    raise ValueError(f"invalid struct field type {f}")
            inst = object.__new__(cls)
            inst.fields = key
            inst._finish("{" + ", ".join(str(f) for f in key) + "}")
            cls._cache[key] = inst
        return inst


class FunctionType(Type):
    """Function type ``ret (p0, p1, ...)``."""

    __slots__ = ("ret", "params")
    _cache: Dict[Tuple[Type, Tuple[Type, ...]], "FunctionType"] = {}

    def __new__(cls, ret: Type, params: Sequence[Type]) -> "FunctionType":
        key = (ret, tuple(params))
        inst = cls._cache.get(key)
        if inst is None:
            if ret.is_label or isinstance(ret, FunctionType):
                raise ValueError(f"invalid return type {ret}")
            for p in key[1]:
                if not p.is_first_class:
                    raise ValueError(f"invalid parameter type {p}")
            inst = object.__new__(cls)
            inst.ret = ret
            inst.params = key[1]
            inst._finish(f"{ret} ({', '.join(str(p) for p in key[1])})")
            cls._cache[key] = inst
        return inst


# Commonly used singletons.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
FLOAT = FloatType(32)
DOUBLE = FloatType(64)
