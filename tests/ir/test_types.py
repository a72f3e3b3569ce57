"""Tests for the interned type system."""

import pytest

from repro.ir import (
    ArrayType,
    DOUBLE,
    FLOAT,
    FunctionType,
    I1,
    I8,
    I32,
    I64,
    IntType,
    LABEL,
    PointerType,
    StructType,
    VOID,
)


class TestInterning:
    def test_int_types_are_interned(self):
        assert IntType(32) is IntType(32)
        assert IntType(32) is I32
        assert IntType(17) is IntType(17)

    def test_distinct_widths_are_distinct(self):
        assert IntType(32) is not IntType(64)

    def test_pointer_interning(self):
        assert PointerType(I32) is PointerType(I32)
        assert PointerType(I32) is not PointerType(I64)

    def test_array_interning(self):
        from repro.ir import I16

        assert ArrayType(I8, 4) is ArrayType(I8, 4)
        assert ArrayType(I8, 4) is not ArrayType(I8, 5)
        assert ArrayType(I8, 4) is not ArrayType(I16, 4)

    def test_struct_interning(self):
        assert StructType([I32, DOUBLE]) is StructType([I32, DOUBLE])
        assert StructType([I32]) is not StructType([I64])

    def test_function_type_interning(self):
        assert FunctionType(I32, [I64]) is FunctionType(I32, [I64])
        assert FunctionType(I32, [I64]) is not FunctionType(I32, [I32])

    def test_nested_composite(self):
        t1 = PointerType(ArrayType(StructType([I8, I8]), 3))
        t2 = PointerType(ArrayType(StructType([I8, I8]), 3))
        assert t1 is t2


class TestTypeIds:
    def test_type_ids_are_nonzero(self):
        for t in (VOID, LABEL, I1, I32, DOUBLE, PointerType(I32)):
            assert t.type_id > 0

    def test_type_ids_distinct_for_common_types(self):
        ids = {t.type_id for t in (I1, I8, I32, I64, FLOAT, DOUBLE, VOID)}
        assert len(ids) == 7

    def test_type_id_is_stable(self):
        # Derived from the canonical spelling, so re-derivable.
        from repro.ir.types import _fnv1a_64

        expected = (_fnv1a_64(b"i32") & 0x7FFFFFFF) or 1
        assert I32.type_id == expected


class TestProperties:
    def test_classification(self):
        assert I32.is_int and not I32.is_float
        assert DOUBLE.is_float and not DOUBLE.is_int
        assert PointerType(I32).is_pointer
        assert VOID.is_void
        assert LABEL.is_label
        assert ArrayType(I32, 2).is_aggregate
        assert StructType([I32]).is_aggregate

    def test_first_class(self):
        assert I32.is_first_class
        assert not VOID.is_first_class
        assert not LABEL.is_first_class
        assert not FunctionType(VOID, []).is_first_class

    def test_int_bounds(self):
        assert I8.mask == 0xFF
        assert I8.signed_min == -128
        assert I8.signed_max == 127

    def test_spelling(self):
        assert str(I32) == "i32"
        assert str(PointerType(I32)) == "i32*"
        assert str(ArrayType(I8, 4)) == "[4 x i8]"
        assert str(StructType([I32, DOUBLE])) == "{i32, double}"
        assert str(FunctionType(I32, [I64, DOUBLE])) == "i32 (i64, double)"


class TestInvalidTypes:
    def test_bad_int_width(self):
        with pytest.raises(ValueError):
            IntType(0)

    def test_int_width_cap(self):
        from repro.ir.types import MAX_INT_BITS

        assert IntType(MAX_INT_BITS).bits == MAX_INT_BITS
        with pytest.raises(ValueError, match="at most"):
            IntType(MAX_INT_BITS + 1)

    def test_bad_float_width(self):
        from repro.ir import FloatType

        with pytest.raises(ValueError):
            FloatType(16)

    def test_pointer_to_void(self):
        with pytest.raises(ValueError):
            PointerType(VOID)

    def test_array_of_void(self):
        with pytest.raises(ValueError):
            ArrayType(VOID, 3)

    def test_negative_array(self):
        with pytest.raises(ValueError):
            ArrayType(I32, -1)

    def test_function_returning_label(self):
        with pytest.raises(ValueError):
            FunctionType(LABEL, [])
