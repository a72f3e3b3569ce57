"""Every ``ParseError`` the IR parser raises, pinned to its exact text.

Each row is one malformed module and the ``line N: message`` it must
produce.  The line is the line of the token the parser is looking at when it
finds the problem; for most errors that is the token just after the
offending one, so an error at the end of a line reports the next line.
"""

import pytest

from repro.ir import ParseError, parse_function, parse_module
from repro.ir.module import Module


def body(*lines: str) -> str:
    """``@f(i32 %a)`` with an ``entry`` block holding *lines* (from line 3)."""
    inner = "\n".join(f"  {line}" for line in lines)
    return f"define i32 @f(i32 %a) {{\nentry:\n{inner}\n}}\n"


ERRORS = [
    # -- tokens ---------------------------------------------------------------
    ("unexpected_char", body("%x = add i32 %a, #"), "line 3: unexpected character '#'"),
    ("lone_percent", body("%x = add i32 %a, % 1"), "line 3: unexpected character '%'"),
    ("lone_minus", body("%x = sub i32 %a, - 1"), "line 3: unexpected character '-'"),
    ("non_ascii", body("%x = add i32 %a, é"), "line 3: unexpected character 'é'"),
    ("expected_token", body("%x = add i32 %a %a", "ret i32 %x"), "line 4: expected ',', got '%a'"),
    # -- end of input ----------------------------------------------------------
    ("eof_in_instruction", "define i32 @f(i32 %a) {\nentry:\n  ret i32", "line 3: unexpected end of input"),
    ("eof_in_header", "define i32 @f(i32 %a", "line 1: unexpected end of input"),
    ("eof_after_define", "define", "line 1: unexpected end of input"),
    ("unterminated_body", "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n", "line 3: unterminated function body"),
    # -- types -----------------------------------------------------------------
    ("expected_type", body("%x = add i33x %a, %a", "ret i32 %x"), "line 3: expected a type, got 'i33x'"),
    ("expected_type_header", "define quux @f() {\nentry:\n  ret void\n}\n", "line 1: expected a type, got 'quux'"),
    ("expected_type_eof_struct", body("%p = alloca {i32,"), "line 4: expected a type, got '}'"),
    # -- names -----------------------------------------------------------------
    ("value_redefinition", body("%x = add i32 %a, 1", "%x = add i32 %a, 2", "ret i32 %x"), "line 5: redefinition of %x"),
    ("arg_redefinition", "define i32 @f(i32 %a, i32 %a) {\nentry:\n  ret i32 %a\n}\n", "line 1: redefinition of %a"),
    ("block_redefinition", "define i32 @f(i32 %a) {\nentry:\n  br label %entry\nentry:\n  ret i32 %a\n}\n", "line 5: redefinition of %entry"),
    ("undefined_value", body("%x = add i32 %a, %nope", "ret i32 %x"), "line 5: use of undefined value %nope"),
    ("undefined_label", body("br label %nowhere"), "line 4: use of undefined label %nowhere"),
    ("unknown_function_operand", body("store i32 (i32)* @nope, i32 (i32)** null", "ret i32 %a"), "line 3: unknown function @nope"),
    ("expected_at_name", "define i32 f(i32 %a) {\nentry:\n  ret i32 %a\n}\n", "line 1: expected @name, got 'f'"),
    # -- operands --------------------------------------------------------------
    ("integer_literal_for_pointer", body("store i32* 5, i32** null", "ret i32 %a"), "line 3: integer literal for type i32*"),
    ("expected_value", body("%x = add i32 %a, label", "ret i32 %x"), "line 4: expected a value, got 'label'"),
    ("expected_label", body("br label @f"), "line 4: expected a label, got '@f'"),
    ("switch_case_not_constant", body("switch i32 %a, label %entry [i32 %a label %entry]"), "line 3: switch case must be an integer constant"),
    ("phi_label", body("%x = phi i32 [ %a, 5 ]", "ret i32 %x"), "line 3: expected phi incoming label"),
    # -- calls -----------------------------------------------------------------
    ("unknown_callee", body("%x = call i32 @nope(i32 %a)", "ret i32 %x"), "line 3: unknown function @nope"),
    ("indirect_call", body("%x = call i32 %a(i32 %a)", "ret i32 %x"), "line 3: indirect calls are not supported in text IR"),
    ("expected_callee", body("%x = call i32 5(i32 %a)", "ret i32 %x"), "line 3: expected a callee, got '5'"),
    ("call_type_mismatch", body("%x = call i64 @f(i32 %a)", "ret i32 %a"), "line 4: call result type i64 != callee return i32"),
    # -- instructions and structure --------------------------------------------
    ("unknown_instruction", body("%x = frobnicate i32 %a, %a", "ret i32 %x"), "line 3: unknown instruction 'frobnicate'"),
    ("void_call_named", "declare void @g()\n\ndefine i32 @f(i32 %a) {\nentry:\n  %x = call void @g()\n  ret i32 %a\n}\n", "line 6: void instruction cannot be named %x"),
    ("void_store_named", body("%x = store i32 %a, i32* null", "ret i32 %a"), "line 4: void instruction cannot be named %x"),
    ("instruction_outside_block", "define i32 @f(i32 %a) {\n  ret i32 %a\n}\n", "line 2: instruction outside any block"),
    ("expected_define", "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}\n\nglobal i32 @x\n", "line 6: expected 'define' or 'declare', got 'global'"),
    ("comment_keeps_lines", "; header\n; more\ndefine i32 @f(i32 %a) { ; trailing\nentry:\n  ret i32 %a ; done\n", "line 5: unterminated function body"),
    # -- rejected by the IR constructors ---------------------------------------
    ("int_width_zero", body("%x = add i0 0, 0", "ret i32 %a"), "line 3: integer width must be positive, got 0"),
    ("int_width_huge", body("%x = add i64123456789 0, 0", "ret i32 %a"), "line 3: integer width must be at most 8388608, got 64123456789"),
    ("null_for_int", body("%x = add i32 null, 0", "ret i32 %a"), "line 3: ConstantNull requires a pointer type, got i32"),
    ("float_for_int", body("%x = add i32 1.5, 0", "ret i32 %a"), "line 3: ConstantFloat requires a float type, got i32"),
    ("load_non_pointer", body("%x = load i32, i32 %a", "ret i32 %a"), "line 4: load requires a pointer operand, got i32"),
    ("pointer_to_void", body("%p = alloca void*", "ret i32 %a"), "line 4: cannot point to void"),
    ("negative_array", body("%p = alloca [-1 x i8]", "ret i32 %a"), "line 4: array count must be non-negative"),
    ("binary_type_mismatch", body("%x = add i32 %a, 1", "%y = add double 1.0, 2.0", "ret i32 %a"), "line 5: ADD requires integer operands, got double"),
    # -- predicates, array lengths and function definitions --------------------
    ("icmp_predicate", body("%c = icmp foo i32 %a, %a", "ret i32 %a"), "line 3: unknown icmp predicate 'foo'"),
    ("fcmp_predicate", body("%c = fcmp foo double 1.0, 1.0", "ret i32 %a"), "line 3: unknown fcmp predicate 'foo'"),
    ("array_length", body("%p = alloca [x x i8]", "ret i32 %a"), "line 3: expected an array length, got 'x'"),
    ("array_length_float", body("%p = alloca [1.5 x i8]", "ret i32 %a"), "line 3: expected an array length, got '1.5'"),
    ("function_redefinition", "define void @f() {\nentry:\n  ret void\n}\n\ndefine void @f() {\nentry:\n  ret void\n}\n", "line 6: redefinition of @f"),
    ("header_error_after_first", "define void @f() {\nentry:\n  ret void\n}\n\ndefine void @g(quux) {\nentry:\n  ret void\n}\n", "line 6: expected a type, got 'quux'"),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in ERRORS], ids=[c[0] for c in ERRORS])
def test_parse_error(text, expected):
    with pytest.raises(ParseError) as info:
        parse_module(text)
    assert str(info.value) == expected
    line, message = expected.split(": ", 1)
    assert info.value.line == int(line.split()[1])
    assert info.value.message == message


def test_overlong_integer_literal():
    # int() refuses it; the wording of its message belongs to Python.
    with pytest.raises(ParseError) as info:
        parse_module(body("%x = add i32 %a, " + "9" * 5000, "ret i32 %a"))
    assert info.value.line == 4


def test_case_ids_are_unique():
    ids = [c[0] for c in ERRORS]
    assert len(ids) == len(set(ids))


class TestAccepted:
    """Inputs near the error cases that must still parse."""

    def test_declare_then_define_fills_the_declaration(self):
        module = parse_module(
            "declare i32 @f(i32)\n\ndefine i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}\n"
        )
        (func,) = module.functions
        assert not func.is_declaration
        assert not func.internal  # linkage comes from the first header
        assert func.args[0].name == "a"

    def test_define_then_declare_keeps_the_body(self):
        module = parse_module(
            "define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}\n\ndeclare i32 @f(i32)\n"
        )
        (func,) = module.functions
        assert not func.is_declaration and func.internal

    def test_header_split_over_lines(self):
        module = parse_module(
            "define i32 @f(i32 %a,\n  i32 %b) {\nentry:\n  ret i32 %b\n}\n"
        )
        assert [a.name for a in module.get_function("f").args] == ["a", "b"]

    def test_block_labelled_like_a_keyword(self):
        text = (
            "define void @f() {\nentry:\n  br label %define\n"
            "define:\n  ret void\n}\n"
        )
        func = parse_module(text).get_function("f")
        assert [b.name for b in func.blocks] == ["entry", "define"]

    def test_forward_call(self):
        text = (
            "define i32 @f(i32 %a) {\nentry:\n  %x = call i32 @g(i32 %a)\n"
            "  ret i32 %x\n}\n\ndefine i32 @g(i32 %b) {\nentry:\n  ret i32 %b\n}\n"
        )
        module = parse_module(text)
        assert [f.name for f in module.functions] == ["f", "g"]

    def test_empty_and_comment_only(self):
        assert len(parse_module("")) == 0
        assert len(parse_module("; nothing here\n")) == 0


class TestParseFunction:
    def test_existing_name(self):
        module = Module("m")
        parse_function("define void @f() {\nentry:\n  ret void\n}\n", module)
        with pytest.raises(ParseError, match=r"^line 1: function @f already exists$"):
            parse_function("define void @f() {\nentry:\n  ret void\n}\n", module)

    def test_no_definition(self):
        with pytest.raises(ParseError, match=r"^line 1: no function definition found$"):
            parse_function("declare void @f()\n")
