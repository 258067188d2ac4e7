"""Tests for assembler constant-expression evaluation."""

import pytest
from hypothesis import example, given, strategies as st

from repro.assembler.errors import ExpressionError, SourceLocation
from repro.assembler.expressions import ExprResult, evaluate_all
from repro.assembler.lexer import tokenize_line

LOC = SourceLocation("expr.asm", 1)


def evaluate(text: str, table: dict[str, int] | None = None) -> ExprResult:
    table = table or {}
    tokens = tokenize_line(text, LOC)
    return evaluate_all(tokens, lambda name: table.get(name), LOC)


class TestArithmetic:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1 + 2", 3),
            ("10 - 4", 6),
            ("3 * 7", 21),
            ("20 / 6", 3),
            ("20 % 6", 2),
            ("1 << 5", 32),
            ("0x80 >> 3", 16),
            ("0xF0 | 0x0F", 0xFF),
            ("0xFF & 0x0F", 0x0F),
            ("0xFF ^ 0x0F", 0xF0),
            ("-5 + 10", 5),
            ("~0 & 0xFF", 0xFF),
            ("(1 + 2) * 3", 9),
            ("1 + 2 * 3", 7),
            ("2 * (3 + 4) - 1", 13),
        ],
    )
    def test_values(self, text, value):
        assert evaluate(text).value == value

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1 == 1", 1),
            ("1 != 1", 0),
            ("2 < 3", 1),
            ("3 <= 3", 1),
            ("4 > 5", 0),
            ("1 && 0", 0),
            ("1 || 0", 1),
            ("!0", 1),
            ("!7", 0),
        ],
    )
    def test_comparisons_and_logic(self, text, value):
        assert evaluate(text).value == value

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            evaluate("1 / 0")
        with pytest.raises(ExpressionError):
            evaluate("1 % 0")

    def test_signed_division_is_exact(self):
        # Mixed signs once went through float division and lost bits.
        assert evaluate("(0 - 9007199254740993) / 1").value == (
            -9007199254740993
        )
        assert evaluate("-7 / 2").value == -3
        assert evaluate("-7 % 2").value == -1
        assert evaluate("7 % -2").value == 1

    def test_precedence_bitwise_vs_shift(self):
        # C-like: shifts bind tighter than & which binds tighter than |.
        assert evaluate("1 | 2 & 3 << 1").value == (1 | (2 & (3 << 1)))


class TestSymbols:
    def test_known_symbol(self):
        assert evaluate("PAGE + 1", {"PAGE": 7}).value == 8

    def test_unknown_symbol_is_symbolic(self):
        result = evaluate("ES_Init_Register")
        assert result.symbol == "ES_Init_Register"
        assert result.value == 0

    def test_symbol_plus_constant(self):
        result = evaluate("handler + 8")
        assert result.symbol == "handler"
        assert result.value == 8

    def test_constant_plus_symbol(self):
        result = evaluate("4 + handler")
        assert result.symbol == "handler"
        assert result.value == 4

    def test_symbol_minus_constant(self):
        result = evaluate("handler - 4")
        assert result.symbol == "handler"
        assert result.value == -4

    def test_symbol_times_constant_rejected(self):
        with pytest.raises(ExpressionError, match="symbolic"):
            evaluate("handler * 2")

    def test_two_symbols_rejected(self):
        with pytest.raises(ExpressionError):
            evaluate("a_sym + b_sym")

    def test_negate_symbol_rejected(self):
        with pytest.raises(ExpressionError):
            evaluate("-handler")

    def test_require_absolute(self):
        result = evaluate("handler + 8")
        with pytest.raises(ExpressionError, match="absolute"):
            result.require_absolute("immediate", LOC)
        assert evaluate("1+1").require_absolute("x", LOC) == 2


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text", ["", "1 +", "(1", "1)", "* 3", "1 2", ", 3"]
    )
    def test_malformed(self, text):
        with pytest.raises(ExpressionError):
            evaluate(text)


class TestProperties:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, a, b):
        assert evaluate(f"({a}) + ({b})").value == a + b

    @given(
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
        st.integers(0, 15),
    )
    def test_mixed_expression_matches_python(self, a, b, s):
        text = f"(({a} ^ {b}) << {s}) & 0xFFFFFFFF"
        assert evaluate(text).value == ((a ^ b) << s) & 0xFFFFFFFF

    @given(
        st.integers(-(1 << 63), (1 << 63) - 1),
        st.integers(-(1 << 63), (1 << 63) - 1).filter(bool),
    )
    @example(-9007199254740993, 1)
    def test_div_mod_identity(self, a, b):
        # C semantics at full width: the quotient truncates toward zero
        # and the remainder takes the dividend's sign.
        quotient = evaluate(f"({a}) / ({b})").value
        remainder = evaluate(f"({a}) % ({b})").value
        assert quotient * b + remainder == a
        assert abs(remainder) < abs(b)
        assert remainder == 0 or (remainder < 0) == (a < 0)

    def test_figure6_style_expression(self):
        # The kind of expression Globals.inc entries use.
        table = {"PAGE_FIELD_SIZE": 5}
        assert evaluate("(1 << PAGE_FIELD_SIZE) - 1", table).value == 31
