"""Unit tests for four-state values."""

import pytest

from repro.sim import values as V
from repro.sim.values import Value, from_literal


class TestConstruction:
    def test_of_wraps_modulo_width(self):
        assert Value.of(0x1FF, 8).val == 0xFF

    def test_negative_two_complement(self):
        assert Value.of(-1, 4).val == 0xF

    def test_unknown_is_canonical(self):
        a = Value(width=4, val=0b1111, xz=0b0011)
        b = Value(width=4, val=0b1100, xz=0b0011)
        assert a == b

    def test_to_int_signed(self):
        assert Value.of(0xF, 4).to_int(signed=True) == -1
        assert Value.of(0x7, 4).to_int(signed=True) == 7


class TestLiterals:
    @pytest.mark.parametrize("text,width,val", [
        ("42", 32, 42),
        ("8'hFF", 8, 255),
        ("4'b1010", 4, 10),
        ("12'o777", 12, 0o777),
        ("16'd255", 16, 255),
        ("8'sb1010_1010", 8, 0b10101010),
        ("'b1010", 4, 10),
    ])
    def test_known_literals(self, text, width, val):
        value = from_literal(text)
        assert value.width == width
        assert value.val == val
        assert not value.has_unknown

    def test_x_literal(self):
        value = from_literal("4'b1x0z")
        assert value.bit(3) == "1"
        assert value.bit(2) == "x"
        assert value.bit(1) == "0"
        assert value.bit(0) == "x"   # z conflated with x

    def test_hex_x_digit_covers_four_bits(self):
        value = from_literal("8'hxF")
        assert value.xz == 0xF0
        assert value.val == 0x0F


class TestArithmetic:
    def test_add_wraps(self):
        assert V.add(Value.of(0xFF, 8), Value.of(1, 8)).val == 0

    def test_add_width_is_max(self):
        assert V.add(Value.of(1, 4), Value.of(1, 8)).width == 8

    def test_x_poisons_arithmetic(self):
        result = V.add(Value.unknown(4), Value.of(1, 4))
        assert result.xz == 0xF

    def test_divide_by_zero_is_x(self):
        assert V.div(Value.of(4, 4), Value.of(0, 4)).has_unknown

    def test_sub_underflow_wraps(self):
        assert V.sub(Value.of(0, 4), Value.of(1, 4)).val == 0xF

    def test_power(self):
        assert V.power(Value.of(2, 8), Value.of(5, 8)).val == 32


class TestBitwise:
    def test_and_dominance(self):
        # 0 & x = 0
        result = V.bit_and(Value.of(0b00, 2), Value.unknown(2))
        assert result.val == 0 and result.xz == 0

    def test_and_x_with_one_is_x(self):
        result = V.bit_and(Value.of(0b11, 2), Value.unknown(2))
        assert result.xz == 0b11

    def test_or_dominance(self):
        # 1 | x = 1
        result = V.bit_or(Value.of(0b11, 2), Value.unknown(2))
        assert result.val == 0b11 and result.xz == 0

    def test_xor_propagates_x(self):
        result = V.bit_xor(Value.of(0b01, 2), Value(2, 0, 0b10))
        assert result.xz == 0b10
        assert result.val == 0b01

    def test_not(self):
        result = V.bit_not(Value.of(0b1010, 4))
        assert result.val == 0b0101


class TestLogicalAndCompare:
    def test_logic_and_short_circuit_zero(self):
        assert V.logic_and(Value.of(0, 1), Value.unknown(1)).val == 0
        assert not V.logic_and(Value.of(0, 1), Value.unknown(1)).has_unknown

    def test_logic_or_with_one(self):
        assert V.logic_or(Value.unknown(1), Value.of(1, 1)).val == 1

    def test_equality(self):
        assert V.compare("==", Value.of(5, 4), Value.of(5, 8)).val == 1
        assert V.compare("!=", Value.of(5, 4), Value.of(6, 4)).val == 1

    def test_equality_with_x_is_x(self):
        assert V.compare("==", Value.unknown(4), Value.of(5, 4)).has_unknown

    def test_case_equality_sees_x(self):
        a = Value(4, 0b0100, 0b0011)
        assert V.compare("===", a, a).val == 1
        assert V.compare("!==", a, Value.of(0b0100, 4)).val == 1

    def test_signed_compare(self):
        a = Value.of(-2, 4)
        b = Value.of(1, 4)
        assert V.compare("<", a, b, signed=True).val == 1
        assert V.compare("<", a, b, signed=False).val == 0


class TestShiftsAndSelects:
    def test_shift_left_drops_top(self):
        assert V.shift_left(Value.of(0b1001, 4), Value.of(1, 3)).val == 0b0010

    def test_shift_left_by_a_huge_amount_is_zero(self):
        # Shifting out every bit must not build a 2**40-bit integer.
        result = V.shift_left(Value(8, 0xF0, xz=0x0F),
                              Value.of(1 << 40, 64))
        assert (result.width, result.val, result.xz) == (8, 0, 0)

    def test_shift_right_logical(self):
        assert V.shift_right(Value.of(0b1000, 4), Value.of(3, 3)).val == 1

    def test_arithmetic_shift_right_sign_fill(self):
        result = V.shift_right(Value.of(0b1000, 4), Value.of(1, 2),
                               arithmetic=True, signed=True)
        assert result.val == 0b1100

    def test_select_bit(self):
        assert Value.of(0b0100, 4).select_bit(2).val == 1
        assert Value.of(0b0100, 4).select_bit(9).has_unknown

    def test_select_range(self):
        assert Value.of(0xAB, 8).select_range(7, 4).val == 0xA

    def test_with_bits(self):
        result = Value.of(0x00, 8).with_bits(7, 4, Value.of(0xF, 4))
        assert result.val == 0xF0

    def test_concat_msb_first(self):
        result = V.concat([Value.of(0b10, 2), Value.of(0b01, 2)])
        assert result.val == 0b1001

    def test_replicate(self):
        assert V.replicate(3, Value.of(0b1, 1)).val == 0b111


class TestResizeAndFormat:
    def test_zero_extend(self):
        assert Value.of(0xF, 4).resized(8).val == 0x0F

    def test_sign_extend(self):
        assert Value.of(0b1000, 4).resized(8, signed=True).val == 0xF8

    def test_truncate(self):
        assert Value.of(0x1F, 8).resized(4).val == 0xF

    def test_reduce_and(self):
        assert V.reduce_op("&", Value.of(0xF, 4)).val == 1
        assert V.reduce_op("&", Value.of(0xE, 4)).val == 0

    def test_reduce_xor_parity(self):
        assert V.reduce_op("^", Value.of(0b0111, 4)).val == 1
        assert V.reduce_op("~^", Value.of(0b0111, 4)).val == 0

    def test_format_decimal(self):
        assert V.format_value(Value.of(42, 8), "d") == "42"

    def test_format_binary_with_x(self):
        assert V.format_value(Value(4, 0b0100, 0b0001), "b") == "010x"

    def test_format_hex(self):
        assert V.format_value(Value.of(0xAB, 8), "h") == "ab"
