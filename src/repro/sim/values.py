"""Four-state bit-vector values for the Verilog simulator.

A :class:`Value` is a fixed-width vector where every bit is 0, 1 or unknown
(``x``/``z`` are conflated into a single *unknown* state — enough for the
RTL subset our benchmarks exercise).  Representation: ``val`` holds the
known bit pattern, ``xz`` is a mask with 1 for every unknown bit.  Bits of
``val`` under the ``xz`` mask are kept at 0 so equal values compare equal.

Semantics follow IEEE 1364 pragmatically:

* bitwise ops propagate unknowns per-bit with dominance (``0 & x = 0``,
  ``1 | x = 1``);
* arithmetic / relational ops with any unknown operand bit yield an
  all-unknown result (what commercial simulators do);
* assignments truncate or zero-extend to the target width.
"""

from __future__ import annotations


def _mask(width: int) -> int:
    return (1 << width) - 1


class Value:
    """Fixed-width four-state vector.

    A hand-rolled ``__slots__`` class (not a dataclass): Value
    construction is the single hottest allocation in the simulator,
    and the plain ``__init__`` below is ~2x faster than the
    frozen-dataclass ``object.__setattr__`` path.  Instances are
    treated as immutable everywhere.
    """

    __slots__ = ("width", "val", "xz")

    def __init__(self, width: int, val: int, xz: int = 0):
        self.width = width
        if xz:
            mask = (1 << width) - 1
            xz &= mask
            self.xz = xz
            # Keep unknown bits of val at zero so (val, xz) is canonical.
            self.val = val & mask & ~xz
        else:
            self.xz = 0
            self.val = val & ((1 << width) - 1)

    def __eq__(self, other):
        if not isinstance(other, Value):
            return NotImplemented
        return (self.width == other.width and self.val == other.val
                and self.xz == other.xz)

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash((self.width, self.val, self.xz))

    def __repr__(self):
        return f"Value(width={self.width}, val={self.val}, xz={self.xz})"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def of(value: int, width: int) -> Value:
        """A fully-known value (two's complement wrap into ``width`` bits)."""
        return Value(width=width, val=value)

    @staticmethod
    def unknown(width: int) -> Value:
        """All bits unknown (the power-up state of a reg)."""
        cached = _UNKNOWN.get(width)
        if cached is None:
            cached = Value(width=width, val=0, xz=_mask(width))
            _UNKNOWN[width] = cached
        return cached

    # -- predicates ------------------------------------------------------

    @property
    def has_unknown(self) -> bool:
        return self.xz != 0

    @property
    def is_true(self) -> bool:
        """Verilog truthiness: any known 1 bit (x-only vectors are false)."""
        return self.val != 0

    def bit(self, index: int) -> str:
        """Return '0', '1' or 'x' for bit ``index`` (out of range → 'x')."""
        if index < 0 or index >= self.width:
            return "x"
        if (self.xz >> index) & 1:
            return "x"
        return "1" if (self.val >> index) & 1 else "0"

    # -- conversions ---------------------------------------------------------

    def to_int(self, signed: bool = False) -> int:
        """Interpret the known bits as an integer (unknown bits read as 0)."""
        if signed and self.width > 0 and (self.val >> (self.width - 1)) & 1:
            return self.val - (1 << self.width)
        return self.val

    def resized(self, width: int, signed: bool = False) -> Value:
        """Truncate or extend to ``width`` (sign-extends when ``signed``)."""
        if width == self.width:
            return self
        if width < self.width:
            return Value(width=width, val=self.val, xz=self.xz)
        if self.width == 0:
            return Value.unknown(width)
        top = self.width - 1
        extend_x = (self.xz >> top) & 1
        extend_v = (self.val >> top) & 1 if signed else 0
        ext_mask = _mask(width) ^ _mask(self.width)
        val = self.val | (ext_mask if (signed and extend_v and not extend_x)
                          else 0)
        xz = self.xz | (ext_mask if (signed and extend_x) else 0)
        return Value(width=width, val=val, xz=xz)

    def __str__(self) -> str:
        bits = "".join(self.bit(i) for i in reversed(range(self.width)))
        return f"{self.width}'b{bits}" if self.width else "0'b"

    # -- bit access ------------------------------------------------------

    def select_bit(self, index: Value | int) -> Value:
        if type(index) is Value:
            if index.xz:
                return _BX
            index = index.val
        if index < 0 or index >= self.width:
            return _BX
        if (self.xz >> index) & 1:
            return _BX
        return _B1 if (self.val >> index) & 1 else _B0

    def select_range(self, msb: int, lsb: int) -> Value:
        """Select bits [msb:lsb] (already normalised to 0-based offsets)."""
        if lsb > msb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        if lsb >= self.width:
            return Value.unknown(width)
        return Value(width=width, val=self.val >> lsb, xz=self.xz >> lsb) \
            if msb < self.width else \
            concat([Value.unknown(msb - self.width + 1),
                    Value(width=self.width - lsb, val=self.val >> lsb,
                          xz=self.xz >> lsb)])

    def with_bits(self, msb: int, lsb: int, new: Value) -> Value:
        """Return a copy with bits [msb:lsb] replaced by ``new``."""
        if lsb > msb:
            msb, lsb = lsb, msb
        field_width = msb - lsb + 1
        new = new.resized(field_width)
        keep = _mask(self.width) & ~(_mask(field_width) << lsb)
        val = (self.val & keep) | ((new.val << lsb) & _mask(self.width))
        xz = (self.xz & keep) | ((new.xz << lsb) & _mask(self.width))
        return Value(width=self.width, val=val, xz=xz)


#: Shared all-unknown values per width (immutable, so safe to share).
_UNKNOWN: dict[int, Value] = {}

#: Interned single-bit values — 1-bit vectors have exactly three
#: canonical states, and they are by far the hottest allocation in the
#: simulator (bit selects, comparisons, logic ops, 1-bit regs).
_B0 = Value(1, 0)
_B1 = Value(1, 1)
_BX = Value(1, 0, 1)
_UNKNOWN[1] = _BX


# --------------------------------------------------------------------------
# Literal parsing
# --------------------------------------------------------------------------

_BASE_BITS = {"b": 1, "o": 3, "h": 4}


def from_literal(text: str) -> Value:
    """Build a Value from Verilog literal text (``8'hFF``, ``'b1x0``, ``42``).

    Unsized literals get the Verilog default width of 32.
    """
    text = text.replace("_", "")
    if "'" not in text:
        return Value.of(int(text), 32)
    size_part, rest = text.split("'", 1)
    rest = rest.strip()
    if rest[:1] in ("s", "S"):
        rest = rest[1:]
    base = rest[0].lower()
    digits = rest[1:].strip()
    if base == "d":
        digits_clean = digits.replace("?", "x")
        if set(digits_clean.lower()) & {"x", "z"}:
            width = int(size_part) if size_part else 32
            return Value.unknown(width)
        value = int(digits_clean)
        width = int(size_part) if size_part else 32
        return Value.of(value, width)
    bits_per_digit = _BASE_BITS[base]
    val = 0
    xz = 0
    for ch in digits.lower():
        val <<= bits_per_digit
        xz <<= bits_per_digit
        if ch in ("x", "z", "?"):
            xz |= _mask(bits_per_digit)
        else:
            val |= int(ch, 16)
    width = int(size_part) if size_part else max(len(digits) * bits_per_digit,
                                                 1)
    return Value(width=width, val=val, xz=xz)


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------

def _arith_width(a: Value, b: Value) -> int:
    return max(a.width, b.width)


def _all_unknown_if(a: Value, b: Value, width: int) -> Value | None:
    if a.has_unknown or b.has_unknown:
        return Value.unknown(width)
    return None


def add(a: Value, b: Value) -> Value:
    width = a.width if a.width >= b.width else b.width
    if a.xz or b.xz:
        return Value.unknown(width)
    return Value(width, a.val + b.val)


def sub(a: Value, b: Value) -> Value:
    width = a.width if a.width >= b.width else b.width
    if a.xz or b.xz:
        return Value.unknown(width)
    return Value(width, a.val - b.val)


def mul(a: Value, b: Value) -> Value:
    width = a.width if a.width >= b.width else b.width
    if a.xz or b.xz:
        return Value.unknown(width)
    return Value(width, a.val * b.val)


def div(a: Value, b: Value) -> Value:
    width = _arith_width(a, b)
    if a.has_unknown or b.has_unknown or b.val == 0:
        return Value.unknown(width)
    return Value.of(a.val // b.val, width)


def mod(a: Value, b: Value) -> Value:
    width = _arith_width(a, b)
    if a.has_unknown or b.has_unknown or b.val == 0:
        return Value.unknown(width)
    return Value.of(a.val % b.val, width)


def power(a: Value, b: Value) -> Value:
    width = _arith_width(a, b)
    unknown = _all_unknown_if(a, b, width)
    if unknown:
        return unknown
    return Value.of(pow(a.val, b.val, 1 << width), width)


def bit_and(a: Value, b: Value) -> Value:
    width = a.width
    if width == 1 and b.width == 1:
        if (a.val | a.xz) == 0 or (b.val | b.xz) == 0:
            return _B0                   # a known-0 operand dominates x
        if a.xz or b.xz:
            return _BX
        return _B1 if a.val & b.val else _B0
    if width != b.width:
        width = width if width >= b.width else b.width
        a, b = a.resized(width), b.resized(width)
    # x & 0 = 0 ; x & 1 = x ; x & x = x
    known_zero = (~a.val & ~a.xz) | (~b.val & ~b.xz)
    xz = (a.xz | b.xz) & ~known_zero
    return Value(width=width, val=a.val & b.val, xz=xz)


def bit_or(a: Value, b: Value) -> Value:
    width = a.width
    if width == 1 and b.width == 1:
        if a.val or b.val:               # a known-1 operand dominates x
            return _B1
        if a.xz or b.xz:
            return _BX
        return _B0
    if width != b.width:
        width = width if width >= b.width else b.width
        a, b = a.resized(width), b.resized(width)
    known_one = a.val | b.val
    xz = (a.xz | b.xz) & ~known_one
    return Value(width=width, val=known_one & ~xz, xz=xz)


def bit_xor(a: Value, b: Value) -> Value:
    width = a.width
    if width == 1 and b.width == 1:
        if a.xz or b.xz:
            return _BX
        return _B1 if a.val ^ b.val else _B0
    if width != b.width:
        width = width if width >= b.width else b.width
        a, b = a.resized(width), b.resized(width)
    xz = a.xz | b.xz
    return Value(width=width, val=(a.val ^ b.val) & ~xz, xz=xz)


def bit_xnor(a: Value, b: Value) -> Value:
    return bit_not(bit_xor(a, b))


def bit_not(a: Value) -> Value:
    if a.width == 1:
        if a.xz:
            return _BX
        return _B0 if a.val else _B1
    return Value(width=a.width, val=~a.val & _mask(a.width) & ~a.xz,
                 xz=a.xz)


def logic_not(a: Value) -> Value:
    if a.val != 0:
        return _B0
    if a.xz:
        return _BX
    return _B1


def logic_and(a: Value, b: Value) -> Value:
    if a.val != 0 and b.val != 0:
        return _B1
    a_false = a.val == 0 and not a.xz
    b_false = b.val == 0 and not b.xz
    if a_false or b_false:
        return _B0
    return _BX


def logic_or(a: Value, b: Value) -> Value:
    if a.val != 0 or b.val != 0:
        return _B1
    if a.xz or b.xz:
        return _BX
    return _B0


def _bool_value(result: bool) -> Value:
    return _B1 if result else _B0


def compare(op: str, a: Value, b: Value, signed: bool = False) -> Value:
    """Relational / equality comparison; returns a 1-bit value."""
    if op in ("===", "!=="):
        width = _arith_width(a, b)
        ar, br = a.resized(width), b.resized(width)
        same = ar.val == br.val and ar.xz == br.xz
        return _bool_value(same if op == "===" else not same)
    if a.xz or b.xz:
        return _BX
    width = _arith_width(a, b)
    lhs = a.resized(width, signed).to_int(signed)
    rhs = b.resized(width, signed).to_int(signed)
    if op == "==":
        return _B1 if lhs == rhs else _B0
    if op == "!=":
        return _B1 if lhs != rhs else _B0
    if op == "<":
        return _B1 if lhs < rhs else _B0
    if op == "<=":
        return _B1 if lhs <= rhs else _B0
    if op == ">":
        return _B1 if lhs > rhs else _B0
    if op == ">=":
        return _B1 if lhs >= rhs else _B0
    raise KeyError(op)


def shift_left(a: Value, amount: Value) -> Value:
    if amount.xz:
        return Value.unknown(a.width)
    sh = amount.val
    if sh >= a.width:       # every bit shifts out; skip the huge int
        return Value.of(0, a.width)
    return Value(width=a.width, val=(a.val << sh) & _mask(a.width),
                 xz=(a.xz << sh) & _mask(a.width))


def shift_right(a: Value, amount: Value, arithmetic: bool = False,
                signed: bool = False) -> Value:
    if amount.xz:
        return Value.unknown(a.width)
    sh = amount.val
    if sh >= a.width:
        if arithmetic and signed:
            top = a.bit(a.width - 1)
            if top == "x":
                return Value.unknown(a.width)
            return Value.of(-1 if top == "1" else 0, a.width)
        return Value.of(0, a.width)
    val = a.val >> sh
    xz = a.xz >> sh
    if arithmetic and signed:
        top = a.bit(a.width - 1)
        fill = _mask(a.width) ^ _mask(a.width - sh)
        if top == "1":
            val |= fill
        elif top == "x":
            xz |= fill
    return Value(width=a.width, val=val, xz=xz)


def reduce_op(op: str, a: Value) -> Value:
    """Reduction operators: & ~& | ~| ^ ~^."""
    if op in ("&", "~&"):
        zero_known = (a.val | a.xz) != _mask(a.width)
        if zero_known:
            result: Value = Value.of(0, 1)
        elif a.has_unknown:
            result = Value.unknown(1)
        else:
            result = Value.of(1, 1)
    elif op in ("|", "~|"):
        if a.val != 0:
            result = Value.of(1, 1)
        elif a.has_unknown:
            result = Value.unknown(1)
        else:
            result = Value.of(0, 1)
    else:  # ^ ~^ ^~
        if a.has_unknown:
            result = Value.unknown(1)
        else:
            result = Value.of(bin(a.val).count("1") & 1, 1)
    if op in ("~&", "~|", "~^", "^~"):
        result = bit_not(result)
    return result


def concat(parts: list[Value]) -> Value:
    """Concatenate MSB-first (Verilog ``{a, b}`` order)."""
    width = 0
    val = 0
    xz = 0
    for part in parts:
        pw = part.width
        width += pw
        val = (val << pw) | part.val
        xz = (xz << pw) | part.xz
    return Value(width=width, val=val, xz=xz)


def replicate(count: int, value: Value) -> Value:
    return concat([value] * count)


def format_value(value: Value, spec: str) -> str:
    """Render for $display: spec is one of d, b, h, o (with optional 0)."""
    kind = spec[-1].lower()
    if kind == "b":
        return "".join(value.bit(i) for i in reversed(range(value.width)))
    if value.has_unknown:
        if kind == "h":
            digits = (value.width + 3) // 4
            return "".join(
                "x" if (value.xz >> (4 * i)) & 0xF else
                f"{(value.val >> (4 * i)) & 0xF:x}"
                for i in reversed(range(digits)))
        return "x"
    if kind == "h":
        return f"{value.val:x}"
    if kind == "o":
        return f"{value.val:o}"
    return str(value.val)
