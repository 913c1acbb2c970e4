"""$display formatting and edge semantics of the simulator.

Template parsing and per-spec value rendering for ``$display`` and
friends, plus :func:`edge_fired`, the rule for what counts as a
posedge/negedge (including the x transitions).
"""

from __future__ import annotations

from . import values as V

#: Template segments produced by :func:`parse_template`:
#: ``("lit", text)`` literal text, ``("pct",)`` a literal percent,
#: ``("mod",)`` the %m scope spec, ``("spec", ch)`` a value spec.
Segment = tuple


def parse_template(template: str) -> list[Segment]:
    """Split a $display format string into renderable segments.

    Mirrors the escape subset the simulator supports: ``\\n``/``\\t``
    escapes, ``%[0][width]spec`` specifiers, ``%%`` and ``%m``.
    """
    segments: list[Segment] = []
    lit: list[str] = []
    i = 0
    while i < len(template):
        ch = template[i]
        if ch != "%":
            if ch == "\\":
                nxt = template[i + 1] if i + 1 < len(template) else ""
                if nxt == "n":
                    lit.append("\n")
                    i += 2
                    continue
                if nxt == "t":
                    lit.append("\t")
                    i += 2
                    continue
            lit.append(ch)
            i += 1
            continue
        # parse %[0][width]spec — width digits are accepted and ignored,
        # matching the interpreter's historical behaviour.
        j = i + 1
        while j < len(template) and template[j].isdigit():
            j += 1
        spec = template[j] if j < len(template) else "%"
        i = j + 1
        if lit:
            segments.append(("lit", "".join(lit)))
            lit = []
        if spec == "%":
            segments.append(("pct",))
        elif spec == "m":
            segments.append(("mod",))
        else:
            segments.append(("spec", spec))
    if lit:
        segments.append(("lit", "".join(lit)))
    return segments


def render_spec(spec: str, value: V.Value) -> str:
    """Render one evaluated argument for a value spec character."""
    if spec == "t":
        return str(value.to_int())
    if spec in ("d", "b", "h", "x", "o"):
        return V.format_value(value, "h" if spec == "x" else spec)
    if spec == "c":
        return chr(value.to_int() & 0xFF)
    if spec == "s":
        raw = value.to_int()
        chars = []
        while raw:
            chars.append(chr(raw & 0xFF))
            raw >>= 8
        return "".join(reversed(chars))
    return V.format_value(value, "d")


def scope_name(prefix: str, top: str) -> str:
    """The %m rendering: the process scope, or the top module at root."""
    return prefix.rstrip(".") or top


def edge_fired(edge: str | None, prev: V.Value, new: V.Value) -> bool:
    """IEEE 1364 edge detection over 4-state values.

    ``None`` is a level (any-change) trigger; x transitions count as a
    possible edge in the direction they could resolve (0→x fires
    posedge, 1→x fires negedge), matching commercial simulators.
    """
    if prev == new:
        return False
    if edge is None:
        return True
    prev_bit, new_bit = prev.bit(0), new.bit(0)
    if edge == "posedge":
        return new_bit == "1" and prev_bit != "1" or \
            new_bit == "x" and prev_bit == "0"
    return new_bit == "0" and prev_bit != "0" or \
        new_bit == "x" and prev_bit == "1"
