"""Differential fuzzing: the compiled backend vs the interpreter.

A hypothesis generator emits random — but race-free — RTL modules from
the simulator's supported subset: parameterized widths, mixes of
continuous assigns / clocked ``always`` (non-blocking) / combinational
``always @(*)`` (blocking), case/if nests, memories, functions, 4-state
literals and a testbench process with delays and ``$display``.

For every generated module both backends must produce **identical**
final signal states, ``$display`` transcripts, simulation times and
finish flags.  The compiled backend must genuinely compile (a fallback
would make the comparison vacuous), which also pins the lowerer's
coverage of the generated subset.

The tier-1 run is a quick derandomized smoke pass; the deep pass runs
under ``-m slow``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Value, compile_design, elaborate
from repro.verilog import parse

# ---------------------------------------------------------------------------
# Random-RTL generator
# ---------------------------------------------------------------------------

_FMT = ("%d", "%h", "%b", "%0d")
_BIN_OPS = ("+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">",
            ">=", "&&", "||")
_UN_OPS = ("~", "-", "!", "&", "|", "^")


@st.composite
def _literal(draw, width: int) -> str:
    kind = draw(st.integers(0, 3))
    value = draw(st.integers(0, (1 << width) - 1))
    if kind == 0:
        return str(value)                       # unsized decimal
    if kind == 1:
        return f"{width}'d{value}"
    if kind == 2:
        bits = format(value, f"0{width}b")
        if draw(st.booleans()):                 # sprinkle 4-state digits
            pos = draw(st.integers(0, width - 1))
            bits = bits[:pos] + draw(st.sampled_from("xz")) \
                + bits[pos + 1:]
        return f"{width}'b{bits}"
    return f"{width}'h{value:x}"


@st.composite
def _expr(draw, pool: list[tuple[str, int]], depth: int,
          must_read: bool = False) -> str:
    """A parenthesised expression over ``pool`` signals and literals."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        # leaf
        if pool and (must_read or draw(st.booleans())):
            name, width = draw(st.sampled_from(pool))
            form = draw(st.integers(0, 2))
            if form == 1 and width > 1:
                bit = draw(st.integers(0, width - 1))
                return f"{name}[{bit}]"
            if form == 2 and width > 2:
                hi = draw(st.integers(1, width - 1))
                lo = draw(st.integers(0, hi))
                return f"{name}[{hi}:{lo}]"
            return name
        return draw(_literal(draw(st.integers(1, 8))))
    shape = draw(st.integers(0, 6))
    if shape == 0:
        op = draw(st.sampled_from(_UN_OPS))
        operand = draw(_expr(pool, depth - 1, must_read=must_read))
        return f"({op} {operand})"
    if shape == 1:
        cond = draw(_expr(pool, depth - 1, must_read=must_read))
        a = draw(_expr(pool, depth - 1))
        b = draw(_expr(pool, depth - 1))
        return f"({cond} ? {a} : {b})"
    if shape == 2:
        parts = [draw(_expr(pool, depth - 1, must_read=must_read))]
        for _ in range(draw(st.integers(1, 2))):
            parts.append(draw(_expr(pool, depth - 1)))
        return "{" + ", ".join(parts) + "}"
    if shape == 3:
        count = draw(st.integers(1, 3))
        inner = draw(_expr(pool, depth - 1, must_read=must_read))
        return f"{{{count}{{{inner}}}}}"
    if shape == 4:
        operand = draw(_expr(pool, depth - 1, must_read=must_read))
        op = draw(st.sampled_from(("<<", ">>", ">>>")))
        return f"({operand} {op} {draw(st.integers(0, 7))})"
    if shape == 5 and draw(st.booleans()):
        a = draw(_expr(pool, depth - 1, must_read=must_read))
        b = draw(_expr(pool, depth - 1))
        op = draw(st.sampled_from(("/", "%")))
        return f"({a} {op} {b})"
    op = draw(st.sampled_from(_BIN_OPS))
    a = draw(_expr(pool, depth - 1, must_read=must_read))
    b = draw(_expr(pool, depth - 1))
    return f"({a} {op} {b})"


@st.composite
def _nba_stmt(draw, targets: list[tuple[str, int]],
              pool: list[tuple[str, int]], depth: int) -> str:
    """One non-blocking statement (possibly an if/case nest)."""
    shape = draw(st.integers(0, 3)) if depth > 0 else 0
    if shape == 0:
        name, width = draw(st.sampled_from(targets))
        form = draw(st.integers(0, 2))
        rhs = draw(_expr(pool, 2))
        if form == 1 and width > 1:
            bit = draw(st.integers(0, width - 1))
            return f"{name}[{bit}] <= {rhs};"
        if form == 2 and width > 2:
            hi = draw(st.integers(1, width - 1))
            lo = draw(st.integers(0, hi))
            return f"{name}[{hi}:{lo}] <= {rhs};"
        return f"{name} <= {rhs};"
    if shape == 1:
        cond = draw(_expr(pool, 1, must_read=True))
        a = draw(_nba_stmt(targets, pool, depth - 1))
        b = draw(_nba_stmt(targets, pool, depth - 1))
        return f"if ({cond}) begin {a} end else begin {b} end"
    if shape == 2:
        kind = draw(st.sampled_from(("case", "casez")))
        sel_name, sel_width = draw(st.sampled_from(pool))
        width = min(sel_width, 3)
        arms = []
        for label in range(draw(st.integers(1, 3))):
            arm = draw(_nba_stmt(targets, pool, depth - 1))
            arms.append(f"{width}'d{label}: begin {arm} end")
        arms.append(f"default: begin "
                    f"{draw(_nba_stmt(targets, pool, depth - 1))} end")
        return (f"{kind} ({sel_name}[{width - 1}:0]) "
                + " ".join(arms) + " endcase")
    first = draw(_nba_stmt(targets, pool, depth - 1))
    second = draw(_nba_stmt(targets, pool, depth - 1))
    return f"begin {first} {second} end"


@st.composite
def _blocking_stmt(draw, targets: list[tuple[str, int]],
                   pool: list[tuple[str, int]], depth: int) -> str:
    """One blocking statement for a combinational always block."""
    shape = draw(st.integers(0, 2)) if depth > 0 else 0
    if shape == 0:
        name, _width = draw(st.sampled_from(targets))
        rhs = draw(_expr(pool, 2, must_read=True))
        return f"{name} = {rhs};"
    if shape == 1:
        cond = draw(_expr(pool, 1, must_read=True))
        a = draw(_blocking_stmt(targets, pool, depth - 1))
        b = draw(_blocking_stmt(targets, pool, depth - 1))
        return f"if ({cond}) begin {a} end else begin {b} end"
    first = draw(_blocking_stmt(targets, pool, depth - 1))
    second = draw(_blocking_stmt(targets, pool, depth - 1))
    return f"begin {first} {second} end"


@st.composite
def rtl_module(draw) -> str:
    """A complete self-finishing testbench module.

    Race-free by construction: every signal is written by exactly one
    process, and combinational signals (nets + ``@(*)`` regs) read only
    strictly lower-ranked combinational signals, so no zero-delay loops
    can form.
    """
    lines = ["module tb;", "  reg clk, rst;"]
    drv = [(f"drv{i}", draw(st.integers(1, 10)))
           for i in range(draw(st.integers(1, 3)))]
    seq = [(f"seq{i}", draw(st.integers(1, 10)))
           for i in range(draw(st.integers(1, 4)))]
    n_comb = draw(st.integers(0, 2))
    n_net = draw(st.integers(0, 3))
    comb = [(f"comb{i}", draw(st.integers(1, 10)))
            for i in range(n_comb)]
    net = [(f"net{i}", draw(st.integers(1, 10))) for i in range(n_net)]
    use_mem = draw(st.booleans())
    use_fn = draw(st.booleans())

    for name, width in drv + seq + comb:
        rng = f"[{width - 1}:0] " if width > 1 else ""
        lines.append(f"  reg {rng}{name};")
    for name, width in net:
        rng = f"[{width - 1}:0] " if width > 1 else ""
        lines.append(f"  wire {rng}{name};")
    if use_mem:
        lines.append("  reg [7:0] mem [0:7];")
        lines.append("  wire [7:0] memout;")

    if use_fn:
        lines.append("  function [7:0] mixer;")
        lines.append("    input [7:0] x;")
        lines.append("    begin mixer = (x ^ (x >> 2)) + 8'd3; end")
        lines.append("  endfunction")

    state_pool = drv + seq           # stable within a delta cycle
    # Combinational rank order: net0 < net1 < … < comb0 < comb1 < …
    comb_ranked = net + comb
    for rank, (name, width) in enumerate(comb_ranked):
        pool = state_pool + comb_ranked[:rank]
        if name.startswith("net"):
            rhs = draw(_expr(pool, 2, must_read=True))
            if use_fn and draw(st.integers(0, 3)) == 0:
                rhs = f"(mixer({rhs}) ^ {rhs})"
            lines.append(f"  assign {name} = {rhs};")
    if use_mem:
        idx = draw(_expr(state_pool, 1, must_read=True))
        lines.append(f"  assign memout = mem[({idx}) & 3'h7];")

    full_pool = state_pool + comb_ranked + ([("memout", 8)] if use_mem
                                            else [])

    # Clocked always block(s): each sequential reg belongs to one block.
    n_blocks = draw(st.integers(1, min(2, len(seq))))
    groups = [seq[i::n_blocks] for i in range(n_blocks)]
    for group in groups:
        if not group:
            continue
        resets = " ".join(
            f"{name} <= {draw(_literal(width))};"
            for name, width in group)
        body = " ".join(
            draw(_nba_stmt(group, full_pool, 2))
            for _ in range(draw(st.integers(1, 3))))
        lines.append("  always @(posedge clk)")
        lines.append(f"    if (rst) begin {resets} end")
        lines.append(f"    else begin {body} end")
    if use_mem:
        widx = draw(_expr(state_pool, 1, must_read=True))
        wdata = draw(_expr(full_pool, 2))
        lines.append("  always @(posedge clk)")
        lines.append(f"    if (!rst) mem[({widx}) & 3'h7] <= {wdata};")

    # Combinational always blocks (blocking assigns).
    for rank_base, (name, width) in enumerate(comb):
        rank = len(net) + rank_base
        pool = state_pool + comb_ranked[:rank]
        body = draw(_blocking_stmt([(name, width)], pool, 2))
        lines.append(f"  always @(*) begin {body} end")

    # The driving process: reset, clock toggles, drive updates, report.
    lines.append("  initial begin")
    lines.append("    clk = 0; rst = 1;")
    for name, width in drv:
        lines.append(f"    {name} = {draw(_literal(width))};")
    lines.append("    repeat (4) #5 clk = ~clk;")
    lines.append("    rst = 0;")
    for _ in range(draw(st.integers(1, 3))):
        toggles = draw(st.integers(2, 8))
        lines.append(f"    repeat ({toggles}) #5 clk = ~clk;")
        if drv and draw(st.booleans()):
            name, width = draw(st.sampled_from(drv))
            lines.append(f"    {name} = {draw(_literal(width))};")
    for name, _width in full_pool:
        fmt = draw(st.sampled_from(_FMT))
        lines.append(f'    $display("{name}={fmt} @%0t", {name}, '
                     f'$time);')
    lines.append('    $display("done t=%0d", $time);')
    lines.append("    $finish;")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Differential check
# ---------------------------------------------------------------------------

def run_interp(text: str):
    design = elaborate(parse(text), "tb")
    sim = Simulator(design)
    sim.run(max_time=100_000)
    return sim


def run_compiled(text: str):
    design = elaborate(parse(text), "tb")
    compiled = compile_design(design)      # CompileUnsupported = failure:
    sim = compiled.simulator()             # a fallback would be vacuous
    sim.run(max_time=100_000)
    return sim


def _assert_matches_interp(interp, comp, text: str) -> None:
    assert interp.display_lines == comp.display_lines, text
    assert interp.time == comp.time, text
    assert interp.finished == comp.finished, text
    for name, signal in interp.design.signals.items():
        if signal.is_array:
            continue
        assert signal.value == comp.value_of(name), \
            f"{name}: {signal.value} != {comp.value_of(name)}\n{text}"
    # Memory contents must match element-for-element.
    for name, signal in interp.design.signals.items():
        if not signal.is_array:
            continue
        comp_slot = comp.compiled.slots[name]
        comp_array = comp.arrays[comp_slot]
        indices = set(signal.array) | set(comp_array)
        for index in indices:
            assert signal.element(index) == comp_array.get(
                index, Value.unknown(signal.width)), \
                f"{name}[{index}]\n{text}"


def assert_equivalent(text: str) -> None:
    interp = run_interp(text)
    _assert_matches_interp(interp, run_compiled(text), text)


_COMMON = dict(deadline=None, derandomize=True,
               suppress_health_check=(HealthCheck.too_slow,
                                      HealthCheck.data_too_large,
                                      HealthCheck.filter_too_much))


@settings(max_examples=25, **_COMMON)
@given(rtl_module())
def test_differential_smoke(source):
    """Tier-1: a quick, deterministic sample of the fuzz space."""
    assert_equivalent(source)


@pytest.mark.slow
@settings(max_examples=400, **_COMMON)
@given(rtl_module())
def test_differential_deep(source):
    """The full fuzz pass (run with ``pytest -m slow``)."""
    assert_equivalent(source)


def test_differential_fixed_corners():
    """Hand-picked designs covering scheduler-sensitive shapes."""
    designs = [
        # NBA swap between two clocked blocks sharing a clock.
        """
module tb;
  reg clk; reg [3:0] a, b;
  always @(posedge clk) a <= b;
  always @(posedge clk) b <= a;
  initial begin
    clk = 0; a = 4'd1; b = 4'd2;
    repeat (5) #5 clk = ~clk;
    $display("a=%d b=%d", a, b);
    $finish;
  end
endmodule
""",
        # Chained combinational assigns with an x-producing divide.
        """
module tb;
  reg [3:0] d; wire [3:0] q0, q1, q2;
  assign q0 = d + 4'd3;
  assign q1 = q0 / (d - 4'd5);
  assign q2 = q1 ^ q0;
  initial begin
    d = 4'd5; #1;
    $display("%b %b %b", q0, q1, q2);
    d = 4'd9; #1;
    $display("%b %b %b", q0, q1, q2);
    $finish;
  end
endmodule
""",
        # Mid-body event controls and waits in one process.
        """
module tb;
  reg clk, go; reg [7:0] n;
  always #3 clk = ~clk;
  initial begin
    clk = 0; go = 0; n = 0;
    #10 go = 1;
  end
  initial begin
    wait (go);
    @(posedge clk) n = n + 8'd1;
    @(negedge clk) n = n + 8'd10;
    $display("n=%d t=%0t", n, $time);
    $finish;
  end
endmodule
""",
        # Intra-assignment delays, delayed NBA, $random agreement.
        """
module tb;
  reg [7:0] a, b; reg [31:0] r1, r2;
  initial begin
    a = 8'd5;
    b = #4 a;
    a = 8'd7;
    a <= #10 8'd99;
    r1 = $random;
    r2 = $random;
    #20;
    $display("a=%d b=%d r=%d %d", a, b, r1 & 32'hFF, r2 & 32'hFF);
    $finish;
  end
endmodule
""",
        # Hierarchy, parameter overrides, hierarchical probes.
        """
module ff #(parameter W = 2) (input clk, input [W-1:0] d,
                              output reg [W-1:0] q);
  always @(posedge clk) q <= d;
endmodule
module tb;
  reg clk; reg [3:0] d; wire [3:0] q;
  ff #(.W(4)) dut (.clk(clk), .d(d), .q(q));
  initial begin
    clk = 0; d = 4'hC;
    #1 clk = 1; #1 clk = 0; d = dut.q ^ 4'h3;
    #1 clk = 1; #1;
    $display("q=%h inner=%h", q, dut.q);
    $finish;
  end
endmodule
""",
        # Concat lvalues, indexed part selects (read + write), casex.
        """
module tb;
  reg [3:0] hi, lo; reg [7:0] v; integer i;
  reg [1:0] tag;
  initial begin
    {hi, lo} = 8'hA5;
    v = 8'h0F;
    i = 4;
    v[i +: 4] = hi;
    v[3 -: 2] = lo[1:0];
    casex (v[3:0])
      4'b1xx0: tag = 2'd1;
      4'b01x1: tag = 2'd2;
      default: tag = 2'd3;
    endcase
    $display("hi=%h lo=%h v=%b tag=%d", hi, lo, v, tag);
    $finish;
  end
endmodule
""",
        # Signed countdown loops, reduction ops, $signed compare.
        """
module tb;
  integer i; reg [7:0] acc; reg [4:0] r;
  initial begin
    acc = 0;
    for (i = 4; i >= 0; i = i - 1) acc = acc + 1;
    r = 5'b10110;
    $display("acc=%d and=%b or=%b xor=%b", acc, &r, |r, ^r);
    if ($signed(4'b1111) < 0) $display("signed ok");
    $finish;
  end
endmodule
""",
        # $display through a function with module-signal side reads.
        """
module tb;
  reg [7:0] x; reg [7:0] seen;
  function [7:0] probe;
    input [7:0] k;
    begin
      probe = k + x;
    end
  endfunction
  initial begin
    x = 8'd7;
    seen = probe(8'd35);
    $display("seen=%d probe=%d", seen, probe(8'd1));
    $finish;
  end
endmodule
""",
    ]
    for text in designs:
        assert_equivalent(text)
