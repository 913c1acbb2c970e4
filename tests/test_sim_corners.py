"""Simulator corner cases: 4-state semantics, scheduling, system tasks."""

import pytest

from repro.sim import (SimulationError, SimulationTimeout, Simulator,
                       elaborate, run_simulation)
from repro.verilog import parse


def simulate(text, top="tb", max_time=100000):
    design = elaborate(parse(text), top)
    sim = Simulator(design)
    sim.run(max_time=max_time)
    return sim


class TestXSemantics:
    def test_uninitialized_reg_is_x(self):
        sim = simulate("""
module tb; reg [3:0] r; initial #1 $finish; endmodule""")
        assert sim.value_of("r").has_unknown

    def test_x_condition_takes_else_branch(self):
        sim = simulate("""
module tb;
  reg cond; reg [1:0] y;
  initial begin
    if (cond) y = 2'd1; else y = 2'd2;
    $finish;
  end
endmodule""")
        assert sim.value_of("y").val == 2

    def test_x_selects_merge_in_ternary(self):
        sim = simulate("""
module tb;
  reg s; wire [1:0] y;
  assign y = s ? 2'b10 : 2'b11;
  initial #1 $finish;
endmodule""")
        # bit1 is 1 in both arms → known; bit0 differs → x
        value = sim.value_of("y")
        assert value.bit(1) == "1"
        assert value.bit(0) == "x"

    def test_posedge_from_x_to_one_fires(self):
        sim = simulate("""
module tb;
  reg clk; reg fired;
  always @(posedge clk) fired <= 1'b1;
  initial begin
    fired = 1'b0;
    #1 clk = 1;    // x -> 1 must count as a posedge
    #1 $finish;
  end
endmodule""")
        assert sim.value_of("fired").val == 1


class TestCasezCasex:
    def test_casez_wildcards(self):
        sim = simulate("""
module tb;
  reg [3:0] sel; reg [1:0] y;
  always @(*)
    casez (sel)
      4'b1???: y = 2'd3;
      4'b01??: y = 2'd2;
      default: y = 2'd0;
    endcase
  initial begin
    sel = 4'b1010; #1;
    if (y == 2'd3) $display("PASS hi");
    sel = 4'b0111; #1;
    if (y == 2'd2) $display("PASS mid");
    sel = 4'b0010; #1;
    if (y == 2'd0) $display("PASS def");
    $finish;
  end
endmodule""")
        assert len([l for l in sim.display_lines if "PASS" in l]) == 3

    def test_case_exact_x_match(self):
        sim = simulate("""
module tb;
  reg [1:0] sel; reg hit;
  initial begin
    hit = 0;
    case (sel)
      2'bxx: hit = 1;   // matches the uninitialized selector exactly
    endcase
    $finish;
  end
endmodule""")
        assert sim.value_of("hit").val == 1


class TestSchedulingAndTasks:
    def test_nonblocking_with_delay(self):
        sim = simulate("""
module tb;
  reg [3:0] v;
  initial begin
    v = 4'd1;
    v <= #10 4'd9;
    #5;
    if (v == 4'd1) $display("PASS before");
    #10;
    if (v == 4'd9) $display("PASS after");
    $finish;
  end
endmodule""")
        assert len([l for l in sim.display_lines if "PASS" in l]) == 2

    def test_blocking_intra_assign_delay(self):
        sim = simulate("""
module tb;
  reg [3:0] a, b;
  initial begin
    a = 4'd5;
    b = #4 a;     // rhs sampled now, written at t+4
    a = 4'd7;
    #1 $finish;
  end
endmodule""")
        assert sim.value_of("b").val == 5

    def test_wait_statement_releases(self):
        sim = simulate("""
module tb;
  reg go; reg [1:0] r;
  initial begin
    r = 0;
    wait (go);
    r = 2'd3;
    $finish;
  end
  initial #7 go = 1;
endmodule""")
        assert sim.value_of("r").val == 3
        assert sim.time == 7

    def test_random_is_deterministic(self):
        text = """
module tb;
  reg [31:0] a, b;
  initial begin
    a = $random;
    b = $random;
    $display("%0d %0d", a, b);
    $finish;
  end
endmodule"""
        first = simulate(text).display_lines
        second = simulate(text).display_lines
        assert first == second
        assert first[0].split()[0] != first[0].split()[1]

    def test_unknown_system_task_raises(self):
        with pytest.raises(SimulationError):
            simulate("""
module tb; initial $bogus_task(1); endmodule""")

    def test_user_task_unsupported(self):
        result = run_simulation("""
module tb;
  task t; begin end endtask
  initial t;
endmodule""")
        assert not result.ok

    def test_monitor_treated_as_display(self):
        sim = simulate("""
module tb; reg x;
  initial begin x = 1; $monitor("x=%b", x); $finish; end
endmodule""")
        assert "x=1" in sim.display_lines


class TestLvalueForms:
    def test_indexed_part_select_lvalue(self):
        sim = simulate("""
module tb;
  reg [7:0] v; integer i;
  initial begin
    v = 8'h00;
    i = 4;
    v[i +: 4] = 4'hF;
    $finish;
  end
endmodule""")
        assert sim.value_of("v").val == 0xF0

    def test_concat_lvalue_in_procedural(self):
        sim = simulate("""
module tb;
  reg [3:0] hi, lo;
  initial begin
    {hi, lo} = 8'hAB;
    $finish;
  end
endmodule""")
        assert sim.value_of("hi").val == 0xA
        assert sim.value_of("lo").val == 0xB

    def test_bit_write_to_x_index_is_lost(self):
        sim = simulate("""
module tb;
  reg [3:0] v; reg [1:0] idx;
  initial begin
    v = 4'b0000;
    v[idx] = 1'b1;   // idx is x → write discarded
    $finish;
  end
endmodule""")
        assert sim.value_of("v").val == 0

    def test_memory_element_readback_after_two_writes(self):
        sim = simulate("""
module tb;
  reg [7:0] mem [0:3]; reg [7:0] out;
  initial begin
    mem[1] = 8'h11;
    mem[1] = 8'h22;
    out = mem[1];
    $finish;
  end
endmodule""")
        assert sim.value_of("out").val == 0x22


class TestTimeoutReporting:
    OSCILLATOR = """
module tb;
  reg a; wire b;
  assign b = ~a;
  always @(b) a = b;   // zero-delay feedback loop oscillates
  initial begin a = 0; #10 $finish; end
endmodule"""

    def test_delta_overflow_names_process_and_delta(self):
        with pytest.raises(SimulationTimeout) as excinfo:
            simulate(self.OSCILLATOR)
        err = excinfo.value
        message = str(err)
        # The offending process and the delta count are both carried in
        # the message and as attributes.  The oscillation loop runs
        # through the continuous assign and the always block; either
        # may be the last event dispatched.
        assert "process in 'top' (line" in message
        assert "delta cycles" in message
        assert err.process is not None
        assert "always" in err.process or "assign" in err.process
        assert isinstance(err.delta, int) and err.delta > 0

    def test_runaway_always_names_process(self):
        with pytest.raises(SimulationTimeout) as excinfo:
            design = elaborate(parse("""
module tb;
  reg [3:0] x;
  initial x = 0;
  always x = x + 1;   // no delay, no event control
endmodule"""), "tb")
            sim = Simulator(design, step_budget=20_000)
            sim.run(max_time=100)
        err = excinfo.value
        assert err.process is not None
        assert "always" in err.process or "always" in str(err)


class TestElaborationCorners:
    def test_ordered_parameter_override(self):
        sim = simulate("""
module w #(parameter A = 1, parameter B = 2) (output [7:0] y);
  assign y = A * 10 + B;
endmodule
module tb;
  wire [7:0] y;
  w #(3, 4) dut (y);
  initial #1 $finish;
endmodule""")
        assert sim.value_of("y").val == 34

    def test_parameter_expression_range(self):
        sim = simulate("""
module m #(parameter W = 4) (output [2*W-1:0] y);
  assign y = {2*W{1'b1}};
endmodule
module tb;
  wire [7:0] y;
  m dut (.y(y));
  initial #1 $finish;
endmodule""")
        assert sim.value_of("y").val == 0xFF

    def test_missing_module_reported(self):
        result = run_simulation("""
module tb; ghost u (.a(1'b0)); initial $finish; endmodule""")
        assert not result.ok
        assert "ghost" in result.error

    def test_too_many_ordered_connections(self):
        result = run_simulation("""
module inv (input a, output y); assign y = ~a; endmodule
module tb; reg a; wire y, z;
  inv u (a, y, z);
  initial $finish;
endmodule""")
        assert not result.ok

    def test_clog2_system_function(self):
        sim = simulate("""
module tb;
  reg [7:0] r;
  initial begin r = $clog2(200); $finish; end
endmodule""")
        assert sim.value_of("r").val == 8

    def test_negative_range_bound_reads_signed(self):
        # [-1:0] is two bits, as the lint checker reads it, not 2**32.
        result = run_simulation("""
module tb;
  wire [-1:0] y;
  assign y = 2'b10;
  initial begin #1 $display("%b", y); $finish; end
endmodule""")
        assert result.ok, result.error
        assert result.display == ["10"]
        signal = elaborate(parse("module m; wire [-1:0] y; endmodule"),
                           "m").signal("y")
        assert (signal.width, signal.msb, signal.lsb) == (2, -1, 0)

    def test_oversized_range_is_an_elaboration_error(self):
        result = run_simulation("""
module tb;
  wire [70000:0] y;
  initial $finish;
endmodule""")
        assert not result.ok
        assert "70001 bits wide; the limit is 65536" in result.error

    def test_function_ranges_read_module_parameters(self):
        sim = simulate("""
module tb;
  parameter W = 6;
  reg [7:0] r;
  function [W-1:0] twice;
    input [W-1:0] v;
    integer k;
    begin k = 2; twice = v * k; end
  endfunction
  initial begin r = twice(6'd40); $finish; end
endmodule""")
        assert sim.value_of("r").val == 80 % 64
