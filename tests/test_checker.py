"""Tests for the yosys-style checker."""

from repro.checker import check_source, yosys_feedback

GOOD_COUNTER = """
module counter (clk, rst, en, count);
  input clk, rst, en;
  output reg [1:0] count;
  always @(posedge clk)
    if (rst) count <= 2'd0;
    else if (en) count <= count + 2'd1;
endmodule
"""


class TestCleanDesigns:
    def test_counter_is_clean(self):
        result = check_source(GOOD_COUNTER)
        assert result.ok
        assert result.first_error() is None

    def test_ansi_module_is_clean(self):
        result = check_source("""
module mux (input [7:0] a, input [7:0] b, input s, output [7:0] y);
  assign y = s ? b : a;
endmodule
""")
        assert result.ok

    def test_hierarchy_is_clean(self):
        result = check_source("""
module inv (input a, output y); assign y = ~a; endmodule
module top (input a, output y);
  wire m;
  inv u0 (.a(a), .y(m));
  inv u1 (.a(m), .y(y));
endmodule
""")
        assert result.ok

    def test_report_ok(self):
        assert check_source(GOOD_COUNTER, "c.v").report() == "c.v: OK"


class TestSyntaxErrors:
    def test_unexpected_bracket_like_paper_fig6(self):
        broken = """
module LFSR_3bit (
  input [2:0] SW,
  input [1:0] KEY,
  output reg [2:0] LEDR
);
  always @(posedge KEY0])
    LEDR <= KEY[1] ? SW : {LEDR[2] ^ LEDR[1], LEDR[0], LEDR[2]};
endmodule
"""
        feedback = yosys_feedback(broken, "./111_3-bit LFSR.v")
        assert feedback is not None
        assert feedback.startswith("./111_3-bit LFSR.v:7: ERROR: ")
        assert "unexpected ']'" in feedback

    def test_missing_semicolon(self):
        result = check_source("module m; wire a\nwire b; endmodule")
        assert not result.ok
        assert "syntax error" in result.first_error()

    def test_error_line_number(self):
        result = check_source("module m;\nwire a;\nassign = 1;\nendmodule",
                              "x.v")
        assert result.errors[0].line == 3


class TestSemanticErrors:
    def test_undeclared_identifier(self):
        result = check_source("""
module m (input a, output y);
  assign y = a & enable;
endmodule
""")
        assert not result.ok
        assert "identifier 'enable' is not declared" in \
            result.first_error()

    def test_duplicate_declaration(self):
        result = check_source("""
module m;
  wire x;
  wire x;
endmodule
""")
        assert any("duplicate declaration of 'x'" in d.message
                   for d in result.errors)

    def test_header_port_never_declared(self):
        result = check_source("""
module m (a, b);
  input a;
endmodule
""")
        assert any("port 'b' is not declared" in d.message
                   for d in result.errors)

    def test_procedural_assign_to_wire(self):
        result = check_source("""
module m (input clk, input d, output q);
  always @(posedge clk) q <= d;
endmodule
""")
        assert any("cannot assign to wire 'q'" in d.message
                   for d in result.errors)

    def test_continuous_assign_to_reg(self):
        result = check_source("""
module m (input a, output reg y);
  assign y = a;
endmodule
""")
        assert any("reg 'y' cannot be driven" in d.message
                   for d in result.errors)

    def test_output_reg_assigned_in_always_ok(self):
        assert check_source(GOOD_COUNTER).ok

    def test_unknown_port_in_instance(self):
        result = check_source("""
module inv (input a, output y); assign y = ~a; endmodule
module top; wire w, z;
  inv u0 (.a(w), .out(z));
endmodule
""")
        assert any("has no port 'out'" in d.message for d in result.errors)

    def test_unknown_module_is_warning(self):
        result = check_source("""
module top; wire w, z;
  blackbox u0 (.a(w), .y(z));
endmodule
""")
        assert result.ok
        assert any("is not defined" in d.message for d in result.warnings)

    def test_unknown_function(self):
        result = check_source("""
module m (input [3:0] a, output [3:0] y);
  assign y = mystery(a);
endmodule
""")
        assert any("function 'mystery' is not declared" in d.message
                   for d in result.errors)

    def test_wire_type_error_detected_after_mutation(self):
        # paper's "type error" rule: reg flipped to wire must be caught
        result = check_source("""
module counter (input clk, output wire [1:0] count);
  always @(posedge clk) count <= count + 1;
endmodule
""")
        assert not result.ok


class TestWarnings:
    def test_truncation_warning(self):
        result = check_source("""
module m (input [7:0] a, output [3:0] y);
  assign y = a;
endmodule
""")
        assert result.ok
        assert any("truncates 8 bits to 4 bits" in d.message
                   for d in result.warnings)

    def test_no_truncation_warning_when_widths_match(self):
        result = check_source("""
module m (input [3:0] a, output [3:0] y);
  assign y = a;
endmodule
""")
        assert not result.warnings

    def test_ranges_read_like_elaboration(self):
        # [-1:0] is two bits (signed bounds); $clog2 and ternaries
        # evaluate; ranges elaboration cannot size read as width unknown
        # (no warning, no crash).
        cases = {"-1:0": "truncates 4 bits to 2 bits",
                 "$clog2(5)-1:0": "truncates 4 bits to 3 bits",
                 "(2 > 1 ? 1 : 3):0": "truncates 4 bits to 2 bits",
                 "(1 << 36'hFFFFFFFFF):0": "truncates 4 bits to 1 bits",
                 "(1 ~^ 0):0": "truncates 4 bits to 3 bits",
                 "70000:0": None, "8'dff:0": None,
                 "W:0": None}
        for rng, warning in cases.items():
            result = check_source(f"""
module m (output [{rng}] y);
  assign y = 4'b1010;
endmodule
""")
            messages = [d.message for d in result.diagnostics]
            assert messages == ([f"assignment {warning}"] if warning
                                else []), rng

    def test_block_locals_are_declared(self):
        result = check_source("""
module m;
  initial begin : blk
    integer i;
    i = 3;
  end
endmodule
""")
        assert result.ok
