"""Tests for the EDA substrate: synthesis, flow, Chip API, script runner."""

import pytest

from repro.eda import (BENCHMARK_SCRIPTS, DESIGN_SOURCES, SKY130, Chip,
                       Flow, FlowConstraints, SCError, SynthesisError,
                       reference_corpus, run_script, synthesize)

COUNTER = """module counter (input clk, input rst, input en,
                output reg [3:0] count);
  always @(posedge clk)
    if (rst) count <= 4'd0;
    else if (en) count <= count + 4'd1;
endmodule
"""


class TestSynthesis:
    def test_counter_structure(self):
        result = synthesize(COUNTER)
        assert result.cell_counts["DFF"] == 4
        assert result.num_cells > 10
        assert result.area_um2 > 0

    def test_combinational_only_has_no_flops(self):
        result = synthesize("""
module gates (input a, input b, output x, output y);
  assign x = a & b;
  assign y = a ^ b;
endmodule
""")
        assert "DFF" not in result.cell_counts
        assert result.cell_counts["AND2"] == 1
        assert result.cell_counts["XOR2"] == 1

    def test_mux_from_ternary(self):
        result = synthesize("""
module m (input [3:0] a, input [3:0] b, input s, output [3:0] y);
  assign y = s ? a : b;
endmodule
""")
        assert result.cell_counts["MUX2"] == 4

    def test_case_statement_synthesizes(self):
        result = synthesize(DESIGN_SOURCES["alu_slice.v"])
        assert result.num_cells > 10

    def test_critical_path_positive_and_bounded(self):
        result = synthesize(COUNTER)
        assert 0 < result.critical_path_ns < 50
        assert result.fmax_mhz > 1

    def test_wider_adder_has_longer_path(self):
        def adder(width):
            return synthesize(f"""
module a (input [{width - 1}:0] x, input [{width - 1}:0] y,
          output [{width - 1}:0] s);
  assign s = x + y;
endmodule
""")
        assert adder(16).critical_path_ns > adder(4).critical_path_ns

    def test_memory_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize("module m (input clk); reg [7:0] mem [0:3]; "
                       "endmodule")

    def test_parse_error_raises_synthesis_error(self):
        with pytest.raises(SynthesisError):
            synthesize("module m (input a; endmodule")

    def test_shift_by_constant(self):
        result = synthesize("""
module s (input [7:0] a, output [7:0] y);
  assign y = a << 2;
endmodule
""")
        assert result.num_cells >= 8  # buffers for outputs


class TestFlow:
    def test_full_flow_green(self):
        flow = Flow(SKY130)
        result = flow.run(COUNTER, None, FlowConstraints(
            clock_period_ns=10))
        assert result.ok, result.summary()
        stage_names = [s.name for s in result.stages]
        assert stage_names == ["import", "syn", "floorplan", "place",
                               "cts", "route", "sta", "power", "export"]
        assert result.ppa is not None
        assert result.ppa.utilization_pct < 100
        assert result.gds["cell_count"] == result.ppa.num_cells

    def test_lint_failure_stops_at_import(self):
        result = Flow().run("module m (input a; endmodule", None,
                            FlowConstraints())
        assert not result.ok
        assert result.stages[-1].name == "import"

    def test_timing_violation_detected(self):
        wide = """
module slow (input clk, input [15:0] a, input [15:0] b,
             output reg [15:0] p);
  always @(posedge clk) p <= a * b;
endmodule
"""
        fast = Flow().run(wide, None, FlowConstraints(clock_period_ns=100))
        tight = Flow().run(wide, None,
                           FlowConstraints(clock_period_ns=0.5))
        assert fast.ok, fast.summary()
        assert not tight.ok
        assert tight.stages[-1].name == "sta"

    def test_too_small_die_fails_floorplan(self):
        result = Flow().run(COUNTER, None, FlowConstraints(
            die_area=(5, 5), core_margin_um=1))
        assert not result.ok
        assert result.stages[-1].name == "floorplan"

    def test_summary_contains_ppa_rows(self):
        result = Flow().run(COUNTER, None, FlowConstraints())
        text = result.summary()
        assert "fmax (MHz)" in text
        assert "power (mW)" in text

    def test_gds_cells_have_positions(self):
        result = Flow().run(COUNTER, None, FlowConstraints())
        cells = result.gds["cells"]
        assert len(cells) == result.ppa.num_cells
        die = result.gds["die"]
        for cell in cells:
            assert die[0] <= cell["xy"][0] <= die[2]
            assert die[1] <= cell["xy"][1] <= die[3]


class TestChipAPI:
    def test_basic_run(self):
        chip = Chip("heartbeat")
        chip.input("heartbeat.v")
        chip.clock("clk", period=10)
        chip.load_target("skywater130_demo")
        result = chip.run()
        assert result.ok
        assert "SUMMARY" in chip.summary()

    def test_invalid_keypath_rejected(self):
        chip = Chip("x")
        with pytest.raises(SCError):
            chip.set("undocumented", "knob", 1)

    def test_unknown_target_rejected(self):
        chip = Chip("x")
        with pytest.raises(SCError):
            chip.load_target("tsmc5")

    def test_run_without_target_rejected(self):
        chip = Chip("heartbeat")
        chip.input("heartbeat.v")
        with pytest.raises(SCError):
            chip.run()

    def test_missing_source_file(self):
        chip = Chip("ghost")
        chip.input("ghost.v")
        chip.load_target("skywater130_demo")
        with pytest.raises(SCError):
            chip.run()

    def test_diearea_constraint_applied(self):
        chip = Chip("heartbeat")
        chip.input("heartbeat.v")
        chip.set("asic", "diearea", [(0, 0), (150, 150)])
        chip.load_target("skywater130_demo")
        result = chip.run()
        assert result.ok
        assert result.gds["die"][2] == 150.0

    def test_summary_before_run_rejected(self):
        with pytest.raises(SCError):
            Chip("x").summary()


class TestScriptRunner:
    @pytest.mark.parametrize("task", sorted(BENCHMARK_SCRIPTS))
    def test_benchmark_scripts_pass(self, task):
        check = run_script(BENCHMARK_SCRIPTS[task])
        assert check.syntax_ok and check.function_ok, check.summary

    def test_python_syntax_error(self):
        check = run_script("chip = Chip('x'\n")
        assert not check.syntax_ok

    def test_semantic_error_bad_keypath(self):
        check = run_script(
            "chip = Chip('heartbeat')\n"
            "chip.set('undocumented', 'clock', 'period', 10)\n")
        assert check.syntax_ok
        assert not check.function_ok

    def test_semantic_error_unknown_method(self):
        check = run_script(
            "chip = Chip('heartbeat')\nchip.clock_pin('clk')\n")
        assert check.syntax_ok and not check.function_ok

    def test_script_without_run_fails_function(self):
        check = run_script("chip = Chip('heartbeat')\n"
                           "chip.input('heartbeat.v')\n")
        assert check.syntax_ok and not check.function_ok
        assert "never ran" in check.error

    def test_expectation_enforced(self):
        check = run_script(
            BENCHMARK_SCRIPTS["Clock Period"],
            expectation=lambda chip: chip.get("clock", "period") == 99)
        assert not check.function_ok

    def test_extra_sources_injected(self):
        script = ("chip = Chip('inv')\nchip.input('inv.v')\n"
                  "chip.load_target('skywater130_demo')\n"
                  "chip.run()\n")
        check = run_script(script, extra_sources={
            "inv.v": "module inv (input a, output y); assign y = ~a; "
                     "endmodule"})
        assert check.function_ok, check.summary


class TestReferenceCorpus:
    def test_corpus_count_and_uniqueness(self):
        corpus = reference_corpus(200)
        assert len(corpus) == 200
        assert len(set(corpus)) == 200

    def test_corpus_deterministic(self):
        assert reference_corpus(50) == reference_corpus(50)

    def test_sampled_scripts_actually_run(self):
        corpus = reference_corpus(200)
        for script in corpus[::40]:          # 5 samples
            check = run_script(script)
            assert check.function_ok, f"{check.summary}\n{script}"


class TestBarrelShifter:
    def test_variable_left_shift_synthesizes(self):
        result = synthesize("""
module dec (input [2:0] sel, output [7:0] y);
  assign y = 8'd1 << sel;
endmodule
""")
        assert result.cell_counts.get("MUX2", 0) >= 8

    def test_variable_shift_equivalence(self):
        from repro.eda import check_equivalence
        outcome = check_equivalence("""
module sh (input [7:0] a, input [2:0] amt, output [7:0] l,
           output [7:0] r);
  assign l = a << amt;
  assign r = a >> amt;
endmodule
""", vectors=16, seed=4)
        assert outcome.equivalent, outcome.error

    def test_overflow_amount_shifts_to_zero(self):
        from repro.eda import check_equivalence
        outcome = check_equivalence("""
module sh (input [3:0] a, input [3:0] amt, output [3:0] y);
  assign y = a << amt;
endmodule
""", vectors=16, seed=5)
        assert outcome.equivalent, outcome.error


class TestDeclarationReading:
    """Synthesis, equivalence and the flow read parameters and ranges
    the way elaboration does."""

    def test_parameterised_ports_are_equivalence_checked(self):
        from repro.eda import check_equivalence
        outcome = check_equivalence("""
module addp #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b,
                                output [W:0] s);
  assign s = a + b;
endmodule
""")
        assert outcome.equivalent, outcome.error
        assert outcome.vectors == 24

    def test_negative_range_bound_is_two_bits(self):
        result = synthesize("""
module m (input [3:0] a, output [-1:0] y);
  assign y = a;
endmodule
""")
        assert result.netlist.outputs == ["y[0]", "y[1]"]

    def test_oversized_range_raises_synthesis_error(self):
        with pytest.raises(SynthesisError,
                           match="the limit is 65536"):
            synthesize("module m (input [70000:0] a, output y); "
                       "assign y = a[0]; endmodule")

    def test_nonconstant_parameter_raises_synthesis_error(self):
        with pytest.raises(SynthesisError,
                           match="identifier 'Q' is not a constant"):
            synthesize(UNCONSTANT_PARAM)

    def test_flow_records_a_failed_syn_stage(self):
        result = Flow().run(UNCONSTANT_PARAM, None, FlowConstraints())
        assert not result.ok
        assert [stage.name for stage in result.stages] == ["import", "syn"]
        assert "identifier 'Q' is not a constant" in result.stages[-1].error

    @pytest.mark.parametrize("command", ["synth", "flow"])
    def test_cli_reports_a_nonconstant_parameter(self, command, tmp_path,
                                                 capsys):
        from repro.cli import main
        path = tmp_path / "p.v"
        path.write_text(UNCONSTANT_PARAM)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "identifier 'Q' is not a constant" in (captured.out
                                                      + captured.err)
        assert "Traceback" not in captured.err

    def test_unknown_top_raises_synthesis_error(self):
        with pytest.raises(SynthesisError,
                           match="^no module named 'nope'$"):
            synthesize(COUNTER, top="nope")

    def test_cli_synth_names_an_unknown_top(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "c.v"
        path.write_text(COUNTER)
        assert main(["synth", str(path), "--top", "nope"]) == 1
        assert capsys.readouterr().err == \
            "synthesis failed: no module named 'nope'\n"

    def test_cli_flow_fails_the_syn_stage_on_an_unknown_top(
            self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "c.v"
        path.write_text(COUNTER)
        assert main(["flow", str(path), "--top", "nope"]) == 1
        out = capsys.readouterr().out
        assert "syn          FAIL (no module named 'nope')" in out
        result = Flow().run(COUNTER, "nope", FlowConstraints())
        assert [(stage.name, stage.ok) for stage in result.stages] == \
            [("import", True), ("syn", False)]


#: Synthesizes ``accu`` and runs its flow; prints the netlist text and
#: the flow summary.
_ACCU_SCRIPT = """
from repro.bench import rtllm_suite
from repro.eda import Flow, FlowConstraints, synthesize
from repro.eda.netlist_writer import netlist_to_verilog
source = {p.name: p for p in rtllm_suite()}["accu"].reference
print(netlist_to_verilog(synthesize(source).netlist))
print(Flow().run(source, None, FlowConstraints()).summary())
"""


def test_synthesis_does_not_depend_on_the_string_hash_seed():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", _ACCU_SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        outputs.append(run.stdout)
    assert "SUMMARY: accu" in outputs[0]
    assert outputs[0] == outputs[1]


UNCONSTANT_PARAM = """module p #(parameter W = Q) (input [3:0] a,
                                  output [3:0] y);
  assign y = a;
endmodule
"""
