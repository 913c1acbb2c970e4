"""Tests for extension features: netlist writer, equivalence checking,
VCD tracing, the agent loop, the LoRA finetuning example, and the CLI."""

import pathlib
import runpy

import pytest

from repro.agent import AgentResult, ChipAgent
from repro.bench import thakur_suite
from repro.cli import main as cli_main
from repro.eda import check_equivalence, netlist_to_verilog, synthesize
from repro.sim import run_simulation
from repro.verilog import parse

COUNTER = """module counter (input clk, input rst, input en,
                output reg [3:0] count);
  always @(posedge clk)
    if (rst) count <= 4'd0;
    else if (en) count <= count + 4'd1;
endmodule
"""

COMBO = """module combo (input [3:0] a, input [3:0] b, output [3:0] y,
              output p);
  assign y = (a & b) ^ (a + b);
  assign p = ^a;
endmodule
"""


class TestNetlistWriter:
    def test_emitted_netlist_parses(self):
        result = synthesize(COUNTER)
        text = netlist_to_verilog(result.netlist)
        source = parse(text)
        assert source.modules[0].name == "counter_gates"

    def test_flops_become_clocked_always(self):
        result = synthesize(COUNTER)
        text = netlist_to_verilog(result.netlist)
        assert text.count("always @(posedge") == 4   # one per DFF

    def test_combinational_netlist_has_no_regs(self):
        result = synthesize(COMBO)
        text = netlist_to_verilog(result.netlist)
        assert "always" not in text
        assert "reg " not in text


class TestEquivalence:
    @pytest.mark.parametrize("rtl", [COUNTER, COMBO], ids=["seq", "comb"])
    def test_design_equivalent_to_own_netlist(self, rtl):
        result = check_equivalence(rtl, vectors=12, seed=3)
        assert result.error is None
        assert result.equivalent, f"{result.mismatches} mismatches"

    def test_detects_inequivalence(self):
        # Compare counter RTL against an incremented-by-2 netlist by
        # synthesizing a modified design under the same module name.
        from repro.eda.netlist_writer import netlist_to_verilog
        from repro.eda.synthesis import Synthesizer
        wrong_rtl = COUNTER.replace("count + 4'd1", "count + 4'd2")
        module = parse(wrong_rtl).modules[0]
        netlist = Synthesizer(module).run()
        gate_text = netlist_to_verilog(netlist)
        # splice: original RTL + wrong netlist through the low-level path
        from repro.eda import equivalence as eq
        import repro.eda.equivalence as eqmod
        real_run = eqmod.Synthesizer.run

        class FakeSynth(eqmod.Synthesizer):
            def run(self):  # noqa: D102 — return the wrong netlist
                return netlist
        eqmod.Synthesizer, saved = FakeSynth, eqmod.Synthesizer
        try:
            result = eq.check_equivalence(COUNTER, vectors=10, seed=0)
        finally:
            eqmod.Synthesizer = saved
        assert not result.equivalent
        assert result.mismatches > 0

    def test_unsynthesizable_reports_error(self):
        result = check_equivalence(
            "module m (input clk); reg [7:0] mem [0:3]; endmodule")
        assert not result.equivalent
        assert "memory" in result.error

    @pytest.mark.parametrize("family",
                             ["counter", "alu", "mux", "gray_counter",
                              "parity", "comparator"])
    def test_corpus_families_equivalent(self, family):
        import random
        from repro.corpus import generate_design
        text = generate_design(random.Random(1), 1, family)
        result = check_equivalence(text, vectors=8, seed=2)
        assert result.equivalent, (family, result.error,
                                   result.mismatches)


class TestVCD:
    TB = """module tb;
  reg clk; reg [1:0] n;
  initial begin
    $dumpfile("t.vcd");
    $dumpvars;
    clk = 0; n = 0;
    repeat (2) begin #5 clk = 1; n = n + 1; #5 clk = 0; end
    $finish;
  end
endmodule
"""

    def test_dumpvars_produces_vcd(self):
        result = run_simulation(self.TB)
        assert result.vcd is not None
        assert "$enddefinitions $end" in result.vcd
        assert "$var wire 1" in result.vcd
        assert "$var wire 2" in result.vcd

    def test_vcd_records_transitions(self):
        result = run_simulation(self.TB)
        assert "#5" in result.vcd
        assert "b01" in result.vcd
        assert "b10" in result.vcd

    def test_trace_flag_without_dumpvars(self):
        plain = self.TB.replace('$dumpfile("t.vcd");', "") \
            .replace("$dumpvars;", "")
        result = run_simulation(plain, trace=True)
        assert result.vcd is not None
        assert "#5" in result.vcd

    def test_no_trace_no_vcd(self):
        plain = self.TB.replace('$dumpfile("t.vcd");', "") \
            .replace("$dumpvars;", "")
        assert run_simulation(plain).vcd is None

    def test_hierarchy_scopes_in_vcd(self):
        result = run_simulation("""
module inv (input a, output y); assign y = ~a; endmodule
module tb;
  reg a; wire y;
  inv dut (.a(a), .y(y));
  initial begin a = 0; #1 a = 1; #1 $finish; end
endmodule
""", trace=True)
        assert "$scope module dut $end" in result.vcd


class TestAgent:
    def test_strong_model_passes_with_flow(self):
        problem = next(p for p in thakur_suite()
                       if p.name == "intermediate1")
        agent = ChipAgent("ours-13b", run_flow=True)
        result = agent.build(problem)
        assert result.passed
        assert result.flow_result is not None
        assert result.flow_result.ok
        assert "GDS out" in result.transcript

    def test_weak_model_fails_hard_problem(self):
        problem = next(p for p in thakur_suite()
                       if p.name == "intermediate7")
        result = ChipAgent("llama2-13b", max_rounds=2).build(problem)
        assert not result.passed
        assert result.rounds == 2

    def test_transcript_records_stages(self):
        problem = thakur_suite()[0]
        result = ChipAgent("ours-13b").build(problem)
        assert "[generate" in result.transcript
        assert isinstance(result, AgentResult)


class TestLoraFinetuneExample:
    def test_example_trains_both_stages(self, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "examples" \
            / "train_lora_finetune.py"
        runpy.run_path(str(path))["main"]()
        out = capsys.readouterr().out
        assert "stage 1 (completion): val loss" in out
        assert "LoRA finetuning reduced aligned-task loss: yes" in out


class TestCLI:
    @pytest.fixture
    def verilog_file(self, tmp_path):
        path = tmp_path / "counter.v"
        path.write_text(COUNTER)
        return str(path)

    def test_describe(self, verilog_file, capsys):
        assert cli_main(["describe", verilog_file]) == 0
        assert "module <counter>" in capsys.readouterr().out

    def test_check_ok(self, verilog_file, capsys):
        assert cli_main(["check", verilog_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_broken_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.v"
        path.write_text("module m (input a output y); endmodule")
        assert cli_main(["check", str(path)]) == 1

    def test_synth(self, verilog_file, capsys):
        assert cli_main(["synth", verilog_file]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "DFF" in out

    def test_flow(self, verilog_file, capsys):
        assert cli_main(["flow", verilog_file, "--clock", "12"]) == 0
        assert "fmax" in capsys.readouterr().out

    def test_simulate_with_vcd(self, tmp_path, capsys):
        tb = tmp_path / "tb.v"
        tb.write_text(COUNTER + """
module tb;
  reg clk, rst, en; wire [3:0] count;
  counter dut (.clk(clk), .rst(rst), .en(en), .count(count));
  initial begin
    clk = 0; rst = 1; en = 1;
    #2 clk = 1; #2 clk = 0; rst = 0;
    #2 clk = 1; #2 clk = 0;
    $display("count=%0d", count);
    $finish;
  end
endmodule
""")
        vcd_path = tmp_path / "out.vcd"
        assert cli_main(["simulate", str(tb), "--vcd",
                         str(vcd_path)]) == 0
        assert vcd_path.exists()
        assert "$enddefinitions" in vcd_path.read_text()

    def test_augment_writes_jsonl(self, verilog_file, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert cli_main(["augment", verilog_file, "--out",
                         str(out)]) == 0
        assert out.exists()
        assert "Verilog Debug" in capsys.readouterr().out

    def test_agent_command(self, capsys):
        assert cli_main(["agent", "basic1", "--model", "ours-13b"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_agent_unknown_problem(self, capsys):
        assert cli_main(["agent", "nonexistent"]) == 2
