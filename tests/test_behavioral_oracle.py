"""Tests for the behavioural model zoo and the GPT-3.5 stand-in oracle."""

import pytest

from repro.checker import check_source
from repro.llm import (DescriptionOracle, available_models,
                       corrupt_functionally, corrupt_syntax,
                       derived_solve_rate, get_model, get_profile)
from repro.sim import run_testbench

REFERENCE = """module counter (clk, rst, en, count);
  input clk, rst, en;
  output reg [1:0] count;
  always @(posedge clk)
    if (rst) count <= 2'd0;
    else if (en) count <= count + 2'd1;
endmodule
"""

TESTBENCH = """module tb;
  reg clk, rst, en; wire [1:0] count;
  counter dut (.clk(clk), .rst(rst), .en(en), .count(count));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; en = 0;
    #12 rst = 0; en = 1;
    #10;
    if (count == 2'd1) $display("PASS one"); else $display("FAIL one");
    #10;
    if (count == 2'd2) $display("PASS two"); else $display("FAIL two");
    #20;
    if (count == 2'd0) $display("PASS wrap"); else $display("FAIL wrap");
    en = 0;
    #10;
    if (count == 2'd0) $display("PASS hold"); else $display("FAIL hold");
    $finish;
  end
endmodule
"""

SCRIPT = """from siliconcompiler import Chip
chip = Chip('heartbeat')
chip.input('heartbeat.v')
chip.clock('clk', period=10)
chip.set('constraint', 'coremargin', 2)
chip.load_target('skywater130_demo')
chip.run()
chip.summary()
"""


class TestCorruption:
    def test_functional_corruption_still_parses(self):
        for seed in range(6):
            corrupted = corrupt_functionally(REFERENCE, seed)
            assert check_source(corrupted).ok or \
                "count" in corrupted  # parses (lint warnings allowed)
            from repro.verilog import parse
            parse(corrupted)  # must not raise

    def test_functional_corruption_changes_semantics(self):
        changed = 0
        for seed in range(6):
            corrupted = corrupt_functionally(REFERENCE, seed)
            if corrupted.strip() != REFERENCE.strip():
                changed += 1
        assert changed >= 4

    def test_memoised_functional_corruption_matches_direct_call(self):
        for seed in range(32):
            assert corrupt_functionally(REFERENCE, seed) == \
                corrupt_functionally.__wrapped__(REFERENCE, seed)

    def test_first_attempt_reuses_the_canonical_parse(self, monkeypatch):
        import random

        from repro.bench import thakur_suite
        from repro.llm import behavioral
        from repro.verilog import parse, unparse

        def two_parse_form(text, seed, attempts=5, edits=2):
            # Canonical form and every attempt on separate parses; returns
            # the result and how many parses a parse-once form needs.
            canonical = unparse(parse(text))
            for attempt in range(attempts):
                source = parse(text)
                rng = random.Random(seed + attempt * 7919)
                if behavioral._functional_edits(source, rng, count=edits):
                    mutated = unparse(source)
                    if mutated != canonical:
                        return mutated, attempt + 1
            return text, attempts

        parsed = []

        def counting_parse(text, filename="<input>"):
            parsed.append(text)
            return parse(text, filename)

        monkeypatch.setattr(behavioral, "parse", counting_parse)
        texts = [REFERENCE] + [p.reference for p in thakur_suite()[:6]]
        for text in texts:
            for seed in range(4):
                expected, parses = two_parse_form(text, seed)
                parsed.clear()
                assert corrupt_functionally.__wrapped__(text, seed) == \
                    expected
                assert len(parsed) == parses

    def test_syntax_corruption_breaks_checker(self):
        broken = 0
        for seed in range(8):
            corrupted = corrupt_syntax(REFERENCE, seed)
            if not check_source(corrupted).ok:
                broken += 1
        assert broken >= 6


class TestBehavioralModels:
    def test_registry_lists_six_models(self):
        assert len(available_models()) == 6
        assert "ours-13b" in available_models()

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_profile("nonexistent")

    def test_stronger_model_solves_superset(self):
        strong = get_model("ours-13b")
        weak = get_model("llama2-13b")
        for difficulty in (0.1, 0.3, 0.5, 0.7):
            if weak.solves("intermediate", difficulty):
                assert strong.solves("intermediate", difficulty)

    def test_generation_deterministic(self):
        model = get_model("ours-13b")
        a = model.generate_verilog(REFERENCE, "basic", 0.2,
                                   problem_name="counter")
        b = model.generate_verilog(REFERENCE, "basic", 0.2,
                                   problem_name="counter")
        assert a == b

    def test_solved_problem_passes_testbench(self):
        model = get_model("ours-13b")
        samples = model.generate_verilog(REFERENCE, "basic", 0.1,
                                         problem_name="counter",
                                         n_samples=5)
        verdicts = [run_testbench(s, TESTBENCH) for s in samples]
        assert any(v.all_passed for v in verdicts)

    def test_unsolved_problem_fails_testbench(self):
        model = get_model("llama2-13b")
        samples = model.generate_verilog(REFERENCE, "advanced", 0.9,
                                         problem_name="counter",
                                         n_samples=5)
        verdicts = [run_testbench(s, TESTBENCH) for s in samples]
        assert not any(v.all_passed for v in verdicts)

    def test_repair_rates_ordered_like_paper(self):
        # Table 3: ours-13B > ours-7B > GPT3.5 > Llama2-13B
        rates = [get_profile(n).repair_rate
                 for n in ("ours-13b", "ours-7b", "gpt-3.5", "llama2-13b")]
        assert rates == sorted(rates, reverse=True)

    def test_script_skill_ours_one_shot(self):
        model = get_model("ours-13b")
        assert model.generate_script("Basic", SCRIPT, attempt=1) == SCRIPT

    def test_script_skill_gpt35_needs_iterations(self):
        model = get_model("gpt-3.5")
        first = model.generate_script("Basic", SCRIPT, attempt=1)
        assert first != SCRIPT
        ninth = model.generate_script("Basic", SCRIPT, attempt=9)
        assert ninth == SCRIPT

    def test_derived_solve_rate_matches_ours_calibration(self):
        """The scaling-law link lands near the calibrated profile."""
        base = get_profile("llama2-13b").solve_rate["intermediate"]
        derived = derived_solve_rate(base, aligned_records=124_000,
                                     total_records=6_959_200, params_b=13)
        ours = get_profile("ours-13b").solve_rate["intermediate"]
        assert derived == pytest.approx(ours, abs=0.12)

    def test_derived_rate_monotone_in_data(self):
        small = derived_solve_rate(0.3, 10, 100, 13)
        large = derived_solve_rate(0.3, 10_000, 100_000, 13)
        assert large > small


class TestDescriptionOracle:
    def test_describes_all_key_calls(self):
        text = DescriptionOracle().describe(SCRIPT)
        assert "chip object for design 'heartbeat'" in text
        assert "'heartbeat.v'" in text
        assert "period of 10 nanoseconds" in text
        assert "core margin to 2" in text
        assert "target 'skywater130_demo'" in text
        assert "Run the compilation flow." in text
        assert "PPA report" in text

    def test_invalid_python_returns_empty(self):
        assert DescriptionOracle().describe("chip = Chip(") == ""

    def test_set_keypath_fallback(self):
        text = DescriptionOracle().describe(
            "chip = Chip('x')\nchip.set('exotic', 'knob', 42)\n")
        assert "Set parameter exotic / knob to 42." in text

    def test_describes_diearea(self):
        text = DescriptionOracle().describe(
            "chip = Chip('x')\n"
            "chip.set('asic', 'diearea', [(0, 0), (100, 100)])\n")
        assert "die area" in text
