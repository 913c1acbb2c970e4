"""The simulation entry points: the run_simulation memo, its counters,
and the multi-candidate batch API."""

import pytest

from repro.sim import (backend_stats, clear_memo, reset_backend_stats,
                       run_simulation, run_testbench, run_testbench_batch)

SIMPLE = """
module tb;
  reg [3:0] x;
  initial begin x = 4'd9; $display("x=%d", x); $finish; end
endmodule
"""

DESIGN = """
module inc(input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
"""

BENCH = """
module tb;
  reg [3:0] a; wire [3:0] y;
  inc dut(.a(a), .y(y));
  initial begin
    a = 4'd3; #1;
    if (y == 4'd4) $display("PASS"); else $display("FAIL");
    $finish;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def fresh_sim_state():
    clear_memo()
    reset_backend_stats()
    yield
    clear_memo()
    reset_backend_stats()


class TestMemo:
    def test_hit_returns_an_equal_but_independent_result(self):
        first = run_simulation(SIMPLE)
        expected = list(first.display)
        assert expected == ["x=9"]
        first.display.append("mutated by the caller")
        second = run_simulation(SIMPLE)
        assert second.display == expected
        assert (second.ok, second.finished, second.time) == \
            (first.ok, first.finished, first.time)
        second.display.clear()
        assert run_simulation(SIMPLE).display == expected

    def test_counts_misses_and_hits(self):
        run_simulation(SIMPLE)
        run_simulation(SIMPLE)
        run_simulation(SIMPLE, top="tb")        # another key
        stats = backend_stats()
        assert stats.interp_runs == 2
        assert stats.cache_hits == 1

    def test_errored_runs_are_counted_and_memoised(self):
        bad = "module tb; initial undeclared_x = 1; endmodule"
        first = run_simulation(bad)
        second = run_simulation(bad)
        assert not first.ok and first.error
        assert (second.ok, second.error) == (first.ok, first.error)
        assert backend_stats().interp_runs == 1
        assert backend_stats().cache_hits == 1

    def test_traced_runs_bypass_the_memo(self):
        plain = run_simulation(SIMPLE)
        traced = run_simulation(SIMPLE, trace=True)
        again = run_simulation(SIMPLE, trace=True)
        assert plain.vcd is None
        assert traced.vcd and again.vcd == traced.vcd
        assert traced.display == plain.display
        assert backend_stats().interp_runs == 3
        assert backend_stats().cache_hits == 0

    def test_dumpvars_sources_bypass_the_memo(self):
        text = SIMPLE.replace("initial begin",
                              "initial begin $dumpvars;", 1)
        first = run_simulation(text)
        second = run_simulation(text)
        assert first.vcd and second.vcd == first.vcd
        assert backend_stats().interp_runs == 2
        assert backend_stats().cache_hits == 0


class TestBatchStimulus:
    def test_batch_matches_serial(self):
        wrong = DESIGN.replace("a + 4'd1", "a + 4'd2")
        candidates = [DESIGN, wrong, DESIGN]
        serial = [run_testbench(text, BENCH) for text in candidates]
        batch = run_testbench_batch(candidates, BENCH)
        assert [(v.ok, v.passed, v.failed, v.error) for v in batch] == \
               [(v.ok, v.passed, v.failed, v.error) for v in serial]
        assert [v.all_passed for v in batch] == [True, False, True]

    def test_batch_is_not_memoised(self):
        run_testbench_batch([DESIGN, DESIGN], BENCH)
        assert backend_stats().interp_runs == 2
        assert backend_stats().cache_hits == 0

    def test_batch_surfaces_candidate_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, "module broken"], BENCH)
        assert verdicts[0].all_passed
        assert not verdicts[1].ok and verdicts[1].error

    def test_batch_surfaces_bench_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, DESIGN], "endmodule !")
        assert len(verdicts) == 2
        assert all(not v.ok and v.error for v in verdicts)
