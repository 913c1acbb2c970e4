"""Unit tests for the compiled backend's plumbing.

The *semantics* of the compiled backend are pinned by the differential
fuzz harness and the golden-trace suite; this file covers the machinery
around it: backend selection, the two-layer
:class:`~repro.sim.compile.CompiledDesignCache` and its atomic swap,
fallback accounting, the multi-candidate batch API, and the
``sim_backend`` threading through the evaluation stack.
"""

import os
import threading

import pytest

from repro.bench import thakur_suite
from repro.eval import clear_cache, evaluate_candidate
from repro.eval.engine import EvalTask
from repro.llm import get_model
from repro.sim import (BACKENDS, CompiledDesignCache, backend_stats,
                       compile_design, configure_design_cache, elaborate,
                       reset_backend_stats, run_simulation, run_testbench,
                       run_testbench_batch, source_digest)
from repro.verilog import parse

SIMPLE = """
module tb;
  reg [3:0] x;
  initial begin x = 4'd9; $display("x=%d", x); $finish; end
endmodule
"""

# Non-identifier sensitivity: lowering refuses; interpreter handles it.
NEEDS_FALLBACK = """
module tb;
  reg a; reg y;
  always @(a[0]) y = ~a;
  initial begin a = 0; #1 a = 1; #1 $display("y=%b", y); $finish; end
endmodule
"""

CLOCKED = """
module tb;
  reg clk; reg [3:0] n;
  always @(posedge clk) n <= n + 4'd1;
  initial begin
    clk = 0; n = 0;
    repeat (8) #5 clk = ~clk;
    $display("n=%d", n);
    $finish;
  end
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
def fresh_backend_state():
    configure_design_cache()
    reset_backend_stats()
    yield
    configure_design_cache()
    reset_backend_stats()


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(SIMPLE, backend="vcs")

    def test_cli_rejects_unknown_backend(self):
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["simulate", "--sim-backend", "codegen", "x.v"])
        assert exc.value.code == 2

    def test_explicit_interp_is_counted(self):
        result = run_simulation(SIMPLE, backend="interp")
        assert result.ok
        assert backend_stats().interp_runs == 1
        assert backend_stats().compiled_runs == 0

    def test_default_is_compiled(self):
        result = run_simulation(SIMPLE)
        assert result.ok
        assert backend_stats().compiled_runs == 1

    def test_fallback_is_counted_and_equivalent(self):
        r_compiled = run_simulation(NEEDS_FALLBACK)
        r_interp = run_simulation(NEEDS_FALLBACK, backend="interp")
        stats = backend_stats()
        assert stats.fallbacks == 1
        assert stats.fallback_reasons  # reason recorded
        assert r_compiled.display == r_interp.display
        assert r_compiled.time == r_interp.time


class TestTimeoutConvergence:
    """Step budgets are charged differently by the two runtimes, so a
    compiled-side timeout falls back to the interpreter — the final
    verdict (pass or timeout) is interp-authoritative either way."""

    # A forever loop exhausts both runtimes' budgets quickly (the flat
    # +50/iteration charge dominates), keeping these tests cheap.
    RUNAWAY = """
module tb;
  integer i;
  initial begin
    i = 0;
    forever i = i + 1;
  end
endmodule
"""
    BOUNDED = """
module tb;
  integer i; reg [31:0] acc;
  initial begin
    acc = 0;
    for (i = 0; i < 1000; i = i + 1) acc = acc + (i * 3) + (acc >> 2);
    $display("done %0d acc=%0d", i, acc);
    $finish;
  end
endmodule
"""

    @pytest.mark.parametrize("text", [BOUNDED, RUNAWAY],
                             ids=["bounded", "over-budget"])
    def test_verdicts_match_across_budget_boundary(self, text):
        r_compiled = run_simulation(text)
        r_interp = run_simulation(text, backend="interp")
        assert r_compiled.ok == r_interp.ok
        assert r_compiled.display == r_interp.display
        assert r_compiled.error == r_interp.error

    def test_compiled_timeout_counts_as_fallback(self):
        run_simulation(self.RUNAWAY)
        stats = backend_stats()
        assert stats.fallbacks == 1
        # Keyed under a stable reason so long sweeps aggregate instead
        # of growing one key per timing-out design.
        assert stats.fallback_reasons.get("timeout") == 1
        assert stats.compiled_runs == 0

    def test_compiled_budget_is_no_laxer_than_interp(self):
        # Direct runtimes with a small budget: if the interpreter
        # times out, the compiled runtime must too (overcharge-only
        # divergence, which the fallback then converges).
        from repro.sim import Simulator, SimulationTimeout
        text = """
module tb;
  integer i; reg [31:0] acc;
  initial begin
    acc = 0;
    for (i = 0; i < 100000; i = i + 1) acc = acc + i;
    $finish;
  end
endmodule
"""
        interp = Simulator(elaborate(parse(text), "tb"),
                           step_budget=50_000)
        with pytest.raises(SimulationTimeout):
            interp.run(max_time=1000)
        compiled = compile_design(elaborate(parse(text), "tb"))
        with pytest.raises(SimulationTimeout):
            compiled.simulator(step_budget=50_000).run(max_time=1000)

    def test_failed_compiled_run_still_counted(self):
        result = run_simulation(
            "module tb; initial undeclared_x = 1; endmodule")
        assert not result.ok
        assert backend_stats().compiled_runs == 1


class TestSourceDigest:
    def test_digest_tracks_text_and_top(self):
        base = source_digest(SIMPLE, None)
        assert source_digest(SIMPLE, None) == base
        assert source_digest(SIMPLE + " ", None) != base
        assert source_digest(SIMPLE, "tb") != base


class TestCompiledDesignCache:
    def test_in_memory_reuse(self):
        run_simulation(SIMPLE)
        run_simulation(SIMPLE)
        stats = backend_stats()
        assert stats.compiles == 1
        assert stats.cache_hits == 1

    def test_lru_bound(self):
        cache = CompiledDesignCache(maxsize=2)
        design = compile_design(elaborate(parse(SIMPLE), "tb"))
        cache.put("a", design)
        cache.put("b", design)
        cache.put("c", design)
        assert cache.get("a") is None      # evicted
        assert cache.get("c") is design

    def test_persistent_verdicts(self, tmp_path):
        root = str(tmp_path / "sim-cache")
        configure_design_cache(root=root)
        run_simulation(SIMPLE)
        run_simulation(NEEDS_FALLBACK)
        # Only the *unsupported* verdict persists: a "supported" entry
        # would save nothing (the artefact must be re-lowered anyway)
        # and would churn one file per evaluated candidate.
        entries = os.listdir(os.path.join(root, "designs"))
        assert len(entries) == 1
        assert os.path.exists(os.path.join(root, "manifest.json"))

        # A fresh cache (new process, in effect) reads the verdict:
        # the unsupported design skips its doomed compile attempt.
        configure_design_cache(root=root)
        reset_backend_stats()
        run_simulation(NEEDS_FALLBACK)
        stats = backend_stats()
        assert stats.fallbacks == 1
        assert stats.compiles == 0
        # The supported design lowers as usual.
        run_simulation(SIMPLE)
        assert backend_stats().compiles == 1

    def test_verdict_flush_merges_concurrent_writers(self, tmp_path):
        # Two cache instances sharing a root (stand-ins for two pool
        # workers): the second flush must not clobber the first's
        # verdict out of the manifest.
        root = str(tmp_path / "sim-cache")
        a = CompiledDesignCache(root=root)
        b = CompiledDesignCache(root=root)
        a.record_unsupported("a" * 64, "reason-a")
        b.record_unsupported("b" * 64, "reason-b")
        fresh = CompiledDesignCache(root=root)
        assert fresh.verdict("a" * 64) is not None
        assert fresh.verdict("b" * 64) is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        root = str(tmp_path / "sim-cache")
        configure_design_cache(root=root)
        run_simulation(NEEDS_FALLBACK)
        design_dir = os.path.join(root, "designs")
        for name in os.listdir(design_dir):
            with open(os.path.join(design_dir, name), "w") as fh:
                fh.write("not json")
        configure_design_cache(root=root)
        reset_backend_stats()
        run_simulation(NEEDS_FALLBACK)   # verdict unreadable: re-tries
        assert backend_stats().fallbacks == 1

    def test_verdict_layer_python_version_guard(self, tmp_path,
                                                monkeypatch):
        digest = source_digest(NEEDS_FALLBACK, None)
        cache = configure_design_cache(root=str(tmp_path))
        cache.record_unsupported(digest, "refused")
        assert cache.verdict(digest)["reason"] == "refused"

        class _FakeSys:
            version_info = (0, 0, 0)

        # An interpreter upgrade re-fingerprints the manifest: stale
        # verdicts degrade to misses.
        monkeypatch.setattr("repro.sim.compile.sys", _FakeSys)
        upgraded = configure_design_cache(root=str(tmp_path))
        assert upgraded.verdict(digest) is None


class TestAtomicCacheSwap:
    def test_reconfigure_races_with_running_simulations(self):
        errors = []
        stop = threading.Event()

        def runner():
            while not stop.is_set():
                result = run_simulation(CLOCKED)
                if not (result.ok and result.finished):
                    errors.append(result.error)
                    return

        threads = [threading.Thread(target=runner) for _ in range(3)]
        for thread in threads:
            thread.start()
        # Each in-flight run bound its cache at entry; the swap is
        # atomic under the module lock, so nothing can observe a
        # half-replaced cache.
        for _ in range(25):
            configure_design_cache()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors


class TestBatchStimulus:
    def test_batch_matches_serial_on_every_backend(self):
        wrong = DESIGN.replace("a + 4'd1", "a + 4'd2")
        candidates = [DESIGN, wrong, DESIGN]
        for backend in BACKENDS:
            serial = [run_testbench(text, BENCH, backend=backend)
                      for text in candidates]
            batch = run_testbench_batch(candidates, BENCH,
                                        backend=backend)
            assert [(v.ok, v.passed, v.failed, v.error)
                    for v in batch] == \
                   [(v.ok, v.passed, v.failed, v.error)
                    for v in serial], backend

    def test_batch_shares_one_compile_per_candidate(self):
        run_testbench_batch([DESIGN, DESIGN, DESIGN], BENCH)
        stats = backend_stats()
        assert stats.compiles == 1          # identical candidates
        assert stats.compiled_runs == 3

    def test_batch_surfaces_candidate_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, "module broken"], BENCH)
        assert verdicts[0].all_passed
        assert not verdicts[1].ok and verdicts[1].error

    def test_batch_surfaces_bench_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, DESIGN], "endmodule !")
        assert len(verdicts) == 2
        assert all(not v.ok and v.error for v in verdicts)


class TestCompiledDesignReuse:
    def test_runs_are_isolated(self):
        compiled = compile_design(elaborate(parse("""
module tb;
  reg [7:0] n;
  initial begin n = 8'd0; #1 n = n + 8'd5; $finish; end
endmodule"""), "tb"))
        first = compiled.simulator()
        first.run(max_time=100)
        second = compiled.simulator()
        second.run(max_time=100)
        assert first.value_of("n").val == 5
        assert second.value_of("n").val == 5
        assert first.store is not second.store


class TestEvalThreading:
    def test_candidate_verdicts_match_across_backends(self):
        problem = list(thakur_suite())[0]
        clear_cache()
        compiled = evaluate_candidate(problem.reference, problem,
                                      sim_backend="compiled")
        clear_cache()
        interp = evaluate_candidate(problem.reference, problem,
                                    sim_backend="interp")
        assert compiled == interp
        clear_cache()

    def test_eval_task_key_excludes_backend(self):
        problem = list(thakur_suite())[0]
        model = get_model("ours-13b")
        a = EvalTask(kind="generation", model=model, payload=problem,
                     level="middle", sim_backend="compiled")
        b = EvalTask(kind="generation", model=model, payload=problem,
                     level="middle", sim_backend="interp")
        # Proven output-identical backends share cached cells.
        assert a.key() == b.key()
        assert a.slot() == b.slot()
