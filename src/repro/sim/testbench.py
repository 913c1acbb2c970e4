"""High-level simulation entry points (the `vcs && ./simv` equivalent).

The benchmark suites use self-checking testbenches that print
``PASS``/``FAIL`` lines and call ``$finish``; :func:`run_testbench` runs one
and summarises the outcome.

Two backends sit behind :func:`run_simulation`:

* ``"compiled"`` (the default) — :mod:`repro.sim.compile` lowers the
  design once into closures, cached by source digest in the process-wide
  :class:`~repro.sim.compile.CompiledDesignCache` so repeated runs of
  the same testbench/reference pair skip parse, elaborate *and* lower;
* ``"interp"`` — the reference tree-walking interpreter
  (:class:`~repro.sim.engine.Simulator`).

A design the lowerer cannot handle falls back to the interpreter
automatically; fallbacks are counted in
:func:`repro.sim.compile.backend_stats` and the two backends are proven
output-identical by ``tests/test_sim_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..verilog import ast, parse
from ..verilog.errors import VerilogError
from .compile import (CompileUnsupported, backend_stats, compile_design,
                      design_cache, source_digest)
from .elaborate import elaborate
from .engine import SimulationError, SimulationTimeout, Simulator

#: Backend used when callers don't pass one explicitly.
DEFAULT_BACKEND = "compiled"

BACKENDS = ("compiled", "interp")


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    ok: bool                       # simulated without tool errors
    finished: bool = False         # reached $finish
    time: int = 0
    display: list[str] = field(default_factory=list)
    error: str | None = None
    vcd: str | None = None         # VCD text when tracing was on

    @property
    def output(self) -> str:
        return "\n".join(self.display)


@dataclass
class TestbenchVerdict:
    """PASS/FAIL accounting extracted from a self-checking testbench."""

    ok: bool                       # ran to completion
    passed: int = 0
    failed: int = 0
    error: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.ok and self.failed == 0 and self.passed > 0

    @property
    def pass_fraction(self) -> float:
        total = self.passed + self.failed
        if not self.ok or total == 0:
            return 0.0
        return self.passed / total


def find_top(source: ast.SourceFile) -> str:
    """Choose the root module: not instantiated anywhere, tb-names first."""
    instantiated: set[str] = set()
    for module in source.modules:
        for item in module.items_of_type(ast.Instantiation):
            instantiated.add(item.module)
    roots = [m.name for m in source.modules if m.name not in instantiated]
    if not roots:
        roots = [m.name for m in source.modules]
    for name in roots:
        lowered = name.lower()
        if lowered.startswith(("tb", "testbench", "test_")) or \
                lowered.endswith(("_tb", "_testbench", "_test")):
            return name
    return roots[0]


def _resolve_backend(backend: str | None) -> str:
    chosen = backend or DEFAULT_BACKEND
    if chosen not in BACKENDS:
        raise ValueError(f"unknown sim backend '{chosen}' "
                         f"(expected one of {', '.join(BACKENDS)})")
    return chosen


def _finish_result(simulator) -> SimResult:
    vcd_text = simulator.tracer.to_vcd() if simulator.tracer else None
    return SimResult(ok=True, finished=simulator.finished,
                     time=simulator.time,
                     display=simulator.display_lines, vcd=vcd_text)


def _run_interp(source_text: str, top: str | None, max_time: int,
                filename: str, trace: bool,
                tree: ast.SourceFile | None = None) -> SimResult:
    try:
        source = tree if tree is not None else parse(source_text,
                                                     filename)
        top_name = top or find_top(source)
        design = elaborate(source, top_name)
        simulator = Simulator(design)
        if trace:
            simulator.enable_tracing()
        simulator.run(max_time=max_time)
    except (VerilogError, SimulationError) as exc:
        return SimResult(ok=False, error=str(exc))
    except RecursionError:
        return SimResult(ok=False, error="elaboration recursion overflow")
    return _finish_result(simulator)


def _run_compiled(source_text: str, top: str | None, max_time: int,
                  filename: str, trace: bool,
                  tree: ast.SourceFile | None = None) -> SimResult | None:
    """Run on the compiled backend; returns None to request fallback."""
    stats = backend_stats()
    cache = design_cache()      # bound once: a concurrent reconfigure
    digest = source_digest(source_text, top)   # cannot swap it mid-run
    compiled = cache.get(digest)
    try:
        if compiled is None:
            verdict = cache.verdict(digest)
            if verdict is not None and not verdict.get("supported"):
                stats.record_fallback(
                    verdict.get("reason") or "unsupported construct")
                return None
            source = tree if tree is not None else parse(source_text,
                                                         filename)
            top_name = top or find_top(source)
            design = elaborate(source, top_name)
            compiled = compile_design(design)
            cache.put(digest, compiled)
        else:
            stats.cache_hits += 1
    except CompileUnsupported as exc:
        cache.record_unsupported(digest, str(exc))
        stats.record_fallback(str(exc))
        return None
    except (VerilogError, SimulationError) as exc:
        return SimResult(ok=False, error=str(exc))
    except RecursionError:
        return SimResult(ok=False, error="elaboration recursion overflow")
    # Counted once the design is in hand — like interp_runs, errored
    # simulations still count as runs on this backend.
    stats.compiled_runs += 1
    try:
        simulator = compiled.simulator()
        if trace:
            simulator.enable_tracing()
        simulator.run(max_time=max_time)
    except SimulationTimeout:
        # Step budgets are charged differently by the two runtimes, so
        # a timeout verdict near the budget boundary could diverge.
        # The interpreter is authoritative: re-run there so the final
        # outcome is identical across backends (and across the shared
        # eval cell cache).  Keyed under a stable reason — the message
        # embeds per-design details and would never aggregate.
        stats.compiled_runs -= 1
        stats.record_fallback("timeout")
        return None
    except (VerilogError, SimulationError) as exc:
        return SimResult(ok=False, error=str(exc))
    except RecursionError:
        return SimResult(ok=False, error="elaboration recursion overflow")
    return _finish_result(simulator)


def _simulate(chosen: str, source_text: str, top: str | None,
              max_time: int, filename: str, trace: bool,
              tree: ast.SourceFile | None = None) -> SimResult:
    if chosen == "compiled":
        result = _run_compiled(source_text, top, max_time, filename,
                               trace, tree=tree)
        if result is not None:
            return result
        # Unsupported construct: fall through to the interpreter.
    else:
        backend_stats().interp_runs += 1
    return _run_interp(source_text, top, max_time, filename, trace,
                       tree=tree)


def run_simulation(source_text: str, top: str | None = None,
                   max_time: int = 2_000_000,
                   filename: str = "<sim>",
                   trace: bool = False,
                   backend: str | None = None) -> SimResult:
    """Parse, elaborate and simulate; never raises on design errors.

    ``backend`` selects ``"compiled"`` (default; falls back to the
    interpreter on unsupported constructs) or ``"interp"``.  With
    ``trace=True`` (or when the testbench calls
    ``$dumpfile``/``$dumpvars``) the result carries the VCD text.
    """
    return _simulate(_resolve_backend(backend), source_text, top,
                     max_time, filename, trace)


def _verdict_of(result: SimResult) -> TestbenchVerdict:
    """PASS/FAIL accounting over one simulation's display transcript."""
    if not result.ok:
        return TestbenchVerdict(ok=False, error=result.error)
    passed = failed = 0
    for line in result.display:
        upper = line.upper()
        if "FAIL" in upper or "MISMATCH" in upper or "ERROR" in upper:
            failed += 1
        elif "PASS" in upper or " OK" in upper or upper.startswith("OK"):
            passed += 1
    if not result.finished and passed + failed == 0:
        return TestbenchVerdict(ok=False,
                                error="testbench did not reach $finish")
    return TestbenchVerdict(ok=True, passed=passed, failed=failed)


def run_testbench(design_text: str, testbench_text: str,
                  top: str | None = None,
                  max_time: int = 2_000_000,
                  backend: str | None = None) -> TestbenchVerdict:
    """Simulate design+testbench and count PASS/FAIL lines.

    A testbench reports vectors via ``$display``; any line containing
    ``FAIL``/``ERROR`` (or ``MISMATCH``) counts as a failed check, any line
    containing ``PASS``/``OK`` as a passed one.
    """
    result = run_simulation(design_text + "\n" + testbench_text, top=top,
                            max_time=max_time, backend=backend)
    return _verdict_of(result)


def run_testbench_batch(design_texts: list[str], testbench_text: str,
                        top: str | None = None,
                        max_time: int = 2_000_000,
                        backend: str | None = None
                        ) -> list[TestbenchVerdict]:
    """Score many candidate designs against one shared testbench.

    Evaluation's dominant pattern — N sampled candidates × one bench —
    pays the bench parse exactly once here: the bench module list is
    parsed up front and grafted onto each candidate's parse tree, so
    per-candidate work on a cache miss is candidate-parse + elaborate
    + lower only, and on a warm compiled cache it is zero front-end
    work.  Verdicts (and backend cache keys) are identical
    to N separate :func:`run_testbench` calls on the concatenated
    sources — the batched and unbatched paths share one digest space.
    """
    try:
        bench_tree = parse(testbench_text, "<bench>")
    except VerilogError as exc:
        error = TestbenchVerdict(ok=False, error=str(exc))
        return [error] * len(design_texts)
    chosen = _resolve_backend(backend)
    verdicts: list[TestbenchVerdict] = []
    bench_modules = list(bench_tree.modules)
    for text in design_texts:
        merged_text = text + "\n" + testbench_text
        try:
            cand_tree = parse(text, "<candidate>")
        except VerilogError as exc:
            verdicts.append(TestbenchVerdict(ok=False, error=str(exc)))
            continue
        merged = ast.SourceFile(
            modules=list(cand_tree.modules) + bench_modules)
        verdicts.append(_verdict_of(_simulate(
            chosen, merged_text, top, max_time, "<sim>", False,
            tree=merged)))
    return verdicts
