"""High-level simulation entry points (the `vcs && ./simv` equivalent).

The benchmark suites use self-checking testbenches that print
``PASS``/``FAIL`` lines and call ``$finish``; :func:`run_testbench` runs one
and summarises the outcome.

Every run takes the same path: parse, elaborate, then the event-driven
interpreter (:class:`~repro.sim.engine.Simulator`).

The simulator is deterministic: ``$random`` is a per-run LCG with a fixed
seed, ``$readmem*`` is ignored and nothing reads the wall clock.  So
:func:`run_simulation` sits behind a bounded, content-keyed memo keyed on
``(source_text, top, max_time, filename)``; it pays off where sources
repeat, as when a gateway simulates the same benchmark references again
and again.  Traced runs, and sources that can dump a VCD, bypass it.
:func:`run_testbench_batch` is not memoised: evaluation already memoises
its verdicts per candidate.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field, fields, replace

from ..verilog import ast, parse
from ..verilog.errors import VerilogError
from .elaborate import elaborate
from .engine import SimulationError, Simulator

#: Distinct (source, top, max_time, filename) results the memo keeps.
MEMO_SIZE = 256


@dataclass
class BackendStats:
    """Per-thread simulator accounting.

    Counters are kept *per thread* (and therefore per process) so
    concurrent pool workers never race on them; callers that fan work
    out aggregate the per-item :meth:`delta_since` snapshots back
    through their result stream (see ``repro.eval.engine``), which is
    exact regardless of where the work ran.

    The counters are *physical*: they count simulations and memo hits
    in the counting thread.  Work a memo above the simulator answers
    (e.g. ``repro.eval.verilog_eval``'s candidate cache) never reaches
    it and is not counted.
    """

    #: No simulator increments the five counters other than
    #: ``interp_runs`` and ``cache_hits``; they stay 0 so
    #: ``/api/health`` and bench readers keep their schema.
    compiled_runs: int = 0
    interp_runs: int = 0          #: simulations executed
    fallbacks: int = 0
    compiles: int = 0
    cache_hits: int = 0           #: :func:`run_simulation` memo hits
    codegen_hits: int = 0
    codegen_misses: int = 0

    def copy(self) -> "BackendStats":
        """A detached snapshot of the current counters."""
        return replace(self)

    def delta_since(self, before: "BackendStats") -> "BackendStats":
        """Counter increments since a :meth:`copy` snapshot."""
        return BackendStats(
            **{f.name: getattr(self, f.name) - getattr(before, f.name)
               for f in fields(self)})

    def add(self, other: "BackendStats") -> None:
        """Accumulate another stats object (e.g. a worker delta)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def summary(self) -> str:
        return (f"sim: {self.interp_runs} run(s), "
                f"{self.cache_hits} memo hit(s)")


_STATS_LOCAL = threading.local()


def backend_stats() -> BackendStats:
    """The live simulator counters of the *calling thread*."""
    stats = getattr(_STATS_LOCAL, "stats", None)
    if stats is None:
        stats = _STATS_LOCAL.stats = BackendStats()
    return stats


def reset_backend_stats() -> None:
    """Test hook: zero the calling thread's simulator counters."""
    _STATS_LOCAL.stats = BackendStats()


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


def _simulate(source: str | ast.SourceFile, top: str | None,
              max_time: int, filename: str, trace: bool) -> SimResult:
    """One simulation of a source text or an already parsed tree."""
    backend_stats().interp_runs += 1
    try:
        if isinstance(source, str):
            source = parse(source, filename)
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
    vcd_text = simulator.tracer.to_vcd() if simulator.tracer else None
    return SimResult(ok=True, finished=simulator.finished,
                     time=simulator.time,
                     display=simulator.display_lines, vcd=vcd_text)


def _simulate_frozen(source_text: str, top: str | None, max_time: int,
                     filename: str) -> tuple:
    result = _simulate(source_text, top, max_time, filename, False)
    return (result.ok, result.finished, result.time,
            tuple(result.display), result.error)


_sim_memo = functools.lru_cache(maxsize=MEMO_SIZE)(_simulate_frozen)


def clear_memo() -> None:
    """Drop every memoised :func:`run_simulation` result."""
    _sim_memo.cache_clear()


def run_simulation(source_text: str, top: str | None = None,
                   max_time: int = 2_000_000,
                   filename: str = "<sim>",
                   trace: bool = False) -> SimResult:
    """Parse, elaborate and simulate; never raises on design errors.

    With ``trace=True`` (or when the testbench calls
    ``$dumpfile``/``$dumpvars``) the result carries the VCD text.  Every
    call returns a fresh :class:`SimResult`.
    """
    # Only a traced run or a $dump* call arms the tracer, so a source
    # without "$dump" never yields VCD text.
    if trace or "$dump" in source_text:
        return _simulate(source_text, top, max_time, filename, trace)
    stats = backend_stats()
    runs = stats.interp_runs
    ok, finished, time, display, error = _sim_memo(
        source_text, top, max_time, filename)
    if stats.interp_runs == runs:
        stats.cache_hits += 1
    return SimResult(ok=ok, finished=finished, time=time,
                     display=list(display), error=error)


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
                  max_time: int = 2_000_000) -> TestbenchVerdict:
    """Simulate design+testbench and count PASS/FAIL lines.

    A testbench reports vectors via ``$display``; any line containing
    ``FAIL``/``ERROR`` (or ``MISMATCH``) counts as a failed check, any line
    containing ``PASS``/``OK`` as a passed one.
    """
    result = run_simulation(design_text + "\n" + testbench_text, top=top,
                            max_time=max_time)
    return _verdict_of(result)


def run_testbench_batch(design_texts: list[str], testbench_text: str,
                        top: str | None = None,
                        max_time: int = 2_000_000
                        ) -> list[TestbenchVerdict]:
    """Score many candidate designs against one shared testbench.

    Evaluation's dominant pattern — N sampled candidates × one bench —
    pays the bench parse exactly once here: the bench module list is
    parsed up front and grafted onto each candidate's parse tree, so
    per-candidate work is candidate-parse + elaborate + simulate.
    Verdicts are identical to N separate :func:`run_testbench` calls on
    the concatenated sources.
    """
    try:
        bench_tree = parse(testbench_text, "<bench>")
    except VerilogError as exc:
        error = TestbenchVerdict(ok=False, error=str(exc))
        return [error] * len(design_texts)
    verdicts: list[TestbenchVerdict] = []
    bench_modules = list(bench_tree.modules)
    for text in design_texts:
        try:
            cand_tree = parse(text, "<candidate>")
        except VerilogError as exc:
            verdicts.append(TestbenchVerdict(ok=False, error=str(exc)))
            continue
        merged = ast.SourceFile(
            modules=list(cand_tree.modules) + bench_modules)
        verdicts.append(_verdict_of(_simulate(
            merged, top, max_time, "<sim>", False)))
    return verdicts
