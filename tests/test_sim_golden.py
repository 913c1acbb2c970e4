"""Golden-trace regression suite: both backends vs checked-in traces.

Every design under ``tests/golden/`` has an expected ``$display``
transcript (``.out``) and — for the smaller designs — an expected VCD
dump (``.vcd``).  Both the interpreter and the compiled backend must
reproduce them byte-for-byte, so a scheduler change that silently
reorders events (or a lowering bug that shifts a delta cycle) fails
here even if the two backends still agree with each other.

The golden designs double as the workload for
``benchmarks/bench_sim.py`` (cycles/sec interp vs compiled).
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.sim import (CompiledSimulator, Simulator, compile_design,
                       elaborate, find_top, run_simulation)
from repro.verilog import parse

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

DESIGNS = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(os.path.join(GOLDEN_DIR, "*.v")))


def golden_path(name: str, suffix: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}{suffix}")


def golden_source(name: str) -> str:
    with open(golden_path(name, ".v"), encoding="utf-8") as fh:
        return fh.read()


def expected_out(name: str) -> str:
    with open(golden_path(name, ".out"), encoding="utf-8") as fh:
        return fh.read()


def render_out(result) -> str:
    return "\n".join(result.display) + \
        f"\n-- finished={result.finished} time={result.time}\n"


def test_golden_inventory():
    """The suite stays at the contracted size with full .out coverage."""
    assert len(DESIGNS) >= 10
    for name in DESIGNS:
        assert os.path.exists(golden_path(name, ".out")), name


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_interp(name):
    result = run_simulation(golden_source(name), backend="interp",
                            trace=True)
    assert result.ok, result.error
    assert render_out(result) == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert result.vcd == fh.read()


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_compiled(name):
    # Drive the compiled pipeline directly so a silent fallback to the
    # interpreter cannot masquerade as compiled-backend coverage.
    text = golden_source(name)
    source = parse(text)
    design = elaborate(source, find_top(source))
    compiled = compile_design(design)
    simulator = CompiledSimulator(compiled)
    simulator.enable_tracing()
    simulator.run(max_time=2_000_000)
    out = "\n".join(simulator.display_lines) + \
        f"\n-- finished={simulator.finished} time={simulator.time}\n"
    assert out == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert simulator.tracer.to_vcd() == fh.read()


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_backends_agree_on_final_state(name):
    """Beyond the transcript: every signal's final value matches."""
    text = golden_source(name)
    source = parse(text)
    top = find_top(source)
    interp = Simulator(elaborate(parse(text), top))
    interp.run(max_time=2_000_000)
    compiled = compile_design(elaborate(parse(text), top)).simulator()
    compiled.run(max_time=2_000_000)
    for signal_name, signal in interp.design.signals.items():
        if signal.is_array:
            continue
        assert signal.value == compiled.value_of(signal_name), \
            signal_name
