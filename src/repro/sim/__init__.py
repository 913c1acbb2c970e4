"""Event-driven Verilog simulator (the paper's VCS substitute).

Public API:

* :func:`run_simulation` — parse + elaborate + simulate a source string
  (``backend="compiled"|"interp"``; compiled is the default and falls
  back to the interpreter on unsupported constructs);
* :func:`run_testbench` — simulate design + self-checking testbench and
  count PASS/FAIL vectors; :func:`run_testbench_batch` scores many
  candidates against one shared (parsed-once) testbench;
* :class:`Value` — four-state bit-vector values;
* :func:`elaborate` / :class:`Simulator` — the interpreter pieces;
* :func:`compile_design` / :class:`CompiledSimulator` — the compiling
  backend (see :mod:`repro.sim.compile`).
"""

from .compile import (SIM_COMPILE_VERSION, BackendStats,
                      CompiledDesign, CompiledDesignCache,
                      CompiledSimulator, CompileUnsupported,
                      backend_stats, compile_design,
                      configure_design_cache, design_cache,
                      reset_backend_stats, source_digest)
from .elaborate import Design, ElaborationError, Signal, elaborate
from .engine import SimulationError, SimulationTimeout, Simulator
from .testbench import (BACKENDS, DEFAULT_BACKEND, SimResult,
                        TestbenchVerdict, find_top, run_simulation,
                        run_testbench, run_testbench_batch)
from .values import Value, from_literal
from .vcd import Tracer

__all__ = [
    "Value", "from_literal", "elaborate", "Design", "Signal",
    "Simulator", "SimulationError", "SimulationTimeout",
    "ElaborationError", "run_simulation", "run_testbench",
    "run_testbench_batch", "find_top",
    "SimResult", "TestbenchVerdict", "Tracer",
    "BACKENDS", "DEFAULT_BACKEND", "SIM_COMPILE_VERSION",
    "BackendStats", "CompileUnsupported", "CompiledDesign",
    "CompiledDesignCache", "CompiledSimulator", "backend_stats",
    "compile_design", "configure_design_cache", "design_cache",
    "reset_backend_stats", "source_digest",
]
