"""Event-driven Verilog simulator (the paper's VCS substitute).

One simulator, used as the pass/fail oracle for every benchmark suite.

Public API:

* :func:`run_simulation` — parse + elaborate + simulate a source string,
  behind a bounded content-keyed result memo;
* :func:`run_testbench` — simulate design + self-checking testbench and
  count PASS/FAIL vectors; :func:`run_testbench_batch` scores many
  candidates against one shared (parsed-once) testbench;
* :class:`Value` — four-state bit-vector values;
* :func:`elaborate` / :class:`Simulator` — the interpreter pieces;
* :func:`backend_stats` — per-thread counts of simulations run and
  memo hits.
"""

from .elaborate import Design, ElaborationError, Signal, elaborate
from .engine import SimulationError, SimulationTimeout, Simulator
from .testbench import (BackendStats, SimResult, TestbenchVerdict,
                        backend_stats, clear_memo, find_top,
                        reset_backend_stats, run_simulation,
                        run_testbench, run_testbench_batch)
from .values import Value, from_literal
from .vcd import Tracer

__all__ = [
    "Value", "from_literal", "elaborate", "Design", "Signal",
    "Simulator", "SimulationError", "SimulationTimeout",
    "ElaborationError", "run_simulation", "run_testbench",
    "run_testbench_batch", "find_top",
    "SimResult", "TestbenchVerdict", "Tracer",
    "BackendStats", "backend_stats", "clear_memo",
    "reset_backend_stats",
]
