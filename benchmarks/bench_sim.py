"""Benchmark: the compiled simulation backend vs the interpreter.

Runs every golden design (``tests/golden/*.v``) through
:func:`repro.sim.run_simulation` on both backends and reports
cycles/sec (one cycle = 10 time units — all golden clocks use a #5 half
period), plus cold- vs warm-cache time.  Writes ``BENCH_sim.json``
at the repo root so the perf trajectory is tracked from PR to PR (the
simulator twin of ``bench_scale.py`` / ``bench_eval.py``).

``BENCH_sim.json`` fields:

- ``designs`` / ``cycles_per_pass`` — workload size: golden design
  count and simulated cycles per full sweep.
- All ``*_s`` fields are single-threaded CPU seconds
  (``time.process_time``; warm fields are min over WARM_REPS rounds
  interleaved across backends) — immune to the wall-clock jitter and
  the slow machine-speed drift of shared CI runners.
- ``interp_s`` — sweep seconds for the tree-walking interpreter
  (parses + elaborates every run, like always).
- ``compiled_cold_s`` / ``compiled_warm_s`` — closure backend, first
  pass (pays parse+elaborate+lower) vs warm in-memory cache.
- ``cycles_per_sec_*`` / ``speedup_*`` — the above as throughput and
  as ratios over ``interp_s``.
- ``compiles`` / ``compile_cache_hits`` / ``fallbacks`` — closure
  backend counters for the cold+warm passes.

The ≥3x warm floor asserted here is the compiled backend's acceptance
bar.
"""

import gc
import glob
import json
import os
import time

from repro.sim import (backend_stats, configure_design_cache,
                       reset_backend_stats, run_simulation)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "tests", "golden")
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_sim.json")
# Warm passes are ~10ms each: min over several samples irons out the
# occasional scheduler or allocator hiccup a single pass would let gate.
WARM_REPS = 7


def _designs() -> dict[str, str]:
    out = {}
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.v"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _sweep(designs: dict[str, str], backend: str) -> tuple[float, int]:
    """Total CPU seconds and simulated cycles for one pass.

    CPU time (``time.process_time``), not wall time: the sweeps are
    single-threaded pure Python, and on shared CI runners wall-clock
    jitter of ±25% would swamp the speedup gates below.
    """
    start = time.process_time()
    cycles = 0
    for text in designs.values():
        result = run_simulation(text, backend=backend)
        assert result.ok and result.finished, result.error
        cycles += result.time // 10
    return time.process_time() - start, cycles


def run_sim_bench() -> dict:
    designs = _designs()
    assert len(designs) >= 10, "golden suite shrank below contract"

    # A GC pause inside a ~10ms warm pass skews the ratio by 2x; the
    # sweeps allocate only short-lived Values, so collection can wait.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_sim_bench(designs)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_sim_bench(designs: dict[str, str]) -> dict:
    _, cycles = _sweep(designs, "interp")

    # Cold pass: fresh cache, the sweep pays parse+elaborate+lower.
    configure_design_cache()
    reset_backend_stats()
    cold_s, _ = _sweep(designs, "compiled")
    assert backend_stats().fallbacks == 0, \
        backend_stats().fallback_reasons

    # Warm passes, interleaved round-robin: the speedup gate is a
    # ratio, and machine speed drifts over a multi-second bench run —
    # sampling both backends within each round keeps numerator and
    # denominator in the same drift regime.
    interp_samples, warm_samples = [], []
    for _ in range(WARM_REPS):
        interp_samples.append(_sweep(designs, "interp")[0])
        warm_samples.append(_sweep(designs, "compiled")[0])
    interp_s = min(interp_samples)
    warm_s = min(warm_samples)
    stats = backend_stats().copy()
    assert stats.fallbacks == 0, stats.fallback_reasons
    assert stats.cache_hits >= len(designs) * WARM_REPS
    configure_design_cache()

    return {
        "designs": len(designs),
        "cycles_per_pass": cycles,
        "interp_s": round(interp_s, 4),
        "compiled_cold_s": round(cold_s, 4),
        "compiled_warm_s": round(warm_s, 4),
        "cycles_per_sec_interp": round(cycles / interp_s, 1),
        "cycles_per_sec_compiled_cold": round(cycles / cold_s, 1),
        "cycles_per_sec_compiled_warm": round(cycles / warm_s, 1),
        "speedup_cold": round(interp_s / cold_s, 2),
        "speedup_warm": round(interp_s / warm_s, 2),
        "compiles": stats.compiles,
        "compile_cache_hits": stats.cache_hits,
        "fallbacks": stats.fallbacks,
    }


def test_sim_backend_throughput(once, benchmark):
    result = once(run_sim_bench)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["fallbacks"] == 0
    # Acceptance bar: warm cycles/sec over the interpreter on the
    # golden designs.
    assert result["speedup_warm"] >= 3.0, result
