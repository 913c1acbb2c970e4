"""Benchmark: unified evaluation engine throughput + cache warm-up.

Measures evaluated cells/sec at jobs=1 vs jobs=N and cold- vs warm-cache
wall time over a generation sweep, then writes ``BENCH_eval.json`` at
the repo root so the perf trajectory is tracked from PR to PR (the eval
twin of ``bench_scale.py``).  Every timed run starts with empty
in-process memos, so the serial run cannot warm the parallel one; the
row stamps ``cpus``, since ``jobs`` is capped by it.

The sweep is small (153 thakur cells, ~0.16 s serial), so its
``parallel_speedup`` measures the cost of forking the workers, not what
the pool buys: it reads below 1 on 2 CPUs.  The eval pool is judged on
sweeps the size of perfbench's eval-sweep and paper-loop workloads
instead (see ROADMAP.md).
"""

import json
import os
import time

from repro.bench import thakur_suite
from repro.core.textspan import token_spans
from repro.eval import EvalEngine, clear_cache, evaluate_generation
from repro.llm import get_model
from repro.llm.behavioral import corrupt_functionally
from repro.sim import clear_memo
from repro.verilog.lexer import _lex_memo

MODELS = ("ours-13b", "gpt-3.5", "llama2-13b")
LEVELS = ("low", "middle", "high")
N_SAMPLES = 5
JOBS = min(4, os.cpu_count() or 1)
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_eval.json")


def _timed(engine):
    models = [get_model(name) for name in MODELS]
    problems = list(thakur_suite())
    # Drop every in-process memo so runs are comparable; clear_memo()
    # takes the simulation results and the testbench trees.
    clear_cache()
    clear_memo()
    for memo in (_lex_memo, token_spans, corrupt_functionally):
        memo.cache_clear()
    start = time.perf_counter()
    report = evaluate_generation(models, problems, levels=LEVELS,
                                 n_samples=N_SAMPLES, engine=engine)
    return time.perf_counter() - start, report


def run_eval_sweep(cache_root: str) -> dict:
    serial_s, serial = _timed(EvalEngine(jobs=1))
    parallel_s, parallel = _timed(EvalEngine(jobs=JOBS))
    assert parallel.cells == serial.cells

    cache_dir = os.path.join(cache_root, ".eval-cache")
    cold_engine = EvalEngine(jobs=JOBS, cache_dir=cache_dir)
    cold_s, _ = _timed(cold_engine)
    warm_engine = EvalEngine(jobs=JOBS, cache_dir=cache_dir)
    warm_s, warm = _timed(warm_engine)
    assert warm_engine.stats.cache_misses == 0, "warm run recomputed cells"
    assert warm.cells == serial.cells

    cells = len(MODELS) * len(list(thakur_suite())) * len(LEVELS)
    return {
        "models": len(MODELS),
        "problems": len(list(thakur_suite())),
        "levels": len(LEVELS),
        "cells": cells,
        "samples_per_cell": N_SAMPLES,
        "jobs": JOBS,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "cells_per_sec_serial": round(cells / serial_s, 1),
        "cells_per_sec_parallel": round(cells / parallel_s, 1),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cold_cache_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "warm_cache_misses": warm_engine.stats.cache_misses,
    }


def test_eval_throughput_and_cache(once, benchmark, tmp_path, env_stamp):
    result = dict(once(run_eval_sweep, str(tmp_path)), **env_stamp)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["warm_cache_misses"] == 0
    assert result["cells_per_sec_parallel"] > 0
