"""Benchmark: sharded augmentation throughput + cache warm-up.

Measures records/sec at jobs=1 vs jobs=N and cold- vs warm-cache wall
time, then writes ``BENCH_scale.json`` at the repo root so the perf
trajectory is tracked from PR to PR.  The row stamps ``cpus``, since
``jobs`` is capped by it.
"""

import json
import os
import time

from repro.core import PipelineConfig
from repro.corpus import generate_corpus
from repro.scale import augment_distributed

CORPUS_SIZE = 32
JOBS = min(4, os.cpu_count() or 1)
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_scale.json")


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    return time.perf_counter() - start, report


def run_scale_sweep(corpus_root: str, cache_root: str) -> dict:
    os.makedirs(corpus_root, exist_ok=True)
    for index, text in enumerate(generate_corpus(CORPUS_SIZE, seed=0)):
        with open(os.path.join(corpus_root, f"design_{index}.v"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    config = PipelineConfig(eda_scripts=False)
    paths = [corpus_root]

    serial_s, serial = _timed(
        lambda: augment_distributed(paths, config, jobs=1))
    parallel_s, parallel = _timed(
        lambda: augment_distributed(paths, config, jobs=JOBS))
    assert parallel.dataset.to_jsonl() == serial.dataset.to_jsonl()

    cache_dir = os.path.join(cache_root, ".cache")
    cold_s, cold = _timed(
        lambda: augment_distributed(paths, config, jobs=JOBS,
                                    cache_dir=cache_dir))
    warm_s, warm = _timed(
        lambda: augment_distributed(paths, config, jobs=JOBS,
                                    cache_dir=cache_dir))
    assert warm.shards_computed == 0, "warm run recomputed shards"

    records = len(serial.dataset)
    return {
        "corpus_files": CORPUS_SIZE,
        "records": records,
        "jobs": JOBS,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "records_per_sec_serial": round(records / serial_s, 1),
        "records_per_sec_parallel": round(records / parallel_s, 1),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cold_cache_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "warm_shards_computed": warm.shards_computed,
        "shards": cold.shards_total,
    }


def test_scale_throughput_and_cache(once, benchmark, tmp_path, env_stamp):
    result = dict(once(run_scale_sweep, str(tmp_path / "corpus"),
                       str(tmp_path)), **env_stamp)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["warm_shards_computed"] == 0
    assert result["records_per_sec_parallel"] > 0
