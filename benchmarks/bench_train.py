"""Benchmark: training throughput, checkpoint overhead and resume.

Measures sequences/sec through the serial trainer, the wall-clock cost
per checkpoint write, and how quickly a finished run's checkpoint store
resumes.  Writes ``BENCH_train.json`` at the repo root so the
training-layer trajectory is tracked from PR to PR.  Every row stamps
``cpus`` and the ``OPENBLAS_NUM_THREADS`` budget (``null`` when unset):
the BLAS thread count changes both the timings and, at this model size,
the weights digest.
"""

import json
import os
import time

from repro.core.records import Dataset, Task, make_record
from repro.train import TrainConfig, train_run

N_RECORDS = 96
REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_train.json")


def _dataset() -> Dataset:
    records = []
    for index in range(N_RECORDS):
        records.append(make_record(
            Task.NL_VERILOG,
            f"a module named unit{index} with {index % 7} inputs and "
            f"a registered output updated on the positive clock edge",
            f"module unit{index}(input clk, input [{index % 7}:0] d, "
            f"output reg q);\n  always @(posedge clk) q <= ^d;\n"
            f"endmodule"))
    return Dataset(records=records)


def _config(**overrides) -> TrainConfig:
    # Sized so one optimizer step carries real compute; the run still
    # finishes in well under a second of serial training.
    base = dict(epochs=2, batch_size=8, micro_batch=2, seq_len=64,
                vocab_size=256, d_model=96, n_heads=2, n_layers=1,
                d_ff=192, max_records=None, checkpoint_every=0)
    base.update(overrides)
    return TrainConfig(**base)


def _timed_run(dataset, config, **kwargs):
    start = time.perf_counter()
    report = train_run(dataset, config, **kwargs)
    return report, time.perf_counter() - start


def bench_throughput(dataset) -> dict:
    report, wall = _timed_run(dataset, _config())
    return {"seq_per_sec": round(report.records * report.epochs / wall, 1),
            "wall_s": round(wall, 4), "steps": report.steps}


def bench_checkpoint_overhead(dataset, root: str) -> dict:
    _, plain = _timed_run(dataset, _config())
    report, checked = _timed_run(
        dataset, _config(checkpoint_every=1),
        checkpoint_dir=os.path.join(root, "every-step"))
    writes = report.checkpoints_written
    return {"checkpoint_writes": writes,
            "checkpoint_ms_per_write": round(
                max(checked - plain, 0.0) / max(writes, 1) * 1000, 3)}


def bench_cold_resume(dataset, root: str) -> dict:
    ckpt = os.path.join(root, "resume")
    first, _ = _timed_run(dataset, _config(checkpoint_every=4),
                          checkpoint_dir=ckpt)
    resumed, wall = _timed_run(dataset, _config(checkpoint_every=4),
                               checkpoint_dir=ckpt)
    assert resumed.resumed_steps == first.steps
    assert resumed.weights_sha256 == first.weights_sha256
    return {"cold_resume_s": round(wall, 4)}


def run_train_bench(root: str) -> dict:
    dataset = _dataset()
    result = {"records": len(dataset)}
    result.update(bench_throughput(dataset))
    result.update(bench_checkpoint_overhead(dataset, root))
    result.update(bench_cold_resume(dataset, root))
    return result


def test_train_throughput_and_resume(once, benchmark, tmp_path,
                                     env_stamp):
    result = dict(once(run_train_bench, str(tmp_path)), **env_stamp)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["seq_per_sec"] > 0
    assert result["cold_resume_s"] > 0
