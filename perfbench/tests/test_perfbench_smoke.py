"""Smoke runs of every benchmark workload, plus declaration checks.

Each workload runs at smoke size (tiny corpus, a few requests) with and
without tracing; the last stdout line must be the result object and
must carry exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # Counters declared exact repeated across the traced passes.
        assert result["metrics"]["exact.mismatches"]["value"] == 0


def test_declarations_match_the_runner():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == \
        list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(layers.PER_LAYER)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_disagreeing_passes_count_as_failed():
    passes = [{"outputs": {"digest": "a"}, "problems": []},
              {"outputs": {"digest": "b"}, "problems": []},
              {"outputs": {"digest": "a"}, "problems": ["bad rates"]},
              {"error": ["Traceback"]}]
    assert run.check_passes(passes) == 3
    assert run.exact_mismatches([{"exact": {"x": 1, "y": 2}},
                                 {"exact": {"x": 1, "y": 3}}]) == ["y"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "paper-loop", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
