"""Every evaluation suite's outputs, pinned.

``tests/golden/eval_suites.json`` holds sha256 digests of what each
suite id renders and scores through :func:`repro.eval.run_suite`, of
the quick Tables 3, 4 and 5, of the result blobs of one batched
``evaluate`` job pair whose model subsets differ (the service renders
each job from a sub-report of one union sweep), and of each suite's
normalised ``evaluate`` spec (journaled, and the batching compat key).
Refactoring how a suite is defined or swept must not move any of them.
"""

import hashlib
import json

from repro.eval import EvalEngine
from repro.eval.suite_api import run_suite, suite_models, suite_scores
from repro.experiments import run_selected
from repro.serve import Job, validate_spec
from repro.serve.executor import execute_batch

#: Every suite id ``repro evaluate --suite`` accepts.
SUITE_IDS = ("generation", "rtllm", "rtllm-full", "thakur", "repair",
             "scripts")
ALL_LEVELS = ("low", "middle", "high")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _suite_pins() -> dict:
    runs = [(suite, ("middle",)) for suite in SUITE_IDS]
    runs.append(("thakur", ALL_LEVELS))
    pins = {}
    for suite, levels in runs:
        result = run_suite(suite, models=suite_models(suite)[:2],
                           samples=2, levels=levels, seed=0,
                           engine=EvalEngine(jobs=1))
        scores = suite_scores(result.suite, result.report)
        pins[f"{suite}/{','.join(levels)}"] = {
            "rendered": _sha(result.rendered),
            "scores": _sha(json.dumps(scores, sort_keys=True))}
    return pins


def _table_pins() -> dict:
    rendered = run_selected(["table3", "table4", "table5"], quick=True,
                            engine=EvalEngine(jobs=1))
    return {name: _sha(text) for name, text in rendered.items()}


def _batch_pins(workdir: str) -> dict:
    subsets = (["ours-13b", "gpt-3.5"], ["llama2-13b", "ours-13b"])
    jobs = [Job(id=f"job-{seq:06d}", seq=seq, kind="evaluate",
                spec=validate_spec("evaluate", {
                    "suite": "thakur", "models": models, "samples": 2,
                    "levels": ["middle"], "k": 2}))
            for seq, models in enumerate(subsets, start=1)]
    result = execute_batch("evaluate", jobs, workdir)
    pins = {}
    for job in jobs:
        outcome = result.outcomes[job.id]
        assert outcome.ok, outcome.error
        pins[job.id] = _sha(json.dumps(outcome.blob, sort_keys=True))
    return pins


def _spec_pins() -> dict:
    pins = {}
    for suite in SUITE_IDS:
        for extra in ({}, {"levels": ["middle"]}):
            spec = validate_spec("evaluate", dict(extra, suite=suite))
            pins[f"{suite}/{','.join(extra.get('levels', []))}"] = _sha(
                json.dumps(spec, sort_keys=True))
    return pins


def test_every_suite_matches_golden(tmp_path, golden):
    golden("eval_suites.json", {
        "suites": _suite_pins(), "tables": _table_pins(),
        "batch": _batch_pins(str(tmp_path / "work")),
        "specs": _spec_pins()})
