"""The whole cold eval sweep, pinned, and the scorer's single path.

``tests/golden/eval_sweep.json`` holds the digests of the Table 5
generation sweep followed by the Table 3 repair sweep (every model,
5 samples, one serial engine) and the exact Table 3 repair rates.
Memoising candidates, corruptions or token spans must not move any of
them (regenerate by deleting the file and running this test with
``REPRO_REGEN_GOLDEN=1``).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.bench import rtllm_suite, thakur_suite
from repro.checker import check_source, check_source_tree
from repro.eval import (EvalEngine, case_seed, clear_cache,
                        evaluate_repair_cell, make_broken_case)
from repro.eval import verilog_eval
from repro.eval.verilog_eval import CellResult, evaluate_candidates
from repro.eval.suite_api import run_suite, suite_scores
from repro.llm import TABLE3_MODEL_ORDER, TABLE5_MODEL_ORDER, get_model
from repro.sim import run_testbench


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_eval_sweep_matches_golden(golden):
    clear_cache()
    engine = EvalEngine(jobs=1)
    generation = run_suite("generation", models=list(TABLE5_MODEL_ORDER),
                           samples=5, engine=engine)
    repair = run_suite("repair", models=list(TABLE3_MODEL_ORDER),
                       samples=5, seed=0, engine=engine)
    scores = {"generation": suite_scores(generation.suite,
                                         generation.report),
              "repair": suite_scores(repair.suite, repair.report)}
    golden("eval_sweep.json", {
        "repair_rates": {model: round(100 * row["solve_rate"], 1)
                         for model, row in scores["repair"].items()},
        "scores_sha256": _sha(json.dumps(scores, sort_keys=True)),
        "report_sha256": _sha(generation.rendered + "\x1f"
                              + repair.rendered)})


def test_duplicates_in_a_batch_are_evaluated_once(monkeypatch):
    problem = thakur_suite()[0]
    ref = problem.reference
    bad = "module broken (input a output y);"
    checked, simulated = [], []

    def counting_check(code, filename):
        checked.append(code)
        return check_source_tree(code, filename)

    def counting_batch(codes, testbench, trees=None):
        simulated.append(list(codes))
        return [run_testbench(code, testbench) for code in codes]

    monkeypatch.setattr(verilog_eval, "check_source_tree", counting_check)
    monkeypatch.setattr(verilog_eval, "run_testbench_batch",
                        counting_batch)
    clear_cache()
    results = evaluate_candidates([ref, ref, bad, ref, bad], problem)
    assert sorted(checked) == sorted([ref, bad])
    assert simulated == [[ref]]
    assert [r.syntax_ok for r in results] == [True, True, False, True,
                                              False]
    assert [r.passed for r in results] == [True, True, False, True,
                                           False]


def test_candidates_and_testbench_are_parsed_once(monkeypatch):
    from repro.checker import lint
    from repro.sim import clear_memo, testbench
    from repro.verilog import parse

    problem = thakur_suite()[0]
    ref = problem.reference
    other = ref + "\n// the same design, another text\n"
    parsed = []

    def counting_parse(text, filename="<input>"):
        parsed.append(text)
        return parse(text, filename)

    monkeypatch.setattr(lint, "parse", counting_parse)
    monkeypatch.setattr(testbench, "parse", counting_parse)
    clear_cache()
    clear_memo()
    try:
        first = evaluate_candidates([ref, ref], problem)
        second = evaluate_candidates([other], problem)
    finally:
        clear_memo()
    assert [r.passed for r in first + second] == [True, True, True]
    assert parsed.count(ref) == 1
    assert parsed.count(other) == 1
    assert parsed.count(problem.testbench) == 1
    assert len(parsed) == 3


def _per_candidate_repair_cell(model, case) -> CellResult:
    """Table 3 scoring as one check + one simulation per attempt."""
    attempts = model.repair_verilog(
        case.broken, case.feedback, case.problem.reference,
        case.problem.difficulty, n_samples=5,
        problem_name=case.problem.name)
    syntax_errors = 0
    passes = 0
    best = 0.0
    for code in attempts:
        if not check_source(code, f"./{case.problem.name}.v").ok:
            syntax_errors += 1
            continue
        verdict = run_testbench(code, case.problem.testbench)
        if verdict.ok:
            best = max(best, verdict.pass_fraction)
            if verdict.pass_fraction >= 0.999:
                passes += 1
    return CellResult(syntax_errors=syntax_errors, function_rate=best,
                      samples=len(attempts), passes=passes)


@pytest.mark.parametrize("model_name", TABLE3_MODEL_ORDER)
def test_repair_cell_matches_per_candidate_scoring(model_name):
    model = get_model(model_name)
    for problem in rtllm_suite():
        case = make_broken_case(problem, seed=case_seed(problem, 0))
        clear_cache()
        batched = evaluate_repair_cell(model, case, n_samples=5)
        expected = _per_candidate_repair_cell(model, case)
        assert batched.to_dict() == expected.to_dict(), problem.name


#: The smoke-size sweep a cold ``perfbench`` eval-sweep pass runs at
#: seed 0: two shuffled generation models on the middle thakur prompts
#: and two shuffled repair models, one sample each.
_SMOKE_SWEEP = """
import hashlib, json, random
from repro.eval import EvalEngine
from repro.eval.suite_api import run_suite, suite_scores
from repro.llm import TABLE3_MODEL_ORDER, TABLE5_MODEL_ORDER

def shuffled(names):
    names = list(names)
    random.Random(0).shuffle(names)
    return names[:2]

def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

engine = EvalEngine(jobs=1)
generation = run_suite("thakur", models=shuffled(TABLE5_MODEL_ORDER),
                       samples=1, levels=("middle",), engine=engine)
repair = run_suite("repair", models=shuffled(TABLE3_MODEL_ORDER),
                   samples=1, seed=0, engine=engine)
scores = {"generation": suite_scores(generation.suite, generation.report),
          "repair": suite_scores(repair.suite, repair.report)}
print(json.dumps({
    "report": sha(generation.rendered + "\\x1f" + repair.rendered),
    "scores": sha(json.dumps(scores, sort_keys=True))}))
"""


def test_smoke_sweep_is_independent_of_the_hash_seed():
    """Fresh interpreters with different ``PYTHONHASHSEED`` values give
    the same sweep: no output may follow set or dict-of-str order."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _SMOKE_SWEEP], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    digests = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        digests.append(json.loads(out.strip().splitlines()[-1]))
    assert digests[0] == digests[1]
